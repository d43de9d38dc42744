// Scenario::validate() / resolve_threads() tests: structured errors for
// every broken field, and the single home of the CELLREL_THREADS override.

#include "workload/scenario.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace cellrel {
namespace {

/// Saves and restores CELLREL_THREADS around a test so env mutation cannot
/// leak into other tests (the suite may run them in any order).
class ScopedThreadsEnv {
 public:
  ScopedThreadsEnv() {
    if (const char* v = std::getenv("CELLREL_THREADS")) {
      saved_ = v;
      had_value_ = true;
    }
  }
  ~ScopedThreadsEnv() {
    if (had_value_) {
      ::setenv("CELLREL_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("CELLREL_THREADS");
    }
  }
  void set(const char* v) { ::setenv("CELLREL_THREADS", v, 1); }
  void clear() { ::unsetenv("CELLREL_THREADS"); }

 private:
  std::string saved_;
  bool had_value_ = false;
};

bool has_error_for(const std::vector<ScenarioError>& errors, std::string_view field) {
  for (const auto& e : errors) {
    if (e.field == field) return true;
  }
  return false;
}

TEST(ScenarioValidate, DefaultScenarioIsValid) {
  EXPECT_TRUE(Scenario{}.validate().empty());
}

TEST(ScenarioValidate, RejectsEmptyFleet) {
  Scenario sc;
  sc.device_count = 0;
  const auto errors = sc.validate();
  EXPECT_TRUE(has_error_for(errors, "device_count"));
}

TEST(ScenarioValidate, RejectsNonPositiveCampaignWindow) {
  Scenario sc;
  sc.campaign_days = 0.0;
  EXPECT_TRUE(has_error_for(sc.validate(), "campaign_days"));
  sc.campaign_days = -1.0;
  EXPECT_TRUE(has_error_for(sc.validate(), "campaign_days"));
}

TEST(ScenarioValidate, RejectsEmptyDeployment) {
  Scenario sc;
  sc.deployment.bs_count = 0;
  EXPECT_TRUE(has_error_for(sc.validate(), "deployment.bs_count"));
}

TEST(ScenarioValidate, RejectsAbsurdThreadRequest) {
  Scenario sc;
  sc.threads = 4096;
  EXPECT_TRUE(sc.validate().empty());  // at the cap: fine
  sc.threads = 4097;
  EXPECT_TRUE(has_error_for(sc.validate(), "threads"));
}

// --- Scenario-pack fields (DESIGN.md §13) --------------------------------
// Every rejection reason is asserted by field name; the rules are
// feature-gated, so pack-free scenarios keep validating exactly as before.

TEST(ScenarioValidate, MobilityFieldsIgnoredWhileDisabled) {
  Scenario sc;
  sc.mobility.legs_per_day = -3.0;
  sc.mobility.commuter_fraction = 7.0;
  EXPECT_TRUE(sc.validate().empty());
}

TEST(ScenarioValidate, RejectsOutOfRangeLegsPerDay) {
  Scenario sc;
  sc.mobility.enabled = true;
  sc.mobility.legs_per_day = 0.0;
  EXPECT_TRUE(has_error_for(sc.validate(), "mobility.legs_per_day"));
  sc.mobility.legs_per_day = 48.5;
  EXPECT_TRUE(has_error_for(sc.validate(), "mobility.legs_per_day"));
  sc.mobility.legs_per_day = 48.0;  // at the cap: fine
  EXPECT_TRUE(sc.validate().empty());
}

TEST(ScenarioValidate, RejectsNonProbabilityCommuterFraction) {
  Scenario sc;
  sc.mobility.enabled = true;
  sc.mobility.commuter_fraction = -0.1;
  EXPECT_TRUE(has_error_for(sc.validate(), "mobility.commuter_fraction"));
  sc.mobility.commuter_fraction = 1.5;
  EXPECT_TRUE(has_error_for(sc.validate(), "mobility.commuter_fraction"));
  sc.mobility.commuter_fraction = 1.0;
  EXPECT_TRUE(sc.validate().empty());
}

TEST(ScenarioValidate, RejectsEmptyOutageWindow) {
  Scenario sc;
  sc.incident.outage = true;  // defaults leave outage_days at 0
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.outage_days"));
  sc.incident.outage_days = -2.0;
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.outage_days"));
}

TEST(ScenarioValidate, RejectsNegativeOutageStart) {
  Scenario sc;
  sc.incident.outage = true;
  sc.incident.outage_days = 5.0;
  sc.incident.outage_start_day = -1.0;
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.outage_start_day"));
}

TEST(ScenarioValidate, RejectsOutOfRangeOutageRegionFraction) {
  Scenario sc;
  sc.incident.outage = true;
  sc.incident.outage_days = 5.0;
  sc.incident.outage_region_fraction = 0.0;
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.outage_region_fraction"));
  sc.incident.outage_region_fraction = 1.25;
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.outage_region_fraction"));
  sc.incident.outage_region_fraction = 1.0;
  EXPECT_TRUE(sc.validate().empty());
}

TEST(ScenarioValidate, RejectsRoamingWithoutAnOutage) {
  Scenario sc;
  sc.incident.national_roaming = true;
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.national_roaming"));
  sc.incident.outage = true;
  sc.incident.outage_days = 5.0;
  EXPECT_TRUE(sc.validate().empty());
}

TEST(ScenarioValidate, RejectsDegenerateDegradationWave) {
  Scenario sc;
  sc.incident.degraded_clusters = 4;  // defaults leave degradation_days at 0
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.degradation_days"));
  sc.incident.degradation_days = 5.0;
  sc.incident.cluster_size = 0;
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.cluster_size"));
  sc.incident.cluster_size = 8;
  sc.incident.degradation_start_day = -0.5;
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.degradation_start_day"));
  sc.incident.degradation_start_day = 0.0;
  sc.incident.degradation_severity = 0.5;  // would *reduce* failures
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.degradation_severity"));
  sc.incident.degradation_severity = 1.0;
  EXPECT_TRUE(sc.validate().empty());
}

TEST(ScenarioValidate, RejectsEmptyFaultScheduleWindow) {
  Scenario sc;
  sc.incident.fault = NetworkFault::kDnsOutage;  // fault_days defaults to 0
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.fault_days"));
  sc.incident.fault_days = 3.0;
  sc.incident.fault_start_day = -1.0;
  EXPECT_TRUE(has_error_for(sc.validate(), "incident.fault_start_day"));
  sc.incident.fault_start_day = 2.0;
  EXPECT_TRUE(sc.validate().empty());
}

TEST(ScenarioValidate, PackErrorsAccumulateAcrossFamilies) {
  Scenario sc;
  sc.mobility.enabled = true;
  sc.mobility.legs_per_day = -1.0;
  sc.incident.outage = true;  // empty window
  sc.incident.degraded_clusters = 2;  // empty window
  sc.incident.fault = NetworkFault::kProxyBroken;  // empty window
  const auto errors = sc.validate();
  EXPECT_TRUE(has_error_for(errors, "mobility.legs_per_day"));
  EXPECT_TRUE(has_error_for(errors, "incident.outage_days"));
  EXPECT_TRUE(has_error_for(errors, "incident.degradation_days"));
  EXPECT_TRUE(has_error_for(errors, "incident.fault_days"));
}

TEST(ScenarioValidate, ReportsEveryFindingNotJustTheFirst) {
  Scenario sc;
  sc.device_count = 0;
  sc.deployment.bs_count = 0;
  sc.campaign_days = 0.0;
  const auto errors = sc.validate();
  EXPECT_EQ(errors.size(), 3u);
  EXPECT_TRUE(has_error_for(errors, "device_count"));
  EXPECT_TRUE(has_error_for(errors, "deployment.bs_count"));
  EXPECT_TRUE(has_error_for(errors, "campaign_days"));
}

TEST(ScenarioValidate, FormatErrorsRendersOneLinePerFinding) {
  Scenario sc;
  sc.device_count = 0;
  const std::string text = format_errors(sc.validate());
  EXPECT_NE(text.find("device_count: "), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(ScenarioResolveThreads, FieldWinsWithoutEnv) {
  ScopedThreadsEnv env;
  env.clear();
  Scenario sc;
  sc.threads = 3;
  EXPECT_EQ(sc.resolve_threads(), 3u);
}

TEST(ScenarioResolveThreads, ZeroResolvesToHardwareConcurrency) {
  ScopedThreadsEnv env;
  env.clear();
  Scenario sc;
  sc.threads = 0;
  const std::uint32_t resolved = sc.resolve_threads();
  EXPECT_GE(resolved, 1u);
  EXPECT_EQ(resolved, static_cast<std::uint32_t>(hardware_threads()));
}

TEST(ScenarioResolveThreads, EnvOverridesField) {
  ScopedThreadsEnv env;
  env.set("2");
  Scenario sc;
  sc.threads = 7;
  EXPECT_EQ(sc.resolve_threads(), 2u);
}

TEST(ScenarioResolveThreads, EnvZeroMeansHardwareConcurrency) {
  ScopedThreadsEnv env;
  env.set("0");
  Scenario sc;
  sc.threads = 7;
  EXPECT_EQ(sc.resolve_threads(), static_cast<std::uint32_t>(hardware_threads()));
}

TEST(ScenarioValidate, AcceptsDecimalThreadsEnvUpToTheCap) {
  ScopedThreadsEnv env;
  for (const char* v : {"0", "1", "16", "4096", "0004"}) {
    env.set(v);
    EXPECT_TRUE(Scenario{}.validate().empty()) << v;
  }
}

TEST(ScenarioValidate, RejectsMalformedThreadsEnvNamingTheValue) {
  ScopedThreadsEnv env;
  for (const char* v : {"-1", "abc", "", " 4", "4 ", "+4", "4x", "4097", "4294967295",
                        "99999999999999999999"}) {
    env.set(v);
    const std::vector<ScenarioError> errors = Scenario{}.validate();
    ASSERT_EQ(errors.size(), 1u) << "'" << v << "'";
    EXPECT_EQ(errors[0].field, "CELLREL_THREADS");
    EXPECT_NE(errors[0].message.find(std::string("'") + v + "'"), std::string::npos)
        << errors[0].message;
  }
}

TEST(ScenarioResolveThreads, MalformedEnvFallsBackToTheField) {
  // A value validate() rejects never sizes the executor: -1 does not wrap
  // to 4 billion, and garbage does not mean "all hardware threads".
  ScopedThreadsEnv env;
  Scenario sc;
  sc.threads = 3;
  for (const char* v : {"-1", "abc", "4097"}) {
    env.set(v);
    EXPECT_EQ(sc.resolve_threads(), 3u) << v;
  }
}

}  // namespace
}  // namespace cellrel

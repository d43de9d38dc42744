#include "workload/calibration.h"

#include <gtest/gtest.h>

#include <array>

#include "bs/deployment.h"
#include "device/phone_model.h"
#include "telephony/recovery.h"
#include "workload/scenario.h"

namespace cellrel {
namespace {

TEST(Calibration, StallCdfHonorsPaperAnchors) {
  const Calibration& cal = default_calibration();
  // Fig. 10: 60% of stalls auto-fix within 10 s; max duration 91,770 s.
  EXPECT_NEAR(cal.stall_auto_recovery_cdf.cdf(10.0), 0.60, 1e-9);
  EXPECT_DOUBLE_EQ(cal.stall_auto_recovery_cdf.cdf(91'770.0), 1.0);
  EXPECT_DOUBLE_EQ(cal.max_failure_duration_s, 91'770.0);
}

TEST(Calibration, IspFactorsAreSubscriberNeutral) {
  const Calibration& cal = default_calibration();
  double prevalence_mean = 0.0, frequency_mean = 0.0, share = 0.0;
  for (IspId isp : kAllIsps) {
    const double s = isp_profile(isp).subscriber_share;
    share += s;
    prevalence_mean += s * cal.isp_prevalence_factor[index_of(isp)];
    frequency_mean += s * cal.isp_frequency_factor[index_of(isp)];
  }
  // Subscriber-weighted means near 1 so per-model Table 1 targets survive
  // the per-ISP adjustment.
  EXPECT_NEAR(prevalence_mean / share, 1.0, 0.08);
  EXPECT_NEAR(frequency_mean / share, 1.0, 0.08);
}

TEST(Calibration, StageEffectivenessMatchesParagraph32) {
  const auto& e = default_calibration().stage_effectiveness;
  EXPECT_DOUBLE_EQ(e[0], 0.75);  // "fix the problem in 75% cases"
  EXPECT_LT(e[0], e[1]);
  EXPECT_LT(e[1], e[2]);
}

TEST(Calibration, StallClassesPartitionProbability) {
  const Calibration& cal = default_calibration();
  EXPECT_GT(cal.stall_hard_fraction, 0.0);
  EXPECT_GT(cal.stall_unrecoverable_fraction, 0.0);
  EXPECT_LT(cal.stall_hard_fraction + cal.stall_unrecoverable_fraction, 0.5);
  EXPECT_LT(cal.stall_hard_factor_lo, cal.stall_hard_factor_hi);
  EXPECT_LT(cal.stall_hard_factor_hi, 1.0);
}

TEST(Scenario, DefaultsMatchStudySetup) {
  const Scenario sc;
  EXPECT_DOUBLE_EQ(sc.campaign_days, 240.0);  // Jan-Aug 2020
  EXPECT_EQ(sc.policy, PolicyVariant::kStock);
  EXPECT_EQ(sc.recovery, RecoveryVariant::kVanilla);
  EXPECT_TRUE(sc.monitor_probing);
  // The TIMP schedule ships the paper's numbers.
  const ProbationSchedule timp = timp_probation_schedule();
  EXPECT_EQ(timp.probation[0], SimDuration::seconds(21.0));
  EXPECT_EQ(timp.probation[1], SimDuration::seconds(6.0));
  EXPECT_EQ(timp.probation[2], SimDuration::seconds(16.0));
  EXPECT_EQ(timp.name, "timp-optimized");
}

TEST(Scenario, VariantNames) {
  EXPECT_EQ(to_string(PolicyVariant::kStock), "stock");
  EXPECT_EQ(to_string(PolicyVariant::kStabilityCompatible), "stability-compatible");
  EXPECT_EQ(to_string(RecoveryVariant::kVanilla), "vanilla-60s");
  EXPECT_EQ(to_string(RecoveryVariant::kTimpOptimized), "timp-optimized");
}

TEST(DeploymentDefaults, MatchPaperSection33) {
  // The generated landscape's location-class mix (the RAT and ISP
  // marginals are checked in tests/bs/bs_test.cpp).
  DeploymentConfig config;
  config.bs_count = 40'000;
  Rng rng(12);
  std::array<double, kAllLocationClasses.size()> share{};
  for (const auto& s : generate_deployment(config, rng)) {
    share[static_cast<std::size_t>(s.location)] += 1.0 / config.bs_count;
  }
  const std::array<double, kAllLocationClasses.size()> paper = {0.12, 0.30, 0.28,
                                                                0.22, 0.03, 0.05};
  for (std::size_t i = 0; i < share.size(); ++i) {
    EXPECT_NEAR(share[i], paper[i], 0.01) << "location class " << i;
  }
}

}  // namespace
}  // namespace cellrel

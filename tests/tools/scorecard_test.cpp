// The paper-fidelity scorecard's evaluator over a golden-table-sized fleet
// (300 devices): swapped A/B inputs must fail the Fig. 19/20, Fig. 21 and
// §2.2 probing claims by id, and the verdicts alone decide the exit status.

#include "scorecard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace cellrel {
namespace {

const Comparison& claim(const std::vector<Comparison>& claims, const std::string& id) {
  const auto it = std::find_if(claims.begin(), claims.end(),
                               [&](const Comparison& c) { return c.metric == id; });
  EXPECT_NE(it, claims.end()) << id;
  return *it;
}

bool names(const std::vector<std::string>& ids, const std::string& id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

class ScorecardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Scenario base;
    base.device_count = 300;
    base.deployment.bs_count = 1000;
    base.seed = 11;
    runs_ = std::make_unique<scorecard::Runs>(scorecard::run_campaigns(base));
  }
  static void TearDownTestSuite() { runs_.reset(); }

  /// The evaluator over these runs in the given roles.
  static std::vector<Comparison> evaluate(const CampaignResult& baseline,
                                          const CampaignResult& stability,
                                          const CampaignResult& timp,
                                          const CampaignResult& unprobed) {
    return scorecard::evaluate(runs_->scenario, baseline, stability, timp, unprobed);
  }

  static std::unique_ptr<scorecard::Runs> runs_;
};

std::unique_ptr<scorecard::Runs> ScorecardTest::runs_;

// At 300 devices only a few 5G phones fail, so the prevalence half of
// F19_20.only_5g_improves can tie; the reductions' signs are what a swap
// must flip.
TEST_F(ScorecardTest, InOrderPairsReduce) {
  const auto claims = evaluate(runs_->baseline, runs_->stability, runs_->timp, runs_->unprobed);
  EXPECT_GT(claim(claims, "F20.5g_frequency_cut").measured, 0.0);
  EXPECT_GT(claim(claims, "F21.stall_duration_cut").measured, 0.0);
  EXPECT_GT(claim(claims, "F21.total_duration_cut").measured, 0.0);
  // The §2.2 and §4 rows are there, once each.
  for (const char* id :
       {"EQ1.vanilla_recovery_time", "EQ1.optimized_recovery_time", "EQ1.probations_below_60s",
        "DR.min_rate_decrease", "OV.cpu_avg", "OV.cpu_worst", "OV.memory_avg", "OV.memory_worst",
        "OV.storage_avg", "OV.storage_worst", "OV.probe_per_30_days", "OV.probe_rate_70m_users",
        "S2_2.unprobed_stall_median"}) {
    EXPECT_EQ(std::count_if(claims.begin(), claims.end(),
                            [&](const Comparison& c) { return c.metric == id; }),
              1)
        << id;
  }
}

TEST_F(ScorecardTest, SwappedPolicyPairFailsTheFig19_20Claims) {
  const auto claims = evaluate(runs_->stability, runs_->baseline, runs_->timp, runs_->unprobed);
  EXPECT_EQ(claim(claims, "F19_20.only_5g_improves").verdict(), "FAIL");
  EXPECT_FALSE(claim(claims, "F20.5g_frequency_cut").holds());
  EXPECT_LT(claim(claims, "F20.5g_frequency_cut").measured, 0.0);
  EXPECT_FALSE(claim(claims, "F19.5g_prevalence_cut").holds());
  EXPECT_TRUE(names(scorecard::failing_claims(claims), "F19_20.only_5g_improves"));
}

TEST_F(ScorecardTest, SwappedRecoveryPairFailsTheFig21Claims) {
  const auto claims = evaluate(runs_->timp, runs_->stability, runs_->baseline, runs_->unprobed);
  EXPECT_EQ(claim(claims, "F21.stall_duration_cut").verdict(), "FAIL");
  EXPECT_LT(claim(claims, "F21.stall_duration_cut").measured, 0.0);
  EXPECT_FALSE(claim(claims, "F21.total_duration_cut").holds());
  EXPECT_LT(claim(claims, "F21.total_duration_cut").measured, 0.0);
  EXPECT_TRUE(names(scorecard::failing_claims(claims), "F21.stall_duration_cut"));
}

TEST_F(ScorecardTest, SwappedDetectionPairFailsTheProbingClaim) {
  const auto claims = evaluate(runs_->unprobed, runs_->stability, runs_->timp, runs_->baseline);
  EXPECT_EQ(claim(claims, "S2_2.unprobed_stall_median").verdict(), "FAIL");
  EXPECT_EQ(claim(claims, "S2_2.unprobed_stall_median").measured, 0.0);
  EXPECT_TRUE(names(scorecard::failing_claims(claims), "S2_2.unprobed_stall_median"));
}

TEST_F(ScorecardTest, VerdictDecidesTheExitStatus) {
  auto claims = evaluate(runs_->timp, runs_->stability, runs_->baseline, runs_->unprobed);
  std::vector<std::string> fail_rows;
  for (const auto& c : claims) {
    if (c.verdict() == "FAIL") fail_rows.push_back(c.metric);
  }
  ASSERT_FALSE(fail_rows.empty());
  EXPECT_EQ(scorecard::failing_claims(claims), fail_rows);

  // A reason turns each miss into "deviates": nothing fails, the exit is 0,
  // and the rows keep their measured values.
  for (auto& c : claims) {
    if (!c.holds()) c.expected_deviation = "known";
  }
  EXPECT_TRUE(scorecard::failing_claims(claims).empty());
  EXPECT_EQ(claim(claims, "F21.stall_duration_cut").verdict(), "deviates");
  const std::string report = scorecard::render(claims, 11);
  EXPECT_NE(report.find("| F21.stall_duration_cut"), std::string::npos);
  EXPECT_NE(report.find("`F21.stall_duration_cut` (deviates here): known"), std::string::npos);
}

}  // namespace
}  // namespace cellrel

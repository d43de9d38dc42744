// The paper-fidelity scorecard's evaluator over a golden-table-sized fleet
// (300 devices): swapped A/B inputs must fail the Fig. 19/20 and Fig. 21
// reduction claims by id, and the verdicts alone decide the exit status.

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

  static std::unique_ptr<scorecard::Runs> runs_;
};

std::unique_ptr<scorecard::Runs> ScorecardTest::runs_;

// At 300 devices only a few 5G phones fail, so the prevalence half of
// F19_20.only_5g_improves can tie; the reductions' signs are what a swap
// must flip.
TEST_F(ScorecardTest, InOrderPairsReduce) {
  const auto claims = scorecard::evaluate(runs_->baseline, runs_->stability, runs_->timp);
  EXPECT_GT(claim(claims, "F20.5g_frequency_cut").measured, 0.0);
  EXPECT_GT(claim(claims, "F21.stall_duration_cut").measured, 0.0);
  EXPECT_GT(claim(claims, "F21.total_duration_cut").measured, 0.0);
}

TEST_F(ScorecardTest, SwappedPolicyPairFailsTheFig19_20Claims) {
  const auto claims = scorecard::evaluate(runs_->stability, runs_->baseline, runs_->timp);
  EXPECT_EQ(claim(claims, "F19_20.only_5g_improves").verdict(), "FAIL");
  EXPECT_FALSE(claim(claims, "F20.5g_frequency_cut").holds());
  EXPECT_LT(claim(claims, "F20.5g_frequency_cut").measured, 0.0);
  EXPECT_FALSE(claim(claims, "F19.5g_prevalence_cut").holds());
  EXPECT_TRUE(names(scorecard::failing_claims(claims), "F19_20.only_5g_improves"));
}

TEST_F(ScorecardTest, SwappedRecoveryPairFailsTheFig21Claims) {
  const auto claims = scorecard::evaluate(runs_->timp, runs_->stability, runs_->baseline);
  EXPECT_EQ(claim(claims, "F21.stall_duration_cut").verdict(), "FAIL");
  EXPECT_LT(claim(claims, "F21.stall_duration_cut").measured, 0.0);
  EXPECT_FALSE(claim(claims, "F21.total_duration_cut").holds());
  EXPECT_LT(claim(claims, "F21.total_duration_cut").measured, 0.0);
  EXPECT_TRUE(names(scorecard::failing_claims(claims), "F21.stall_duration_cut"));
}

TEST_F(ScorecardTest, VerdictDecidesTheExitStatus) {
  auto claims = scorecard::evaluate(runs_->timp, runs_->stability, runs_->baseline);
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

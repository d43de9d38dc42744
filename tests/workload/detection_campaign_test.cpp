// End-to-end contracts for online sleeping-cell detection riding a real
// campaign (Scenario::detect):
//  - golden scoring: on the reference scenario the detector must reach
//    precision >= 0.9 and recall >= 0.8 against the injected ground truth,
//    with positive Zipf-rank agreement;
//  - bit-identity: the serialized health report is byte-identical across
//    {1, 2, 4} worker threads for several seeds;
//  - uploaded stream: the tracker sees exactly the dataset's records (what
//    the backend received), so an offline replay reproduces the report;
//  - degenerate fleet: a fleet without failures produces an empty verdict
//    list and finite (0, not NaN) scores.

#include "workload/campaign.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detect/detector.h"

namespace cellrel {
namespace {

Scenario detect_scenario(std::uint64_t seed, std::uint32_t threads) {
  Scenario sc;
  sc.device_count = 400;  // > 6 shards at 64 devices/shard
  sc.deployment.bs_count = 700;
  sc.campaign_days = 2.0;
  sc.seed = seed;
  sc.threads = threads;
  sc.detect = true;
  return sc;
}

TEST(DetectionCampaign, GoldenScenarioMeetsPrecisionRecallFloor) {
  Campaign campaign(detect_scenario(20200101, 1));
  const CampaignResult result = campaign.run();
  ASSERT_NE(result.health, nullptr);
  const detect::HealthReport& report = *result.health;

  ASSERT_TRUE(report.scored);
  ASSERT_GE(report.truth_sleeping, 20u) << "golden scenario lost its signal";
  EXPECT_GE(report.score.precision(), 0.9);
  EXPECT_GE(report.score.recall(), 0.8);
  EXPECT_GE(report.score.f1(), 0.85);

  // The detector's severity ranking must track the injected Zipf ranking.
  EXPECT_GE(report.rank_n, 20u);
  EXPECT_GE(report.rank_spearman, 0.8);

  // Every true positive was flagged online, within the horizon.
  EXPECT_EQ(report.time_to_detect_s.size(), report.score.true_positives);
  if (!report.time_to_detect_s.empty()) {
    EXPECT_LE(report.time_to_detect_s.max(), report.config.horizon_s);
  }

  // The metric surface carries the same verdict counts.
  EXPECT_EQ(result.metrics.counters().at("health.flagged.sleeping").value,
            report.flagged_sleeping);
  EXPECT_EQ(result.metrics.gauges().at("health.score.precision").value,
            report.score.precision());
}

TEST(DetectionCampaign, HealthReportBitIdenticalAcrossThreads) {
  for (const std::uint64_t seed : {20200101ull, 424242ull, 77777ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string baseline;
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      Campaign campaign(detect_scenario(seed, threads));
      const CampaignResult result = campaign.run();
      ASSERT_NE(result.health, nullptr);
      const std::string json = detect::health_report_to_json(*result.health);
      if (baseline.empty()) {
        baseline = json;
      } else {
        EXPECT_EQ(json, baseline);
      }
    }
  }
}

TEST(DetectionCampaign, StreamingPathProducesTheSameReport) {
  Scenario materialized = detect_scenario(20200101, 2);
  Scenario streaming = detect_scenario(20200101, 2);
  streaming.stream = true;
  Campaign a(materialized), b(streaming);
  const CampaignResult ra = a.run();
  const CampaignResult rb = b.run();
  ASSERT_NE(ra.health, nullptr);
  ASSERT_NE(rb.health, nullptr);
  EXPECT_EQ(detect::health_report_to_json(*ra.health),
            detect::health_report_to_json(*rb.health));
}

TEST(DetectionCampaign, HealthSeesExactlyTheUploadedRecords) {
  // Records written after a device's final upload flush never reach the
  // backend; the tracker must not count them either.
  Campaign campaign(detect_scenario(7, 2));
  const CampaignResult result = campaign.run();
  ASSERT_NE(result.health, nullptr);
  ASSERT_FALSE(result.dataset.records.empty());
  EXPECT_EQ(result.health->records_seen, result.dataset.records.size());

  const detect::HealthConfig config = result.health->config;
  detect::HealthTracker replay(config);
  for (const TraceRecord& r : result.dataset.records) replay.ingest(RecordBatch::row_of(r));
  const std::vector<std::uint64_t> truth = campaign.registry().failure_counts();
  EXPECT_EQ(detect::health_report_to_json(*result.health),
            detect::health_report_to_json(
                detect::SleepingCellDetector(config).analyze(replay, truth)));
}

TEST(DetectionCampaign, ZeroFailureFleetYieldsEmptyVerdicts) {
  // A fleet in which no device fails: the detection scenario's window
  // series stays empty and every BS's ground truth is zero.
  const Scenario sc = detect_scenario(20200101, 2);
  detect::HealthConfig config;
  config.window_s = sc.detect_window_s;
  config.horizon_s = sc.campaign_days * 86'400.0;
  const detect::HealthTracker tracker(config);
  const std::vector<std::uint64_t> truth(sc.deployment.bs_count, 0);
  const detect::HealthReport report = detect::SleepingCellDetector(config).analyze(tracker, truth);

  ASSERT_TRUE(report.scored);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.records_seen, 0u);
  EXPECT_EQ(report.truth_sleeping, 0u);
  EXPECT_EQ(report.score.precision(), 0.0);
  EXPECT_EQ(report.score.recall(), 0.0);
  EXPECT_EQ(report.score.f1(), 0.0);
  const std::string json = detect::health_report_to_json(report);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
}

TEST(DetectionCampaign, DetectionOffLeavesResultUntouched) {
  Scenario sc = detect_scenario(20200101, 1);
  sc.detect = false;
  Campaign campaign(sc);
  const CampaignResult result = campaign.run();
  EXPECT_EQ(result.health, nullptr);
  EXPECT_EQ(result.metrics.counters().count("health.flagged.sleeping"), 0u);
}

}  // namespace
}  // namespace cellrel

// Unit tests for the BS-health tracker and the sleeping-cell detector
// (src/detect): window math, row ingestion, verdict thresholds,
// ground-truth scoring, and the degenerate zero-failure fleet (empty
// verdicts, no NaN scores).

#include "detect/detector.h"
#include "detect/health.h"

#include <gtest/gtest.h>

namespace cellrel::detect {
namespace {

RecordBatch::RowView rec(BsIndex bs, double at_s, bool filtered,
                         FailureType type = FailureType::kDataSetupError) {
  RecordBatch::RowView r;
  r.device = 1;
  r.type = type;
  r.at_us = SimDuration::seconds(at_s).count_us();
  r.bs = bs;
  r.filtered_false_positive = filtered;
  return r;
}

HealthConfig small_config() {
  HealthConfig c;
  c.window_s = 100.0;
  c.horizon_s = 1000.0;
  return c;
}

TEST(HealthConfig, WindowCountCoversHorizon) {
  HealthConfig c = small_config();
  EXPECT_EQ(c.windows(), 10u);
  c.horizon_s = 50.0;  // shorter than one window: still one window
  EXPECT_EQ(c.windows(), 1u);
  c.horizon_s = 250.0;  // partial trailing window rounds up
  EXPECT_EQ(c.windows(), 3u);
}

TEST(HealthTracker, WindowOfClampsToHorizon) {
  const HealthTracker tracker(small_config());
  EXPECT_EQ(tracker.window_of(0), 0u);
  EXPECT_EQ(tracker.window_of(99'000'000), 0u);
  EXPECT_EQ(tracker.window_of(100'000'000), 1u);
  EXPECT_EQ(tracker.window_of(950'000'000), 9u);
  // Episode drain tails past the campaign end land in the last window.
  EXPECT_EQ(tracker.window_of(5'000'000'000), 9u);
}

TEST(HealthTracker, AttributesKeptFilteredAndUnattributed) {
  HealthTracker tracker(small_config());
  tracker.ingest(rec(3, 10.0, /*filtered=*/false, FailureType::kDataStall));
  tracker.ingest(rec(3, 110.0, /*filtered=*/true, FailureType::kDataSetupError));
  tracker.ingest(rec(kInvalidBs, 20.0, /*filtered=*/false, FailureType::kVoiceCallDrop));

  EXPECT_EQ(tracker.records_seen(), 3u);
  EXPECT_EQ(tracker.records_unattributed(), 1u);
  ASSERT_EQ(tracker.cells().size(), 1u);
  const CellHealth& cell = tracker.cells().at(3);
  EXPECT_EQ(cell.events, 2u);
  EXPECT_EQ(cell.kept, 1u);
  EXPECT_EQ(cell.filtered, 1u);
  EXPECT_EQ(cell.window_events[0], 1u);
  EXPECT_EQ(cell.window_events[1], 1u);
  EXPECT_EQ(cell.window_kept[0], 1u);
  EXPECT_EQ(cell.window_kept[1], 0u);
  EXPECT_EQ(cell.type_counts[index_of(FailureType::kDataStall)], 1u);
  EXPECT_EQ(cell.type_counts[index_of(FailureType::kDataSetupError)], 0u);
  EXPECT_EQ(cell.first_event_us, 10'000'000);
  EXPECT_EQ(cell.last_event_us, 110'000'000);
}

TEST(SleepingCellDetector, FlagsSleepingWithOnlineFlagTime) {
  const HealthConfig config = small_config();
  HealthTracker tracker(config);
  // 8 kept records in window 1: crosses sleeping_min_kept at the end of
  // that window.
  for (int i = 0; i < 8; ++i) tracker.ingest(rec(5, 110.0 + i, false));

  const SleepingCellDetector detector(config);
  const HealthReport report = detector.analyze(tracker, {});
  ASSERT_EQ(report.findings.size(), 1u);
  const CellFinding& f = report.findings[0];
  EXPECT_EQ(f.bs, 5u);
  EXPECT_EQ(f.verdict, CellVerdict::kSleeping);
  EXPECT_EQ(f.kept, 8u);
  EXPECT_EQ(f.flagged_at_us, 200'000'000);  // end of window 1
  EXPECT_EQ(report.flagged_sleeping, 1u);
  EXPECT_EQ(report.flagged_degraded, 0u);
  EXPECT_FALSE(report.scored);
}

TEST(SleepingCellDetector, DegradedBelowSleepingThreshold) {
  const HealthConfig config = small_config();
  HealthTracker tracker(config);
  // 4 kept in one window: EWMA peak 0.3 * 4 = 1.2 >= 1.0, kept < 8.
  for (int i = 0; i < 4; ++i) tracker.ingest(rec(6, 10.0 + i, false));
  // A single kept record elsewhere: EWMA peak 0.3 — healthy, unlisted.
  tracker.ingest(rec(9, 10.0, false));

  const SleepingCellDetector detector(config);
  const HealthReport report = detector.analyze(tracker, {});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].bs, 6u);
  EXPECT_EQ(report.findings[0].verdict, CellVerdict::kDegraded);
  EXPECT_EQ(report.findings[0].flagged_at_us, -1);
  EXPECT_DOUBLE_EQ(report.findings[0].peak_ewma, 1.2);
}

TEST(SleepingCellDetector, SilenceGapBetweenActiveWindows) {
  const HealthConfig config = small_config();
  HealthTracker tracker(config);
  for (int i = 0; i < 8; ++i) tracker.ingest(rec(4, 10.0 + i, false));
  tracker.ingest(rec(4, 550.0, false));  // window 5: 4 silent windows between

  const SleepingCellDetector detector(config);
  const HealthReport report = detector.analyze(tracker, {});
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].max_silence_windows, 4u);
}

TEST(SleepingCellDetector, ScoresAgainstGroundTruth) {
  const HealthConfig config = small_config();
  HealthTracker tracker(config);
  for (int i = 0; i < 10; ++i) tracker.ingest(rec(1, 10.0 + i, false));  // tp
  for (int i = 0; i < 9; ++i) tracker.ingest(rec(2, 10.0 + i, false));   // fp
  // BS 3 is truly sleeping but invisible to the monitor stream: fn.
  std::vector<std::uint64_t> truth(8, 0);
  truth[1] = 10;
  truth[3] = 12;

  const SleepingCellDetector detector(config);
  const HealthReport report = detector.analyze(tracker, truth);
  ASSERT_TRUE(report.scored);
  EXPECT_EQ(report.score.true_positives, 1u);
  EXPECT_EQ(report.score.false_positives, 1u);
  EXPECT_EQ(report.score.false_negatives, 1u);
  EXPECT_EQ(report.truth_sleeping, 2u);
  EXPECT_DOUBLE_EQ(report.score.precision(), 0.5);
  EXPECT_DOUBLE_EQ(report.score.recall(), 0.5);
  EXPECT_DOUBLE_EQ(report.score.f1(), 0.5);
  EXPECT_EQ(report.rank_n, 2u);
  ASSERT_EQ(report.time_to_detect_s.size(), 1u);
  // First event at t=10 s, flagged at the end of window 0 (t=100 s).
  EXPECT_DOUBLE_EQ(report.time_to_detect_s.max(), 90.0);
  const std::string json = health_report_to_json(report);
  EXPECT_NE(json.find("\"truly_sleeping\": true"), std::string::npos);
  EXPECT_NE(json.find("\"truly_sleeping\": false"), std::string::npos);
}

TEST(SleepingCellDetector, ZeroFailureFleetYieldsEmptyVerdictsWithoutNaN) {
  const HealthConfig config = small_config();
  const HealthTracker tracker(config);
  const std::vector<std::uint64_t> truth(16, 0);

  const SleepingCellDetector detector(config);
  const HealthReport report = detector.analyze(tracker, truth);
  ASSERT_TRUE(report.scored);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.truth_sleeping, 0u);
  EXPECT_EQ(report.score.precision(), 0.0);
  EXPECT_EQ(report.score.recall(), 0.0);
  EXPECT_EQ(report.score.f1(), 0.0);
  const std::string json = health_report_to_json(report);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
  // The rendered section and the metric surface stay finite too.
  EXPECT_NE(render_health_report(report, 10).find("(no cells flagged)"),
            std::string::npos);
  obs::MetricRegistry metrics;
  publish_health_metrics(report, metrics);
  EXPECT_EQ(metrics.gauge("health.score.f1").value, 0.0);
}

TEST(SleepingCellDetector, JsonSerializationIsDeterministic) {
  const HealthConfig config = small_config();
  auto build = [&config] {
    HealthTracker tracker(config);
    for (int i = 0; i < 12; ++i) tracker.ingest(rec(8, 20.0 + 40.0 * i, i % 3 == 0));
    std::vector<std::uint64_t> truth(10, 0);
    truth[8] = 8;
    const SleepingCellDetector detector(config);
    return health_report_to_json(detector.analyze(tracker, truth));
  };
  EXPECT_EQ(build(), build());
}

TEST(SleepingCellDetector, JsonConfigPrintsThresholdConstants) {
  const HealthConfig config = small_config();
  const HealthTracker tracker(config);
  const std::string json =
      health_report_to_json(SleepingCellDetector(config).analyze(tracker, {}));
  EXPECT_NE(json.find("\"config\": { \"window_s\": 100, \"windows\": 10, "
                      "\"ewma_alpha\": 0.29999999999999999, \"sleeping_min_kept\": 8, "
                      "\"degraded_min_ewma\": 1, \"truth_min_failures\": 8 }"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace cellrel::detect

// Unit tests for the analysis library against a hand-built dataset with
// exactly known statistics.

#include "analysis/aggregate.h"

#include <gtest/gtest.h>

#include "analysis/report.h"

namespace cellrel {
namespace {

TraceRecord record(DeviceId device, FailureType type, double duration_s,
                   SignalLevel level = SignalLevel::kLevel3, Rat rat = Rat::k4G,
                   bool filtered = false) {
  TraceRecord r;
  r.device = device;
  r.type = type;
  r.duration = SimDuration::seconds(duration_s);
  r.level = level;
  r.rat = rat;
  r.filtered_false_positive = filtered;
  return r;
}

DeviceMeta device(DeviceId id, int model, IspId isp, bool has_5g, AndroidVersion av) {
  return DeviceMeta{id, model, isp, has_5g, av};
}

/// Four devices: #1 (model 1, A, non-5G, A10) with 3 failures; #2 (model 23,
/// B, 5G, A10) with 1 failure; #3 (model 2, A, non-5G, A9) clean; #4
/// (model 23, C, 5G, A10) with only a filtered event.
TraceDataset build_dataset() {
  TraceDataset data;
  data.devices = {
      device(1, 1, IspId::kIspA, false, AndroidVersion::kAndroid10),
      device(2, 23, IspId::kIspB, true, AndroidVersion::kAndroid10),
      device(3, 2, IspId::kIspA, false, AndroidVersion::kAndroid9),
      device(4, 23, IspId::kIspC, true, AndroidVersion::kAndroid10),
  };
  data.records = {
      record(1, FailureType::kDataSetupError, 5.0),
      record(1, FailureType::kDataSetupError, 15.0),
      record(1, FailureType::kDataStall, 100.0),
      record(2, FailureType::kOutOfService, 30.0, SignalLevel::kLevel5, Rat::k5G),
      record(4, FailureType::kDataSetupError, 2.0, SignalLevel::kLevel2, Rat::k4G,
             /*filtered=*/true),
  };
  data.records[0].cause = FailCause::kGprsRegistrationFail;
  data.records[1].cause = FailCause::kGprsRegistrationFail;
  data.records[4].cause = FailCause::kCongestion;
  data.records[4].ground_truth_fp = FalsePositiveKind::kBsOverloadRejection;
  return data;
}

TEST(Aggregator, OverallPrevalenceAndFrequency) {
  const TraceDataset data = build_dataset();
  const Aggregator agg(data);
  const PrevalenceFrequency pf = agg.overall();
  EXPECT_EQ(pf.devices, 4u);
  EXPECT_EQ(pf.failing_devices, 2u);  // device 4's only event is filtered
  EXPECT_EQ(pf.failures, 4u);
  EXPECT_DOUBLE_EQ(pf.prevalence(), 0.5);
  EXPECT_DOUBLE_EQ(pf.frequency(), 2.0);
}

TEST(Aggregator, ByModelSlices) {
  const TraceDataset data = build_dataset();
  const Aggregator agg(data);
  const auto by_model = agg.by_model();
  EXPECT_DOUBLE_EQ(by_model.at(1).prevalence(), 1.0);
  EXPECT_DOUBLE_EQ(by_model.at(1).frequency(), 3.0);
  EXPECT_DOUBLE_EQ(by_model.at(2).prevalence(), 0.0);
  EXPECT_DOUBLE_EQ(by_model.at(23).prevalence(), 0.5);
}

TEST(Aggregator, By5GAndAndroidSlices) {
  const TraceDataset data = build_dataset();
  const Aggregator agg(data);
  const auto by5g = agg.by_5g_capability();
  EXPECT_EQ(by5g[1].devices, 2u);
  EXPECT_EQ(by5g[1].failing_devices, 1u);
  EXPECT_EQ(by5g[0].devices, 2u);

  const auto by5g_a10 = agg.by_5g_capability(/*android10_only=*/true);
  EXPECT_EQ(by5g_a10[0].devices, 1u);  // device 3 (Android 9) excluded

  const auto by_android = agg.by_android_version();
  EXPECT_EQ(by_android[0].devices, 1u);
  EXPECT_EQ(by_android[1].devices, 3u);
  const auto by_android_no5g = agg.by_android_version(/*exclude_5g=*/true);
  EXPECT_EQ(by_android_no5g[1].devices, 1u);
}

TEST(Aggregator, ByIspSlices) {
  const TraceDataset data = build_dataset();
  const Aggregator agg(data);
  const auto by_isp = agg.by_isp();
  EXPECT_EQ(by_isp[index_of(IspId::kIspA)].devices, 2u);
  EXPECT_DOUBLE_EQ(by_isp[index_of(IspId::kIspA)].prevalence(), 0.5);
  EXPECT_DOUBLE_EQ(by_isp[index_of(IspId::kIspB)].prevalence(), 1.0);
  EXPECT_DOUBLE_EQ(by_isp[index_of(IspId::kIspC)].prevalence(), 0.0);
}

TEST(Aggregator, TypeMeansOverAllDevices) {
  const TraceDataset data = build_dataset();
  const Aggregator agg(data);
  const auto means = agg.mean_failures_per_device_by_type();
  EXPECT_DOUBLE_EQ(means[index_of(FailureType::kDataSetupError)], 0.5);  // 2 / 4
  EXPECT_DOUBLE_EQ(means[index_of(FailureType::kDataStall)], 0.25);
  EXPECT_DOUBLE_EQ(means[index_of(FailureType::kOutOfService)], 0.25);
}

TEST(Aggregator, PerDeviceCountCdf) {
  const TraceDataset data = build_dataset();
  const Aggregator agg(data);
  const auto counts = agg.per_device_counts();
  EXPECT_EQ(counts.total.size(), 2u);
  EXPECT_DOUBLE_EQ(counts.total.max(), 3.0);
  EXPECT_EQ(counts.by_type[index_of(FailureType::kDataSetupError)].size(), 1u);
}

TEST(Aggregator, DurationsExcludeFiltered) {
  const TraceDataset data = build_dataset();
  const Aggregator agg(data);
  const SampleSet all = agg.durations_all();
  EXPECT_EQ(all.size(), 4u);  // filtered record excluded
  EXPECT_DOUBLE_EQ(all.mean(), (5.0 + 15.0 + 100.0 + 30.0) / 4.0);
  EXPECT_DOUBLE_EQ(agg.durations_of(FailureType::kDataStall).mean(), 100.0);
  const auto share = agg.duration_share_by_type();
  EXPECT_NEAR(share[index_of(FailureType::kDataStall)], 100.0 / 150.0, 1e-12);
}

TEST(Aggregator, ErrorCodeTable) {
  const TraceDataset data = build_dataset();
  const Aggregator agg(data);
  const auto codes = agg.top_error_codes(5);
  ASSERT_FALSE(codes.empty());
  EXPECT_EQ(codes[0].cause, FailCause::kGprsRegistrationFail);
  EXPECT_EQ(codes[0].count, 2u);
  EXPECT_DOUBLE_EQ(codes[0].percent, 100.0);  // of the 2 kept setup errors
}

TEST(Aggregator, FilterScoreUsesGroundTruth) {
  const TraceDataset data = build_dataset();
  const Aggregator agg(data);
  const auto score = agg.filter_score();
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_negatives, 0u);
  EXPECT_EQ(score.false_positives, 0u);
  EXPECT_EQ(score.true_negatives, 4u);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0);
  EXPECT_DOUBLE_EQ(score.recall(), 1.0);
}

TEST(Aggregator, NormalizedPrevalenceByLevel) {
  TraceDataset data = build_dataset();
  // 1 hour of connected time per level per device on average.
  for (Rat rat : kAllRats) {
    for (SignalLevel level : kAllSignalLevels) {
      data.connected_time.add(rat, level, 3600.0);  // 4 RATs x 1 h = 4 device-hours
    }
  }
  const Aggregator agg(data);
  const auto norm = agg.normalized_prevalence_by_level();
  // Level 3 failures: device 1 only => prevalence 0.25 over 1 mean hour.
  EXPECT_NEAR(norm[3], 0.25, 1e-9);
  EXPECT_NEAR(norm[5], 0.25, 1e-9);  // device 2 at level 5
  EXPECT_NEAR(norm[0], 0.0, 1e-9);
}

TEST(Aggregator, TransitionMatrixIncrease) {
  TraceDataset data = build_dataset();
  // Dwelling at 4G level 4 fails 10% of the time; transitioning into 5G
  // level 0 fails 50% of the time => increase 0.4.
  for (int i = 0; i < 100; ++i) {
    DwellRecord d;
    d.rat = Rat::k4G;
    d.level = SignalLevel::kLevel4;
    d.failure_within_window = i < 10;
    data.dwells.push_back(d);
    TransitionRecord t;
    t.from_rat = Rat::k4G;
    t.from_level = SignalLevel::kLevel4;
    t.to_rat = Rat::k5G;
    t.to_level = SignalLevel::kLevel0;
    t.failure_within_window = i < 50;
    data.transitions.push_back(t);
  }
  const Aggregator agg(data);
  const auto m = agg.transition_increase(Rat::k4G, Rat::k5G);
  EXPECT_NEAR(m[4][0], 0.4, 1e-9);
  EXPECT_DOUBLE_EQ(m[0][0], 0.0);  // no data -> 0
}

TEST(Aggregator, BsSlices) {
  TraceDataset data = build_dataset();
  data.base_stations = {
      BsMeta{0, IspId::kIspA, 0b0100, LocationClass::kUrban, 10},
      BsMeta{1, IspId::kIspA, 0b0100, LocationClass::kUrban, 0},
      BsMeta{2, IspId::kIspB, 0b1100, LocationClass::kDenseUrban, 5},
      BsMeta{3, IspId::kIspC, 0b0010, LocationClass::kRural, 0},
  };
  const Aggregator agg(data);
  const auto stats = agg.bs_ranking_stats();
  EXPECT_EQ(stats.total, 4u);
  EXPECT_EQ(stats.with_failures, 2u);
  EXPECT_EQ(stats.max, 10u);
  const auto by_rat = agg.bs_prevalence_by_rat();
  EXPECT_DOUBLE_EQ(by_rat[index_of(Rat::k4G)], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(by_rat[index_of(Rat::k3G)], 0.0);
  EXPECT_DOUBLE_EQ(by_rat[index_of(Rat::k5G)], 1.0);
}

// --- report renderers ---

TEST(Report, SeriesRendering) {
  Series s;
  s.name = "test";
  s.labels = {"a", "b"};
  s.values = {1.0, 2.0};
  const std::string out = render_series(s);
  EXPECT_NE(out.find("test"), std::string::npos);
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("2.000"), std::string::npos);
}

TEST(Report, CdfRendering) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  const std::string out = render_cdf(s, default_cdf_quantiles());
  EXPECT_NE(out.find("p050.0"), std::string::npos);
  EXPECT_NE(out.find("mean"), std::string::npos);
}

TEST(Report, TransitionMatrixRendering) {
  Aggregator::TransitionMatrix m{};
  m[4][0] = 0.37;
  const std::string out = render_transition_matrix(m, "4G->5G");
  EXPECT_NE(out.find("4G->5G"), std::string::npos);
  EXPECT_NE(out.find("+0.37"), std::string::npos);
}

TEST(Report, ComparisonTable) {
  const std::vector<Comparison> rows = {
      {"T1.prevalence", 23.0, 21.5, "%", 18.4, 27.6, ""},
      {"F16.5g_riskier", 6.0, 5.0, "levels", 6.0, 6.0, ""},
      {"F21.median_timp", 2.0, 5.13, "s", 1.6, 2.4, "setup retries set the median"},
  };
  EXPECT_EQ(rows[0].verdict(), "pass");
  EXPECT_EQ(rows[1].verdict(), "FAIL");
  EXPECT_EQ(rows[2].verdict(), "deviates");
  const std::string out = render_comparisons(rows);
  EXPECT_NE(out.find("| claim"), std::string::npos);
  EXPECT_NE(out.find("| T1.prevalence   | 23    | 21.50    | 18.40 .. 27.60 | pass     | %"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("| 6     | 5        | = 6"), std::string::npos) << out;
  EXPECT_NE(out.find("| deviates |"), std::string::npos) << out;
}

}  // namespace
}  // namespace cellrel

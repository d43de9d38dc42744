// Aggregation equivalence across the fold's two adapters: the Aggregator a
// campaign run with Scenario::stream folds from its shard batches must
// answer every §3 query — prevalence slices, duration samples, BS
// landscape, signal normalization, error codes, transition matrices, filter
// score — EXACTLY equal (bit-for-bit on doubles) to Aggregator(dataset) over
// a materialized run of the same scenario, for every thread count, with and
// without spill-to-disk. A materialized run's own merge-time Aggregator
// must equal Aggregator(dataset) too. The full markdown report and the
// metrics JSON must come out byte-identical.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "analysis/aggregate.h"
#include "analysis/csv_io.h"
#include "analysis/full_report.h"
#include "obs/export.h"
#include "query/engine.h"
#include "query/export.h"
#include "query/presets.h"
#include "workload/campaign.h"

namespace cellrel {
namespace {

Scenario streaming_scenario(std::uint64_t seed, std::uint32_t threads) {
  Scenario sc;
  sc.device_count = 300;  // > 4 shards at 64 devices/shard
  sc.deployment.bs_count = 1000;
  sc.seed = seed;
  sc.threads = threads;
  return sc;
}

void expect_identical_samples(const SampleSet& a, const SampleSet& b) {
  ASSERT_EQ(a.size(), b.size());
  // Sorted order: SampleSet quantiles sort internally, so element-wise
  // equality of the sorted views is the bit-identity contract that makes
  // every derived statistic equal.
  const std::span<const double> sa = a.sorted();
  const std::span<const double> sb = b.sorted();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i], sb[i]) << "sample " << i;
  }
}

void expect_identical_pf(const PrevalenceFrequency& a, const PrevalenceFrequency& b) {
  EXPECT_EQ(a.devices, b.devices);
  EXPECT_EQ(a.failing_devices, b.failing_devices);
  EXPECT_EQ(a.failures, b.failures);
}

/// Every Aggregator table, exact-equal between two aggregators.
void expect_equivalent(const Aggregator& mat, const Aggregator& str) {
  expect_identical_pf(mat.overall(), str.overall());

  const auto mat_models = mat.by_model();
  const auto str_models = str.by_model();
  ASSERT_EQ(mat_models.size(), str_models.size());
  for (const auto& [model, pf] : mat_models) {
    SCOPED_TRACE("model " + std::to_string(model));
    ASSERT_TRUE(str_models.contains(model));
    expect_identical_pf(pf, str_models.at(model));
  }

  for (const bool android10 : {false, true}) {
    const auto a = mat.by_5g_capability(android10);
    const auto b = str.by_5g_capability(android10);
    expect_identical_pf(a[0], b[0]);
    expect_identical_pf(a[1], b[1]);
  }
  for (const bool exclude_5g : {false, true}) {
    const auto a = mat.by_android_version(exclude_5g);
    const auto b = str.by_android_version(exclude_5g);
    expect_identical_pf(a[0], b[0]);
    expect_identical_pf(a[1], b[1]);
  }
  {
    const auto a = mat.by_isp();
    const auto b = str.by_isp();
    for (std::size_t i = 0; i < kIspCount; ++i) expect_identical_pf(a[i], b[i]);
  }

  {
    const auto a = mat.mean_failures_per_device_by_type();
    const auto b = str.mean_failures_per_device_by_type();
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) EXPECT_EQ(a[t], b[t]);
  }
  {
    const auto a = mat.per_device_counts();
    const auto b = str.per_device_counts();
    expect_identical_samples(a.total, b.total);
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
      expect_identical_samples(a.by_type[t], b.by_type[t]);
    }
  }

  expect_identical_samples(mat.durations_all(), str.durations_all());
  for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
    const auto type = static_cast<FailureType>(t);
    expect_identical_samples(mat.durations_of(type), str.durations_of(type));
  }
  {
    const auto a = mat.duration_share_by_type();
    const auto b = str.duration_share_by_type();
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) EXPECT_EQ(a[t], b[t]);
  }

  {
    const auto a = mat.bs_zipf_fit();
    const auto b = str.bs_zipf_fit();
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.r_squared, b.r_squared);
  }
  {
    const auto a = mat.bs_ranking_stats();
    const auto b = str.bs_ranking_stats();
    EXPECT_EQ(a.median, b.median);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.with_failures, b.with_failures);
    EXPECT_EQ(a.total, b.total);
  }
  {
    const auto a = mat.bs_prevalence_by_rat();
    const auto b = str.bs_prevalence_by_rat();
    for (std::size_t r = 0; r < kRatCount; ++r) EXPECT_EQ(a[r], b[r]);
  }
  {
    const auto a = mat.normalized_prevalence_by_level();
    const auto b = str.normalized_prevalence_by_level();
    for (std::size_t l = 0; l < kSignalLevelCount; ++l) EXPECT_EQ(a[l], b[l]);
  }
  {
    const auto a = mat.normalized_prevalence_by_rat_level();
    const auto b = str.normalized_prevalence_by_rat_level();
    for (std::size_t r = 0; r < kRatCount; ++r) {
      for (std::size_t l = 0; l < kSignalLevelCount; ++l) EXPECT_EQ(a[r][l], b[r][l]);
    }
  }

  {
    const auto a = mat.top_error_codes(10);
    const auto b = str.top_error_codes(10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].cause, b[i].cause) << "rank " << i;
      EXPECT_EQ(a[i].count, b[i].count) << "rank " << i;
      EXPECT_EQ(a[i].percent, b[i].percent) << "rank " << i;
    }
  }

  for (const auto& [from, to] :
       {std::pair{Rat::k2G, Rat::k3G}, {Rat::k3G, Rat::k4G}, {Rat::k4G, Rat::k5G}}) {
    const auto a = mat.transition_increase(from, to);
    const auto b = str.transition_increase(from, to);
    for (std::size_t i = 0; i < kSignalLevelCount; ++i) {
      for (std::size_t j = 0; j < kSignalLevelCount; ++j) {
        EXPECT_EQ(a[i][j], b[i][j]) << "transition cell " << i << "," << j;
      }
    }
  }

  {
    const auto a = mat.filter_score();
    const auto b = str.filter_score();
    EXPECT_EQ(a.true_positives, b.true_positives);
    EXPECT_EQ(a.false_negatives, b.false_negatives);
    EXPECT_EQ(a.false_positives, b.false_positives);
    EXPECT_EQ(a.true_negatives, b.true_negatives);
  }

  EXPECT_EQ(mat.total_records(), str.total_records());
  EXPECT_EQ(mat.filtered_records(), str.filtered_records());
  EXPECT_EQ(mat.has_ground_truth(), str.has_ground_truth());
}

class StreamingCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override { ::unsetenv("CELLREL_THREADS"); }
};

TEST_F(StreamingCampaignTest, EveryTableBitIdenticalAcrossSeedsAndThreads) {
  for (const std::uint64_t seed : {11ULL, 71ULL, 2021ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CampaignResult materialized = Campaign(streaming_scenario(seed, 1)).run();
    ASSERT_FALSE(materialized.dataset.records.empty());
    ASSERT_FALSE(materialized.dataset.devices.empty());
    // Every campaign folds at merge time; a materialized run additionally
    // carries the dataset, and both adapters agree on it.
    ASSERT_NE(materialized.stream, nullptr);
    const Aggregator mat(materialized.dataset);
    expect_equivalent(mat, *materialized.stream);
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      Scenario sc = streaming_scenario(seed, threads);
      sc.stream = true;
      const CampaignResult streamed = Campaign(sc).run();
      ASSERT_NE(streamed.stream, nullptr);
      // Streaming mode never materializes the merged dataset.
      EXPECT_TRUE(streamed.dataset.records.empty());
      EXPECT_TRUE(streamed.dataset.devices.empty());
      expect_equivalent(mat, *streamed.stream);
      // Fleet/BS metadata survive on the aggregator instead.
      EXPECT_EQ(streamed.stream->devices().size(), materialized.dataset.devices.size());
      EXPECT_EQ(streamed.stream->base_stations().size(),
                materialized.dataset.base_stations.size());
    }
  }
}

TEST_F(StreamingCampaignTest, SpillPathEquallyBitIdentical) {
  const std::filesystem::path spill_dir =
      std::filesystem::temp_directory_path() / "cellrel_streaming_spill_test";
  std::filesystem::remove_all(spill_dir);

  const CampaignResult materialized = Campaign(streaming_scenario(71, 1)).run();
  const Aggregator mat(materialized.dataset);

  Scenario sc = streaming_scenario(71, 4);
  sc.stream = true;
  sc.spill_dir = spill_dir.string();
  const CampaignResult spilled = Campaign(sc).run();
  ASSERT_NE(spilled.stream, nullptr);
  expect_equivalent(mat, *spilled.stream);

  // One spill file per shard (ceil(300 / 64) = 5).
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_TRUE(std::filesystem::exists(spill_dir / spill_shard_file(s))) << "shard " << s;
  }
  std::filesystem::remove_all(spill_dir);
}

TEST_F(StreamingCampaignTest, FullReportAndMetricsByteIdentical) {
  const CampaignResult materialized = Campaign(streaming_scenario(11, 1)).run();
  Scenario sc = streaming_scenario(11, 4);
  sc.stream = true;
  const CampaignResult streamed = Campaign(sc).run();
  ASSERT_NE(streamed.stream, nullptr);

  EXPECT_EQ(render_full_report(Aggregator(materialized.dataset)),
            render_full_report(*streamed.stream));
  // The default metric export (wall timers and process.* accounting
  // excluded) is byte-identical across execution modes.
  EXPECT_EQ(obs::metrics_to_json(materialized.metrics),
            obs::metrics_to_json(streamed.metrics));
  EXPECT_EQ(obs::metrics_to_csv(materialized.metrics),
            obs::metrics_to_csv(streamed.metrics));
  // Both modes published the deterministic dataplane counters.
  EXPECT_GT(streamed.metrics.counters().at("dataplane.records_batched").value, 0u);
  EXPECT_GT(streamed.metrics.counters().at("dataplane.batches").value, 0u);
  EXPECT_EQ(streamed.metrics.counters().at("dataplane.records_batched").value,
            materialized.metrics.counters().at("dataplane.records_batched").value);
  // Host-process accounting exists but only in the opt-in export.
  ASSERT_EQ(streamed.metrics.gauges().count("process.dataplane.peak_batch_bytes"), 1u);
  obs::ExportOptions with_process;
  with_process.include_process = true;
  EXPECT_NE(obs::metrics_to_json(streamed.metrics, with_process)
                .find("process.dataplane.peak_batch_bytes"),
            std::string::npos);
}

TEST_F(StreamingCampaignTest, StreamOutExportMatchesMaterializedBytes) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "cellrel_stream_out_test";
  std::filesystem::remove_all(base);
  const std::filesystem::path mat_dir = base / "materialized";
  const std::filesystem::path stream_dir = base / "streamed";

  const CampaignResult materialized = Campaign(streaming_scenario(71, 1)).run();
  write_dataset_csv(materialized.dataset, mat_dir);

  Scenario sc = streaming_scenario(71, 4);
  sc.stream = true;
  sc.out_dir = stream_dir.string();
  const CampaignResult streamed = Campaign(sc).run();
  ASSERT_NE(streamed.stream, nullptr);

  // The shared tables are byte-identical to the materialized export.
  auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << p;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  // Every table — the transition/dwell samples included — is byte-identical
  // to the materialized export.
  for (const char* name : {DatasetFiles::kRecords, DatasetFiles::kDevices,
                           DatasetFiles::kBaseStations, DatasetFiles::kConnectedTime,
                           DatasetFiles::kTransitions, DatasetFiles::kDwells}) {
    SCOPED_TRACE(name);
    EXPECT_EQ(slurp(mat_dir / name), slurp(stream_dir / name));
  }
  ASSERT_FALSE(materialized.dataset.transitions.empty());
  ASSERT_FALSE(materialized.dataset.dwells.empty());

  // The streamed directory round-trips through the reader, and Fig. 17 read
  // back from it equals the materialized campaign's.
  const TraceDataset reloaded = read_dataset_csv(stream_dir);
  EXPECT_EQ(reloaded.records.size(), materialized.dataset.records.size());
  EXPECT_EQ(reloaded.devices.size(), materialized.dataset.devices.size());
  EXPECT_EQ(reloaded.transitions.size(), materialized.dataset.transitions.size());
  EXPECT_EQ(reloaded.dwells.size(), materialized.dataset.dwells.size());
  const query::QuerySpec fig17 = query::find_preset("fig17").value();
  EXPECT_EQ(query::query_result_to_json(query::execute_over_dataset(reloaded, fig17)),
            query::query_result_to_json(
                query::execute_over_dataset(materialized.dataset, fig17)));
  std::filesystem::remove_all(base);
}

TEST_F(StreamingCampaignTest, StreamingBoundsResidentAggregationState) {
  Scenario sc = streaming_scenario(11, 1);
  sc.stream = true;
  const CampaignResult streamed = Campaign(sc).run();
  ASSERT_NE(streamed.stream, nullptr);
  // The aggregation state is a small multiple of the kept-record count
  // (duration samples dominate at 16 bytes per kept record), far below the
  // materialized dataset's footprint.
  const CampaignResult materialized = Campaign(streaming_scenario(11, 1)).run();
  const std::size_t materialized_bytes =
      materialized.dataset.records.capacity() * sizeof(TraceRecord);
  EXPECT_LT(streamed.stream->resident_bytes(), materialized_bytes / 2);
}

}  // namespace
}  // namespace cellrel

// Query engine contract tests.
//
// The core claim (DESIGN.md §12): one QuerySpec produces byte-identical
// results from every record source — the materialized in-memory dataset, a
// dataset directory's CSVs, per-shard spill CSVs, and the live batch stream
// of a streaming campaign merge — across seeds and thread counts. JSON and
// CSV exports are compared as whole strings, so every count, double, label
// and row order is covered at once.
//
// The presets must also reproduce the legacy figure renderers: fig2/fig5
// byte-equal to the render_series output the bench builds from
// Aggregator::by_model, fig17 byte-equal to render_transition_matrix over
// Aggregator::transition_increase (and the 5G->4G / 3G->4G matrices equal to
// it), table2 value-equal to top_error_codes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/csv_io.h"
#include "analysis/report.h"
#include "common/rng.h"
#include "device/phone_model.h"
#include "query/engine.h"
#include "query/export.h"
#include "query/presets.h"
#include "query/spec.h"
#include "workload/campaign.h"

namespace cellrel::query {
namespace {

Scenario query_scenario(std::uint64_t seed, std::uint32_t threads) {
  Scenario sc;
  sc.device_count = 300;  // > 4 shards at 64 devices/shard
  sc.deployment.bs_count = 1000;
  sc.campaign_days = 30.0;
  sc.seed = seed;
  sc.threads = threads;
  return sc;
}

/// The spec matrix under test: every preset plus custom specs covering each
/// aggregation with filters, record-keyed groups, and a time window.
std::vector<QuerySpec> all_specs() {
  std::vector<QuerySpec> specs;
  for (const PresetInfo& info : preset_table()) {
    specs.push_back(*find_preset(info.name));
  }
  const char* custom[] = {
      "name=pf4g agg=pf group=type rat=4G",
      "name=lvlcdf agg=cdf group=level type=Data_Stall",
      "name=bstop agg=topk group=bs k=7",
      "name=ratmix agg=breakdown group=rat since=3600 until=2000000",
      "name=ispwin agg=pf group=isp level=2",
      "name=t54 agg=transition from=5G to=4G",
      "name=t34 agg=transition from=3G to=4G",
  };
  for (const char* text : custom) {
    std::string error;
    const auto spec = parse_query_spec(text, &error);
    EXPECT_TRUE(spec.has_value()) << text << ": " << error;
    if (spec) specs.push_back(*spec);
  }
  return specs;
}

class QueryContractTest : public ::testing::Test {
 protected:
  void SetUp() override { ::unsetenv("CELLREL_THREADS"); }
};

TEST_F(QueryContractTest, SpecParseCanonicalRoundTrip) {
  const char* texts[] = {
      "agg=pf group=model series=frequency",
      "agg=cdf group=level type=Data_Stall since=10.5 until=99.25",
      "agg=topk group=cause k=5 type=Data_Setup_Error",
      "agg=transition from=4G to=5G",
      "agg=breakdown group=isp model=12 rat=5G level=3 bs=17 precision=4 bars=off",
  };
  for (const char* text : texts) {
    std::string error;
    const auto spec = parse_query_spec(text, &error);
    ASSERT_TRUE(spec.has_value()) << text << ": " << error;
    // to_string is canonical: parsing it back reproduces the same spelling.
    const std::string canonical = to_string(*spec);
    const auto reparsed = parse_query_spec(canonical, &error);
    ASSERT_TRUE(reparsed.has_value()) << canonical << ": " << error;
    EXPECT_EQ(to_string(*reparsed), canonical);
  }
}

TEST_F(QueryContractTest, SpecParseRejectsBadInput) {
  const char* bad[] = {
      "agg=nope",         "group=martians agg=pf",   "agg=pf k=zero",
      "agg=pf since=abc", "agg=pf type=Not_A_Type",  "agg=pf isp=ISP-Z",
      "agg=pf level=9",   "nonsense",
      // Window bounds use std::from_chars syntax.
      "agg=pf since=+1",  "agg=pf until=0x10",      "agg=pf since=1e400",
      // Transition matrices are fleet-wide: filters and groups are rejected.
      "agg=transition from=4G to=5G model=5",
      "agg=transition from=4G to=5G isp=ISP-B type=Data_Stall",
      "agg=transition group=model",
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(parse_query_spec(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // The transition rejection names the key it cannot honour.
  std::string error;
  EXPECT_FALSE(parse_query_spec("agg=transition isp=ISP-B type=Data_Stall", &error).has_value());
  EXPECT_NE(error.find("no isp"), std::string::npos) << error;
}

TEST_F(QueryContractTest, EveryPresetResolvesAndLists) {
  for (const PresetInfo& info : preset_table()) {
    const auto spec = find_preset(info.name);
    ASSERT_TRUE(spec.has_value()) << info.name;
    EXPECT_EQ(spec->name, info.name);
    // The row's spec text is canonical: it round-trips through to_string.
    EXPECT_EQ(to_string(*spec), info.spec);
    EXPECT_NE(render_preset_list().find(info.name), std::string::npos);
  }
  EXPECT_FALSE(find_preset("fig99").has_value());
}

TEST_F(QueryContractTest, EmptyInputProducesFullDomainRows) {
  // A pf query over no devices still emits the full group domain (all 34
  // models) with zero counts, so exports are schema-stable.
  TraceDataset empty;
  const QueryResult pf = execute_over_dataset(empty, *find_preset("fig2"));
  EXPECT_EQ(pf.pf.size(), phone_models().size());
  for (const auto& row : pf.pf) {
    EXPECT_EQ(row.devices, 0u);
    EXPECT_EQ(row.prevalence, 0.0);
  }
  const QueryResult top = execute_over_dataset(empty, *find_preset("table2"));
  EXPECT_TRUE(top.top.empty());
}

// The tentpole contract: every aggregation, exact-equal between spill-CSV,
// materialized, dataset-directory and streaming execution across 3 seeds x
// {1,2,4} threads, compared as whole JSON + CSV strings.
TEST_F(QueryContractTest, AllSourcesByteIdenticalAcrossSeedsAndThreads) {
  const std::vector<QuerySpec> specs = all_specs();
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "cellrel_query_contract_test";
  std::filesystem::remove_all(base);

  for (const std::uint64_t seed : {11ULL, 71ULL, 2021ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    // Reference: inline queries over the threads=1 materialized merge.
    Scenario ref_sc = query_scenario(seed, 1);
    ref_sc.inline_queries = specs;
    const CampaignResult ref = Campaign(ref_sc).run();
    ASSERT_EQ(ref.query_results.size(), specs.size());
    std::vector<std::string> ref_json, ref_csv;
    for (const QueryResult& qr : ref.query_results) {
      ref_json.push_back(query_result_to_json(qr));
      ref_csv.push_back(query_result_to_csv(qr));
    }

    // Dataset-directory source: write the reference dataset out, read it
    // back, execute offline.
    const std::filesystem::path ds_dir = base / ("ds-" + std::to_string(seed));
    write_dataset_csv(ref.dataset, ds_dir);
    const TraceDataset reread = read_dataset_csv(ds_dir);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("dataset-dir spec " + specs[i].name);
      const QueryResult qr = execute_over_dataset(reread, specs[i]);
      EXPECT_EQ(query_result_to_json(qr), ref_json[i]);
      EXPECT_EQ(query_result_to_csv(qr), ref_csv[i]);
    }

    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));

      // Materialized merge at this thread count.
      Scenario mat_sc = query_scenario(seed, threads);
      mat_sc.inline_queries = specs;
      const CampaignResult mat = Campaign(mat_sc).run();
      ASSERT_EQ(mat.query_results.size(), specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(query_result_to_json(mat.query_results[i]), ref_json[i])
            << "materialized spec " << specs[i].name;
      }

      // Streaming merge with spill at this thread count.
      const std::filesystem::path spill_dir =
          base / ("spill-" + std::to_string(seed) + "-" + std::to_string(threads));
      Scenario str_sc = query_scenario(seed, threads);
      str_sc.stream = true;
      str_sc.spill_dir = spill_dir.string();
      str_sc.inline_queries = specs;
      const CampaignResult streamed = Campaign(str_sc).run();
      ASSERT_EQ(streamed.query_results.size(), specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(query_result_to_json(streamed.query_results[i]), ref_json[i])
            << "streaming spec " << specs[i].name;
        EXPECT_EQ(query_result_to_csv(streamed.query_results[i]), ref_csv[i])
            << "streaming spec " << specs[i].name;
      }

      // Spill-CSV source: re-execute from the shard files the streaming run
      // left behind, sidecars from the exported dataset directory.
      const TraceDataset sidecars = read_dataset_sidecars_csv(ds_dir);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spill spec " + specs[i].name);
        const QueryResult qr = execute_over_spill(spill_dir, sidecars, specs[i]);
        EXPECT_EQ(query_result_to_json(qr), ref_json[i]);
        EXPECT_EQ(query_result_to_csv(qr), ref_csv[i]);
      }
    }
  }
  std::filesystem::remove_all(base);
}

// Preset-vs-legacy-renderer golden equivalence: the preset's text output is
// byte-equal to what the bench renderers produce from the Aggregator.
TEST_F(QueryContractTest, PresetsReproduceLegacyRenderers) {
  const CampaignResult result = Campaign(query_scenario(71, 1)).run();
  const Aggregator agg(result.dataset);

  {  // fig2: prevalence per model through render_series, default options.
    const auto by_model = agg.by_model();
    Series legacy;
    legacy.name = "fig2";
    for (const auto& spec : phone_models()) {
      legacy.labels.push_back("model " + std::to_string(spec.model_id));
      const auto it = by_model.find(spec.model_id);
      legacy.values.push_back(it != by_model.end() ? it->second.prevalence() : 0.0);
    }
    const QueryResult qr = execute_over_dataset(result.dataset, *find_preset("fig2"));
    EXPECT_EQ(query_result_to_text(qr), render_series(legacy));
  }

  {  // fig5: frequency per model, precision 1 (the bench's option).
    const auto by_model = agg.by_model();
    Series legacy;
    legacy.name = "fig5";
    for (const auto& spec : phone_models()) {
      legacy.labels.push_back("model " + std::to_string(spec.model_id));
      const auto it = by_model.find(spec.model_id);
      legacy.values.push_back(it != by_model.end() ? it->second.frequency() : 0.0);
    }
    const QueryResult qr = execute_over_dataset(result.dataset, *find_preset("fig5"));
    EXPECT_EQ(query_result_to_text(qr), render_series(legacy, {.precision = 1}));
  }

  {  // fig6/fig7: non-5G vs 5G cohorts, byte-equal to render_series over
     // the legacy Aggregator::by_5g_capability split.
    const auto by5g = agg.by_5g_capability(false);
    Series prev, freq;
    prev.name = "fig6";
    freq.name = "fig7";
    const char* labels[] = {"non-5G models", "5G models"};
    for (std::size_t b = 0; b < 2; ++b) {
      prev.labels.push_back(labels[b]);
      prev.values.push_back(by5g[b].prevalence());
      freq.labels.push_back(labels[b]);
      freq.values.push_back(by5g[b].frequency());
    }
    const QueryResult q6 = execute_over_dataset(result.dataset, *find_preset("fig6"));
    EXPECT_EQ(query_result_to_text(q6), render_series(prev));
    const QueryResult q7 = execute_over_dataset(result.dataset, *find_preset("fig7"));
    EXPECT_EQ(query_result_to_text(q7), render_series(freq, {.precision = 1}));
  }

  {  // fig8/fig9: Android 9 vs 10 cohorts against by_android_version.
    const auto by_android = agg.by_android_version(false);
    Series prev, freq;
    prev.name = "fig8";
    freq.name = "fig9";
    const char* labels[] = {"Android 9", "Android 10"};
    for (std::size_t b = 0; b < 2; ++b) {
      prev.labels.push_back(labels[b]);
      prev.values.push_back(by_android[b].prevalence());
      freq.labels.push_back(labels[b]);
      freq.values.push_back(by_android[b].frequency());
    }
    const QueryResult q8 = execute_over_dataset(result.dataset, *find_preset("fig8"));
    EXPECT_EQ(query_result_to_text(q8), render_series(prev));
    const QueryResult q9 = execute_over_dataset(result.dataset, *find_preset("fig9"));
    EXPECT_EQ(query_result_to_text(q9), render_series(freq, {.precision = 1}));
  }

  {  // fig11: the Zipf head — top BSes by kept failures, value-equal to a
     // legacy-style ranking built straight off the dataset (count
     // descending, BS index ascending, the top_error_codes tiebreak).
    std::map<BsIndex, std::uint64_t> per_bs;
    std::uint64_t total = 0;
    result.dataset.for_each_kept([&](const TraceRecord& r) {
      ++per_bs[r.bs];
      ++total;
    });
    std::vector<std::pair<BsIndex, std::uint64_t>> ranked(per_bs.begin(), per_bs.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (ranked.size() > 10) ranked.resize(10);
    const QueryResult qr = execute_over_dataset(result.dataset, *find_preset("fig11"));
    ASSERT_EQ(qr.top.size(), ranked.size());
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      EXPECT_EQ(qr.top[i].key, "bs " + std::to_string(ranked[i].first)) << "rank " << i;
      EXPECT_EQ(qr.top[i].count, ranked[i].second) << "rank " << i;
      EXPECT_EQ(qr.top[i].percent, 100.0 * static_cast<double>(ranked[i].second) /
                                       static_cast<double>(total))
          << "rank " << i;
    }
  }

  {  // fig17: the 4G->5G transition heatmap, legacy panel title.
    const QueryResult qr = execute_over_dataset(result.dataset, *find_preset("fig17"));
    EXPECT_EQ(query_result_to_text(qr),
              render_transition_matrix(agg.transition_increase(Rat::k4G, Rat::k5G),
                                       "4G level-i -> 5G level-j"));
  }

  // Two more RAT pairs: the query matrix equals transition_increase.
  for (const char* text :
       {"name=t54 agg=transition from=5G to=4G", "name=t34 agg=transition from=3G to=4G"}) {
    SCOPED_TRACE(text);
    const auto spec = parse_query_spec(text, nullptr);
    ASSERT_TRUE(spec.has_value());
    const QueryResult qr = execute_over_dataset(result.dataset, *spec);
    EXPECT_EQ(qr.matrix, agg.transition_increase(spec->from_rat, spec->to_rat));
  }

  {  // table2: top error codes, value-equal to Aggregator::top_error_codes.
    const QueryResult qr = execute_over_dataset(result.dataset, *find_preset("table2"));
    const auto legacy = agg.top_error_codes(10);
    ASSERT_EQ(qr.top.size(), legacy.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(qr.top[i].key, std::string(to_string(legacy[i].cause))) << "rank " << i;
      EXPECT_EQ(qr.top[i].count, legacy[i].count) << "rank " << i;
      EXPECT_EQ(qr.top[i].percent, legacy[i].percent) << "rank " << i;
    }
  }
}

TEST_F(QueryContractTest, FiltersRestrictTheRecordStream) {
  const CampaignResult result = Campaign(query_scenario(11, 1)).run();

  // A type filter must reproduce the breakdown's own per-type count.
  const QueryResult mix = execute_over_dataset(result.dataset, *find_preset("fig3"));
  ASSERT_EQ(mix.breakdown.size(), 1u);
  std::string error;
  const auto stalls =
      parse_query_spec("name=stalls agg=breakdown type=Data_Stall", &error);
  ASSERT_TRUE(stalls.has_value()) << error;
  const QueryResult only_stalls = execute_over_dataset(result.dataset, *stalls);
  ASSERT_EQ(only_stalls.breakdown.size(), 1u);
  EXPECT_EQ(only_stalls.breakdown[0].total,
            mix.breakdown[0].counts[index_of(FailureType::kDataStall)]);
  for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
    if (t == index_of(FailureType::kDataStall)) continue;
    EXPECT_EQ(only_stalls.breakdown[0].counts[t], 0u);
  }

  // An impossible window keeps the domain but zeroes every count.
  const auto never = parse_query_spec("agg=pf group=isp since=1e18", &error);
  ASSERT_TRUE(never.has_value()) << error;
  const QueryResult empty = execute_over_dataset(result.dataset, *never);
  ASSERT_EQ(empty.pf.size(), kIspCount);
  for (const auto& row : empty.pf) {
    EXPECT_EQ(row.failures, 0u);
    EXPECT_GT(row.devices, 0u);  // device-level domain is unfiltered
  }
}

TEST_F(QueryContractTest, TopKOrdersByCountThenId) {
  const CampaignResult result = Campaign(query_scenario(2021, 1)).run();
  std::string error;
  const auto spec = parse_query_spec("agg=topk group=bs k=12", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const QueryResult qr = execute_over_dataset(result.dataset, *spec);
  ASSERT_LE(qr.top.size(), 12u);
  ASSERT_FALSE(qr.top.empty());
  for (std::size_t i = 1; i < qr.top.size(); ++i) {
    const bool ordered = qr.top[i - 1].count > qr.top[i].count ||
                         (qr.top[i - 1].count == qr.top[i].count &&
                          qr.top[i - 1].id < qr.top[i].id);
    EXPECT_TRUE(ordered) << "rank " << i;
  }
}

/// The %.3f text round trip of records.csv, written out here so the test
/// does not lean on the engine's own fallback.
double printed_seconds_reference(std::int64_t us) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1e6);
  return std::strtod(buf, nullptr);
}

TEST(CanonicalSecondsTest, EqualsPrintedTextBitForBit) {
  constexpr std::int64_t kMaxUs = 240LL * 86400 * 1000000;  // a 240-day campaign
  std::size_t mismatches = 0;
  std::size_t checked = 0;
  const auto check = [&](std::int64_t us) {
    ++checked;
    if (std::bit_cast<std::uint64_t>(canonical_seconds(us)) !=
        std::bit_cast<std::uint64_t>(printed_seconds_reference(us))) {
      if (++mismatches <= 10) ADD_FAILURE() << "us=" << us;
    }
  };

  check(0);
  check(kMaxUs);
  // The exactly representable .500 ties printf rounds half to even.
  EXPECT_EQ(canonical_seconds(62500), 0.062);
  EXPECT_EQ(canonical_seconds(187500), 0.188);
  check(62500);
  check(187500);
  for (const std::int64_t us : {std::int64_t{-1}, std::int64_t{-500}, std::int64_t{-62500},
                                std::int64_t{-1234567}, -kMaxUs}) {
    check(us);
  }
  // Beyond the integer path's range the text path answers.
  check(std::int64_t{1} << 52);
  check((std::int64_t{1} << 52) + 1500);

  // Every ...499/...500/...501 residue and the value 1 us short of the grid
  // (what SimTime::from_seconds reads back from records.csv), at both ends
  // of the campaign range.
  for (const std::int64_t base_ms : {std::int64_t{0}, kMaxUs / 1000 - 100000}) {
    for (std::int64_t ms = base_ms; ms < base_ms + 100000; ++ms) {
      const std::int64_t us = ms * 1000;
      check(us + 499);
      check(us + 500);
      check(us + 501);
      if (us > 0) check(us - 1);
    }
  }

  Rng rng(20200101);
  for (int i = 0; i < 1000000; ++i) check(rng.uniform_int(0, kMaxUs));

  EXPECT_EQ(mismatches, 0u) << "of " << checked;
  EXPECT_GT(checked, 1600000u);
}

/// One device, one BS per record: a `topk group=bs` result names exactly
/// which records a window kept.
TraceDataset window_dataset(const std::vector<std::int64_t>& at_us) {
  TraceDataset ds;
  ds.devices.push_back(
      DeviceMeta{1, phone_models()[0].model_id, IspId::kIspA, false, AndroidVersion::kAndroid10});
  for (std::size_t i = 0; i < at_us.size(); ++i) {
    const auto bs = static_cast<BsIndex>(i);
    ds.base_stations.push_back(BsMeta{bs, IspId::kIspA, 1, LocationClass::kUrban, 0});
    TraceRecord r;
    r.device = 1;
    r.model_id = phone_models()[0].model_id;
    r.bs = bs;
    r.apn = "cmnet";
    r.at = SimTime::origin() + SimDuration::microseconds(at_us[i]);
    r.duration = SimDuration::microseconds(1500000);
    ds.records.push_back(r);
  }
  return ds;
}

TEST_F(QueryContractTest, TimeWindowKeepsSinceDropsUntilOnEverySource) {
  constexpr std::int64_t kSinceUs = 3600250000;  // since=3600.25
  constexpr std::int64_t kUntilUs = 7200500000;  // until=7200.5
  // Quantized to the ms grid first: 1 us either side of a bound lands on it.
  const std::vector<std::int64_t> at_us = {
      kSinceUs - 1000,  // 0: out
      kSinceUs - 501,   // 1: rounds to since - 1 ms, out
      kSinceUs - 499,   // 2: rounds to since, in
      kSinceUs - 1,     // 3: in
      kSinceUs,         // 4: in (since is inclusive)
      kSinceUs + 1,     // 5: in
      kUntilUs - 1000,  // 6: in
      kUntilUs - 1,     // 7: rounds to until, out
      kUntilUs,         // 8: out (until is exclusive)
      kUntilUs + 1,     // 9: out
  };
  const TraceDataset ds = window_dataset(at_us);
  std::string error;
  const auto spec = parse_query_spec("agg=topk group=bs k=20 since=3600.25 until=7200.5", &error);
  ASSERT_TRUE(spec.has_value()) << error;

  const QueryResult mem = execute_over_dataset(ds, *spec);
  std::vector<std::int64_t> kept;
  for (const auto& row : mem.top) kept.push_back(row.id);
  EXPECT_EQ(kept, (std::vector<std::int64_t>{2, 3, 4, 5, 6}));
  const std::string json = query_result_to_json(mem);

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "cellrel_query_window_test";
  std::filesystem::remove_all(base);
  write_dataset_csv(ds, base / "ds");
  EXPECT_EQ(query_result_to_json(execute_over_dataset(read_dataset_csv(base / "ds"), *spec)), json);

  std::filesystem::create_directories(base / "spill");
  {
    StringPool apns;
    RecordBatch batch(ds.records.size());
    for (const TraceRecord& r : ds.records) batch.push(r, apns);
    BatchSpillWriter writer(base / "spill" / spill_shard_file(0));
    writer.write(batch, apns);
    writer.close();
  }
  EXPECT_EQ(query_result_to_json(execute_over_spill(base / "spill", ds, *spec)), json);
  std::filesystem::remove_all(base);
}

DeviceMeta device_of_model(DeviceId id, int model_id) {
  return DeviceMeta{id, model_id, IspId::kIspA, false, AndroidVersion::kAndroid10};
}

TraceRecord record_of(DeviceId device) {
  TraceRecord r;
  r.device = device;
  r.bs = 0;
  r.apn = "cmnet";
  return r;
}

/// (model id, kept failures) of a `breakdown group=model` result.
std::vector<std::pair<std::int64_t, std::uint64_t>> failures_by_model(const QueryResult& qr) {
  std::vector<std::pair<std::int64_t, std::uint64_t>> out;
  for (const auto& row : qr.breakdown) out.emplace_back(row.id, row.total);
  return out;
}

TEST_F(QueryContractTest, SparseDeviceIdsReadBackFromDevicesCsv) {
  // A hand-written fleet: ids with gaps and one at 2^40. A table sized by
  // the largest id would need ~26 TB.
  constexpr DeviceId kHuge = DeviceId{1} << 40;
  TraceDataset ds;
  const int m0 = phone_models()[0].model_id;
  const int m1 = phone_models()[1].model_id;
  const int m2 = phone_models()[2].model_id;
  ds.devices = {device_of_model(1, m0), device_of_model(3, m1), device_of_model(4, m0),
                device_of_model(kHuge, m2)};
  ds.base_stations.push_back(BsMeta{0, IspId::kIspA, 1, LocationClass::kUrban, 0});
  for (const DeviceId id : {kHuge, DeviceId{3}, DeviceId{3}, DeviceId{1}, kHuge, kHuge}) {
    ds.records.push_back(record_of(id));
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cellrel_query_sparse_ids_test";
  std::filesystem::remove_all(dir);
  write_dataset_csv(ds, dir);
  const TraceDataset reread = read_dataset_csv(dir);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(reread.devices.size(), 4u);
  EXPECT_EQ(reread.devices.back().id, kHuge);

  std::string error;
  const auto by_model = parse_query_spec("agg=breakdown group=model", &error);
  ASSERT_TRUE(by_model.has_value()) << error;
  std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {{m0, 1}, {m1, 2}, {m2, 3}};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(failures_by_model(execute_over_dataset(reread, *by_model)), expected);

  const auto pf = parse_query_spec("agg=pf group=bs", &error);
  ASSERT_TRUE(pf.has_value()) << error;
  const QueryResult pf_result = execute_over_dataset(reread, *pf);
  ASSERT_EQ(pf_result.pf.size(), 1u);
  EXPECT_EQ(pf_result.pf[0].devices, 4u);
  EXPECT_EQ(pf_result.pf[0].failing_devices, 3u);
  EXPECT_EQ(pf_result.pf[0].failures, 6u);
}

TEST_F(QueryContractTest, DuplicateDeviceKeepsFirstEntry) {
  const int m0 = phone_models()[0].model_id;
  const int m1 = phone_models()[1].model_id;
  std::string error;
  const auto by_model = parse_query_spec("agg=breakdown group=model", &error);
  ASSERT_TRUE(by_model.has_value()) << error;

  QueryExecutor executor(*by_model);
  const std::vector<DeviceMeta> first = {device_of_model(3, m0), device_of_model(5, m0)};
  // A later span repeats 5 and 3 (out of order, so the table is re-sorted)
  // and repeats 7 within itself: the entry added first wins every time.
  const std::vector<DeviceMeta> second = {device_of_model(7, m0), device_of_model(5, m1),
                                          device_of_model(7, m1), device_of_model(3, m1)};
  executor.add_devices(first);
  executor.add_devices(second);
  for (const DeviceId id : {DeviceId{3}, DeviceId{5}, DeviceId{7}}) {
    executor.ingest(RecordBatch::row_of(record_of(id)));
  }
  const std::vector<std::pair<std::int64_t, std::uint64_t>> expected = {{m0, 3}};
  EXPECT_EQ(failures_by_model(executor.result()), expected);

  // The pf denominators count each device once.
  const auto pf = parse_query_spec("agg=pf", &error);
  ASSERT_TRUE(pf.has_value()) << error;
  QueryExecutor pf_executor(*pf);
  pf_executor.add_devices(first);
  pf_executor.add_devices(second);
  const QueryResult pf_result = pf_executor.result();
  ASSERT_EQ(pf_result.pf.size(), 1u);
  EXPECT_EQ(pf_result.pf[0].devices, 3u);
}

TEST_F(QueryContractTest, ForeignRecordsAreRejectedNotSkipped) {
  TraceDataset sidecars;
  sidecars.devices.push_back(DeviceMeta{4, 1, IspId::kIspA, false, AndroidVersion::kAndroid10});
  sidecars.base_stations.push_back(BsMeta{0, IspId::kIspA, 1, LocationClass::kUrban, 0});
  TraceRecord r;
  r.device = 4;
  r.bs = 0;
  r.apn = "cmnet";
  TraceRecord foreign = r;
  foreign.device = 77777;

  const QuerySpec spec = *find_preset("fig3");
  QueryExecutor executor(spec);
  executor.add_devices(sidecars.devices);
  executor.ingest(RecordBatch::row_of(r));
  std::string message;
  try {
    executor.ingest(RecordBatch::row_of(foreign));
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "query: record of device 77777 has no device metadata");

  // A spill row pointing outside the sidecars names its file, row and field.
  const std::filesystem::path spill_dir =
      std::filesystem::temp_directory_path() / "cellrel_query_foreign_test";
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);
  {
    StringPool apns;
    RecordBatch batch(4);
    batch.push(r, apns);
    batch.push(foreign, apns);
    BatchSpillWriter writer(spill_dir / spill_shard_file(0));
    writer.write(batch, apns);
    writer.close();
  }
  std::string error;
  try {
    execute_over_spill(spill_dir, sidecars, spec);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  std::filesystem::remove_all(spill_dir);
  EXPECT_NE(error.find("row 2 in "), std::string::npos) << error;
  EXPECT_NE(error.find("shard-0.csv"), std::string::npos) << error;
  EXPECT_NE(error.find("device 77777"), std::string::npos) << error;
}

}  // namespace
}  // namespace cellrel::query

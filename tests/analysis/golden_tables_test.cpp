// Golden §3 table dumps: every Aggregator accessor of the 300-device
// streaming_scenario at seeds 11, 71 and 2021, printed at %.17g and pinned
// byte for byte in tests/analysis/golden/aggregate_tables_seed<N>.txt.
//
// The goldens were written once by the materialized-dataset aggregator that
// preceded the single fold (dump_tables below, compiled against that
// implementation, over Campaign(streaming_scenario(seed, 1)).run().dataset).
// They are an external reference: never regenerate them from the code under
// test. Each file must be reproduced from three sources — Aggregator(dataset)
// of a materialized run, the in-memory batch fold at threads 1/2/4, and the
// fold over spill re-reads.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/aggregate.h"
#include "workload/campaign.h"

namespace cellrel {
namespace {

Scenario golden_scenario(std::uint64_t seed, std::uint32_t threads) {
  Scenario sc;
  sc.device_count = 300;
  sc.deployment.bs_count = 1000;
  sc.seed = seed;
  sc.threads = threads;
  return sc;
}

void appendf(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
}

void dump_pf(std::string& out, const std::string& name, const PrevalenceFrequency& pf) {
  appendf(out, "%s devices=%llu failing=%llu failures=%llu\n", name.c_str(),
          static_cast<unsigned long long>(pf.devices),
          static_cast<unsigned long long>(pf.failing_devices),
          static_cast<unsigned long long>(pf.failures));
}

void dump_samples(std::string& out, const std::string& name, const SampleSet& s) {
  appendf(out, "%s n=%zu:", name.c_str(), s.size());
  for (const double v : s.sorted()) appendf(out, " %.17g", v);
  out += "\n";
}

/// Every accessor of the aggregation surface, in a fixed order.
std::string dump_tables(const Aggregator& agg) {
  std::string out;
  dump_pf(out, "overall", agg.overall());
  for (const auto& [model, pf] : agg.by_model()) dump_pf(out, "model " + std::to_string(model), pf);
  for (const bool android10_only : {false, true}) {
    const auto s = agg.by_5g_capability(android10_only);
    for (std::size_t i = 0; i < s.size(); ++i) {
      dump_pf(out, "5g android10_only=" + std::to_string(android10_only) + " [" +
                       std::to_string(i) + "]",
              s[i]);
    }
  }
  for (const bool exclude_5g : {false, true}) {
    const auto s = agg.by_android_version(exclude_5g);
    for (std::size_t i = 0; i < s.size(); ++i) {
      dump_pf(out, "android exclude_5g=" + std::to_string(exclude_5g) + " [" +
                       std::to_string(i) + "]",
              s[i]);
    }
  }
  const auto isps = agg.by_isp();
  for (std::size_t i = 0; i < isps.size(); ++i) dump_pf(out, "isp " + std::to_string(i), isps[i]);

  out += "mean_failures_per_device_by_type:";
  for (const double v : agg.mean_failures_per_device_by_type()) appendf(out, " %.17g", v);
  out += "\n";
  const auto per_device = agg.per_device_counts();
  dump_samples(out, "per_device total", per_device.total);
  for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
    dump_samples(out, "per_device type " + std::to_string(t), per_device.by_type[t]);
  }

  dump_samples(out, "durations_all", agg.durations_all());
  for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
    dump_samples(out, "durations_of " + std::to_string(t),
                 agg.durations_of(static_cast<FailureType>(t)));
  }
  out += "duration_share_by_type:";
  for (const double v : agg.duration_share_by_type()) appendf(out, " %.17g", v);
  out += "\n";

  const ZipfFit fit = agg.bs_zipf_fit();
  appendf(out, "bs_zipf_fit a=%.17g b=%.17g r2=%.17g\n", fit.a, fit.b, fit.r_squared);
  const auto rank = agg.bs_ranking_stats();
  appendf(out, "bs_ranking_stats median=%llu mean=%.17g max=%llu with_failures=%llu total=%llu\n",
          static_cast<unsigned long long>(rank.median), rank.mean,
          static_cast<unsigned long long>(rank.max),
          static_cast<unsigned long long>(rank.with_failures),
          static_cast<unsigned long long>(rank.total));
  out += "bs_prevalence_by_rat:";
  for (const double v : agg.bs_prevalence_by_rat()) appendf(out, " %.17g", v);
  out += "\n";

  out += "normalized_prevalence_by_level:";
  for (const double v : agg.normalized_prevalence_by_level()) appendf(out, " %.17g", v);
  out += "\n";
  const auto by_rat_level = agg.normalized_prevalence_by_rat_level();
  for (std::size_t r = 0; r < by_rat_level.size(); ++r) {
    appendf(out, "normalized_prevalence rat %zu:", r);
    for (const double v : by_rat_level[r]) appendf(out, " %.17g", v);
    out += "\n";
  }

  for (const auto& code : agg.top_error_codes(10)) {
    appendf(out, "top_error_code cause=%d count=%llu percent=%.17g\n",
            static_cast<int>(code.cause), static_cast<unsigned long long>(code.count),
            code.percent);
  }

  const std::pair<Rat, Rat> panels[] = {{Rat::k2G, Rat::k3G}, {Rat::k2G, Rat::k4G},
                                        {Rat::k2G, Rat::k5G}, {Rat::k3G, Rat::k4G},
                                        {Rat::k3G, Rat::k5G}, {Rat::k4G, Rat::k5G}};
  for (const auto& [from, to] : panels) {
    const auto m = agg.transition_increase(from, to);
    for (std::size_t i = 0; i < m.size(); ++i) {
      appendf(out, "transition %zu->%zu row %zu:", index_of(from), index_of(to), i);
      for (const double v : m[i]) appendf(out, " %.17g", v);
      out += "\n";
    }
  }

  const auto fs = agg.filter_score();
  appendf(out, "filter_score tp=%llu fn=%llu fp=%llu tn=%llu\n",
          static_cast<unsigned long long>(fs.true_positives),
          static_cast<unsigned long long>(fs.false_negatives),
          static_cast<unsigned long long>(fs.false_positives),
          static_cast<unsigned long long>(fs.true_negatives));
  appendf(out, "records total=%llu filtered=%llu has_ground_truth=%d\n",
          static_cast<unsigned long long>(agg.total_records()),
          static_cast<unsigned long long>(agg.filtered_records()),
          agg.has_ground_truth() ? 1 : 0);
  return out;
}

std::string read_golden(std::uint64_t seed) {
  const std::string path = std::string(CELLREL_ANALYSIS_GOLDEN_DIR) +
                           "/aggregate_tables_seed" + std::to_string(seed) + ".txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class GoldenTablesTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override { ::unsetenv("CELLREL_THREADS"); }
};

TEST_P(GoldenTablesTest, DatasetAdapterReproducesGolden) {
  const std::string golden = read_golden(GetParam());
  ASSERT_FALSE(golden.empty());
  const CampaignResult r = Campaign(golden_scenario(GetParam(), 1)).run();
  EXPECT_EQ(dump_tables(Aggregator(r.dataset)), golden);
}

TEST_P(GoldenTablesTest, BatchFoldReproducesGoldenAtEveryThreadCount) {
  const std::string golden = read_golden(GetParam());
  ASSERT_FALSE(golden.empty());
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Scenario sc = golden_scenario(GetParam(), threads);
    sc.stream = true;
    const CampaignResult r = Campaign(sc).run();
    ASSERT_NE(r.stream, nullptr);
    EXPECT_EQ(dump_tables(*r.stream), golden);
  }
}

TEST_P(GoldenTablesTest, SpillReReadReproducesGolden) {
  const std::string golden = read_golden(GetParam());
  ASSERT_FALSE(golden.empty());
  const std::filesystem::path spill_dir =
      std::filesystem::temp_directory_path() /
      ("cellrel_golden_spill_" + std::to_string(GetParam()));
  std::filesystem::remove_all(spill_dir);
  Scenario sc = golden_scenario(GetParam(), 4);
  sc.stream = true;
  sc.spill_dir = spill_dir.string();
  const CampaignResult r = Campaign(sc).run();
  ASSERT_NE(r.stream, nullptr);
  EXPECT_EQ(dump_tables(*r.stream), golden);
  std::filesystem::remove_all(spill_dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenTablesTest, ::testing::Values(11u, 71u, 2021u));

}  // namespace
}  // namespace cellrel

// Parallel campaign determinism: threads=K must produce a CampaignResult
// bit-identical to threads=1 — every trace field, every double, every
// counter. The shard partition is a pure function of the fleet, so this is
// an exact-equality contract, not a tolerance test.

#include "workload/campaign.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include <string>

#include "bs/cell_id.h"
#include "common/rng.h"
#include "obs/export.h"
#include "telephony/events.h"
#include "workload/calibration.h"

namespace cellrel {
namespace {

Scenario parallel_scenario(std::uint64_t seed, std::uint32_t threads) {
  Scenario sc;
  sc.device_count = 300;  // > 4 shards at 64 devices/shard
  sc.deployment.bs_count = 1000;
  sc.seed = seed;
  sc.threads = threads;
  return sc;
}

void expect_identical_records(const std::vector<TraceRecord>& a,
                              const std::vector<TraceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].device, b[i].device);
    EXPECT_EQ(a[i].model_id, b[i].model_id);
    EXPECT_EQ(a[i].isp, b[i].isp);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].at.since_origin().count_us(), b[i].at.since_origin().count_us());
    EXPECT_EQ(a[i].duration.count_us(), b[i].duration.count_us());
    EXPECT_EQ(a[i].duration_method, b[i].duration_method);
    EXPECT_EQ(a[i].rat, b[i].rat);
    EXPECT_EQ(a[i].level, b[i].level);
    EXPECT_EQ(a[i].bs, b[i].bs);
    EXPECT_EQ(cell_key(a[i].cell), cell_key(b[i].cell));
    EXPECT_EQ(a[i].apn, b[i].apn);
    EXPECT_EQ(a[i].cause, b[i].cause);
    EXPECT_EQ(a[i].filtered_false_positive, b[i].filtered_false_positive);
    EXPECT_EQ(a[i].probe_rounds, b[i].probe_rounds);
    EXPECT_EQ(a[i].ground_truth_fp, b[i].ground_truth_fp);
  }
}

void expect_identical_results(const CampaignResult& a, const CampaignResult& b) {
  expect_identical_records(a.dataset.records, b.dataset.records);

  ASSERT_EQ(a.dataset.devices.size(), b.dataset.devices.size());
  for (std::size_t i = 0; i < a.dataset.devices.size(); ++i) {
    EXPECT_EQ(a.dataset.devices[i].id, b.dataset.devices[i].id);
    EXPECT_EQ(a.dataset.devices[i].model_id, b.dataset.devices[i].model_id);
    EXPECT_EQ(a.dataset.devices[i].isp, b.dataset.devices[i].isp);
    EXPECT_EQ(a.dataset.devices[i].has_5g, b.dataset.devices[i].has_5g);
    EXPECT_EQ(a.dataset.devices[i].android, b.dataset.devices[i].android);
  }

  ASSERT_EQ(a.dataset.base_stations.size(), b.dataset.base_stations.size());
  for (std::size_t i = 0; i < a.dataset.base_stations.size(); ++i) {
    EXPECT_EQ(a.dataset.base_stations[i].index, b.dataset.base_stations[i].index);
    EXPECT_EQ(a.dataset.base_stations[i].failure_count,
              b.dataset.base_stations[i].failure_count)
        << "bs " << i;
  }

  // Exact double equality: the summation order is part of the contract.
  for (std::size_t r = 0; r < kRatCount; ++r) {
    for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
      EXPECT_EQ(a.dataset.connected_time.seconds[r][l],
                b.dataset.connected_time.seconds[r][l])
          << "rat " << r << " level " << l;
    }
  }

  ASSERT_EQ(a.dataset.transitions.size(), b.dataset.transitions.size());
  for (std::size_t i = 0; i < a.dataset.transitions.size(); ++i) {
    EXPECT_EQ(a.dataset.transitions[i].device, b.dataset.transitions[i].device);
    EXPECT_EQ(a.dataset.transitions[i].from_rat, b.dataset.transitions[i].from_rat);
    EXPECT_EQ(a.dataset.transitions[i].from_level, b.dataset.transitions[i].from_level);
    EXPECT_EQ(a.dataset.transitions[i].to_rat, b.dataset.transitions[i].to_rat);
    EXPECT_EQ(a.dataset.transitions[i].to_level, b.dataset.transitions[i].to_level);
    EXPECT_EQ(a.dataset.transitions[i].failure_within_window,
              b.dataset.transitions[i].failure_within_window);
  }

  ASSERT_EQ(a.dataset.dwells.size(), b.dataset.dwells.size());
  for (std::size_t i = 0; i < a.dataset.dwells.size(); ++i) {
    EXPECT_EQ(a.dataset.dwells[i].device, b.dataset.dwells[i].device);
    EXPECT_EQ(a.dataset.dwells[i].rat, b.dataset.dwells[i].rat);
    EXPECT_EQ(a.dataset.dwells[i].level, b.dataset.dwells[i].level);
    EXPECT_EQ(a.dataset.dwells[i].failure_within_window,
              b.dataset.dwells[i].failure_within_window);
  }

  ASSERT_EQ(a.recovery_episodes.size(), b.recovery_episodes.size());
  for (std::size_t i = 0; i < a.recovery_episodes.size(); ++i) {
    EXPECT_EQ(a.recovery_episodes[i].started_at.since_origin().count_us(),
              b.recovery_episodes[i].started_at.since_origin().count_us());
    EXPECT_EQ(a.recovery_episodes[i].ended_at.since_origin().count_us(),
              b.recovery_episodes[i].ended_at.since_origin().count_us());
    EXPECT_EQ(a.recovery_episodes[i].outcome, b.recovery_episodes[i].outcome);
    EXPECT_EQ(a.recovery_episodes[i].fixed_by, b.recovery_episodes[i].fixed_by);
    EXPECT_EQ(a.recovery_episodes[i].stages_executed,
              b.recovery_episodes[i].stages_executed);
    EXPECT_EQ(a.recovery_episodes[i].cycles, b.recovery_episodes[i].cycles);
  }

  EXPECT_EQ(a.overhead.avg_cpu_utilization, b.overhead.avg_cpu_utilization);
  EXPECT_EQ(a.overhead.worst_cpu_utilization, b.overhead.worst_cpu_utilization);
  EXPECT_EQ(a.overhead.avg_peak_memory_bytes, b.overhead.avg_peak_memory_bytes);
  EXPECT_EQ(a.overhead.worst_peak_memory_bytes, b.overhead.worst_peak_memory_bytes);
  EXPECT_EQ(a.overhead.avg_storage_bytes, b.overhead.avg_storage_bytes);
  EXPECT_EQ(a.overhead.worst_storage_bytes, b.overhead.worst_storage_bytes);
  EXPECT_EQ(a.overhead.avg_cellular_bytes, b.overhead.avg_cellular_bytes);
  EXPECT_EQ(a.overhead.worst_cellular_bytes, b.overhead.worst_cellular_bytes);
  EXPECT_EQ(a.overhead.avg_wifi_upload_bytes, b.overhead.avg_wifi_upload_bytes);
  EXPECT_EQ(a.overhead.monitored_devices, b.overhead.monitored_devices);

  EXPECT_EQ(a.simulated_events, b.simulated_events);
  EXPECT_EQ(a.episodes_run, b.episodes_run);
}

class ParallelCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Explicit Scenario::threads values must win in this suite; the TSan CI
    // job exports CELLREL_THREADS=4 for the rest of the tests.
    ::unsetenv("CELLREL_THREADS");
  }
};

TEST_F(ParallelCampaignTest, BitIdenticalAcrossThreadCountsAndSeeds) {
  for (const std::uint64_t seed : {11ULL, 71ULL, 2021ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CampaignResult baseline = Campaign(parallel_scenario(seed, 1)).run();
    for (const std::uint32_t threads : {2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const CampaignResult parallel =
          Campaign(parallel_scenario(seed, threads)).run();
      expect_identical_results(baseline, parallel);
    }
  }
}

TEST_F(ParallelCampaignTest, HardwareThreadCountAlsoIdentical) {
  // threads = 0 resolves to hardware_concurrency — whatever that is on the
  // host, the result must not change.
  const CampaignResult baseline = Campaign(parallel_scenario(5, 1)).run();
  const CampaignResult parallel = Campaign(parallel_scenario(5, 0)).run();
  expect_identical_results(baseline, parallel);
}

TEST_F(ParallelCampaignTest, EnvOverrideControlsThreadResolution) {
  Scenario sc = parallel_scenario(7, 1);
  EXPECT_EQ(sc.resolve_threads(), 1u);
  ::setenv("CELLREL_THREADS", "4", /*overwrite=*/1);
  EXPECT_EQ(sc.resolve_threads(), 4u);
  ::setenv("CELLREL_THREADS", "0", 1);
  EXPECT_GE(sc.resolve_threads(), 1u);  // hardware concurrency
  ::unsetenv("CELLREL_THREADS");
  sc.threads = 0;
  EXPECT_GE(sc.resolve_threads(), 1u);
}

TEST_F(ParallelCampaignTest, CountersPopulatedAndEqualAcrossThreadCounts) {
  const CampaignResult r1 = Campaign(parallel_scenario(31, 1)).run();
  const CampaignResult r4 = Campaign(parallel_scenario(31, 4)).run();
  // The aggregate event/episode counters survive the shard merge intact.
  EXPECT_GT(r1.simulated_events, 0u);
  EXPECT_GT(r1.episodes_run, 0u);
  EXPECT_GT(r1.overhead.monitored_devices, 0u);
  EXPECT_EQ(r1.simulated_events, r4.simulated_events);
  EXPECT_EQ(r1.episodes_run, r4.episodes_run);
  // Devices arrive in fleet (id) order after the merge.
  ASSERT_EQ(r4.dataset.devices.size(), 300u);
  for (std::size_t i = 1; i < r4.dataset.devices.size(); ++i) {
    EXPECT_LT(r4.dataset.devices[i - 1].id, r4.dataset.devices[i].id);
  }
  // BS failure deltas were applied: registry totals match the ground-truth
  // failures in the trace (the same predicate the delta is recorded under).
  std::uint64_t bs_total = 0;
  for (const auto& bs : r4.dataset.base_stations) bs_total += bs.failure_count;
  std::uint64_t ground_truth = 0;
  for (const auto& rec : r4.dataset.records) {
    if (!is_false_positive(rec.ground_truth_fp) && rec.bs != kInvalidBs) ++ground_truth;
  }
  EXPECT_EQ(bs_total, ground_truth);
  EXPECT_GT(bs_total, 0u);
}

TEST_F(ParallelCampaignTest, MetricsExportBitIdenticalAcrossThreadCounts) {
  // The observability extension of the determinism contract: the JSON a
  // campaign exports via --metrics-out must be byte-identical for every
  // thread count, because shard sinks merge single-threaded in shard-index
  // order and wall timers are excluded from the default export.
  for (const std::uint64_t seed : {11ULL, 2021ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CampaignResult baseline = Campaign(parallel_scenario(seed, 1)).run();
    const std::string baseline_json = obs::metrics_to_json(baseline.metrics);
    for (const std::uint32_t threads : {2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const CampaignResult parallel =
          Campaign(parallel_scenario(seed, threads)).run();
      EXPECT_EQ(obs::metrics_to_json(parallel.metrics), baseline_json);
      EXPECT_EQ(obs::metrics_to_csv(parallel.metrics),
                obs::metrics_to_csv(baseline.metrics));
    }
  }
}

TEST_F(ParallelCampaignTest, CampaignMetricsArePopulated) {
  const CampaignResult r = Campaign(parallel_scenario(31, 2)).run();
  const auto& m = r.metrics;
  // Instrumented layers all reported through the shard sinks.
  EXPECT_GT(m.counters().at("dc_tracker.setup.attempts").value, 0u);
  EXPECT_GT(m.counters().at("data_stall.checks").value, 0u);
  EXPECT_GT(m.counters().at("monitor.events.handled").value, 0u);
  EXPECT_GT(m.counters().at("recovery.episodes").value, 0u);
  EXPECT_GT(m.sim_timers().at("ril.setup_data_call.latency").count, 0u);
  // Workload-shape gauges: pure functions of the scenario, never threads.
  EXPECT_EQ(m.gauges().at("campaign.fleet.devices").value, 300.0);
  EXPECT_EQ(m.gauges().at("campaign.shards").value, 5.0);  // ceil(300/64)
  EXPECT_EQ(m.gauges().count("campaign.threads"), 0u);
  // Phase spans recorded wall time but stay out of the deterministic export.
  EXPECT_EQ(m.wall_timers().at("phase.run_shards").count, 1u);
  EXPECT_EQ(obs::metrics_to_json(m).find("phase.run_shards"), std::string::npos);
}

TEST_F(ParallelCampaignTest, ExpectedRecordEstimateTracksActualVolume) {
  const Scenario sc = parallel_scenario(47, 1);
  Rng master(sc.seed);
  Rng fleet_rng = master.fork(0xf1ee7ULL);
  const std::vector<DeviceProfile> fleet =
      PopulationBuilder().build(sc.device_count, fleet_rng);
  double expected = 0.0;
  for (const DeviceProfile& profile : fleet) expected += expected_device_records(profile);
  const CampaignResult r = Campaign(sc).run();
  const double actual = static_cast<double>(r.dataset.records.size());
  // A sizing estimate, not a bound: demand it lands within a factor of two
  // so the reserve is neither useless nor wildly oversized.
  EXPECT_GT(expected, actual * 0.5);
  EXPECT_LT(expected, actual * 2.0);
}

}  // namespace
}  // namespace cellrel

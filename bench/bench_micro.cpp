// Micro-benchmarks (google-benchmark): throughput of the hot simulation and
// analysis paths. These guard the bench-scale campaign runtimes.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "analysis/aggregate.h"
#include "analysis/csv_io.h"
#include "analysis/string_pool.h"
#include "bs/registry.h"
#include "common/rng.h"
#include "core/prober.h"
#include "net/tcp_stats.h"
#include "query/engine.h"
#include "query/presets.h"
#include "sim/event_queue.h"
#include "telephony/dc_tracker.h"
#include "telephony/rat_policy.h"
#include "workload/campaign.h"

namespace cellrel {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(SimTime::from_seconds(static_cast<double>(i % 97)),
                      [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

// The campaign's kernel shape: a self-rescheduling 2.5 s traffic tick that
// schedules from inside its own callback, plus a stall-check watchdog that
// is cancelled and re-armed every fourth tick, so slots are freed and reused.
void BM_EventQueueTickWatchdog(benchmark::State& state) {
  struct Load {
    Simulator sim;
    std::uint64_t remaining = 0;
    ScheduledEvent watchdog;
    std::uint64_t watchdog_fired = 0;
    void tick() {
      if (remaining == 0) return;
      --remaining;
      if (remaining % 4 == 0) {
        watchdog.cancel();
        watchdog = sim.schedule_after(SimDuration::seconds(30.0), [this] { ++watchdog_fired; });
      }
      sim.schedule_after(SimDuration::seconds(2.5), [this] { tick(); });
    }
  };
  const auto ticks = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    Load load;
    load.remaining = ticks;
    load.sim.schedule_after(SimDuration::zero(), [&load] { load.tick(); });
    events += load.sim.run();
    benchmark::DoNotOptimize(load.watchdog_fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueTickWatchdog)->Arg(1540);

void BM_RngLognormal(benchmark::State& state) {
  Rng rng(42);
  double sink = 0.0;
  for (auto _ : state) sink += rng.lognormal(0.0, 1.1);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngLognormal);

void BM_TcpWindowAccounting(benchmark::State& state) {
  TcpSegmentCounters tcp;
  SimTime t = SimTime::origin();
  for (auto _ : state) {
    t += SimDuration::seconds(1.0);
    tcp.on_segment_sent(t);
    benchmark::DoNotOptimize(tcp.stall_suspected(t));
  }
}
BENCHMARK(BM_TcpWindowAccounting);

void BM_ProberEpisode(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    NetworkStack stack(Rng{7});
    stack.inject_fault(NetworkFault::kNetworkStall);
    sim.schedule_after(SimDuration::seconds(40.0),
                       [&] { stack.inject_fault(NetworkFault::kNone); });
    NetworkStateProber prober(sim, stack);
    bool done = false;
    prober.start(SimTime::origin(), [&](const NetworkStateProber::Report&) { done = true; });
    sim.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_ProberEpisode);

// A DcTracker retry ladder: setups on a failing channel until `range(0)`
// failures, then on a healthy one until the connection is Active. Each step
// is one RIL answer, its scheduled reply and the backoff retry.
void BM_SetupRetryLadder(benchmark::State& state) {
  const auto failures = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    obs::MetricSink metrics;
    FailureEventBus bus;
    RadioInterfaceLayer ril(Rng{9}, metrics);
    ChannelConditions channel;
    channel.base_failure_prob = 1.0;
    ril.update_channel(channel);
    DcTracker tracker(sim, ril, bus, metrics);
    tracker.request_data();
    while (tracker.setup_failures() < failures && sim.step()) {
    }
    channel.base_failure_prob = 0.0;
    ril.update_channel(channel);
    while (!tracker.connection().is_active() && sim.step()) {
    }
    benchmark::DoNotOptimize(tracker.setup_failures());
  }
}
BENCHMARK(BM_SetupRetryLadder)->Arg(8);

void BM_SmallCampaign(benchmark::State& state) {
  for (auto _ : state) {
    Scenario sc;
    sc.device_count = static_cast<std::uint32_t>(state.range(0));
    sc.deployment.bs_count = 1000;
    sc.seed = 5;
    Campaign campaign(sc);
    const CampaignResult r = campaign.run();
    benchmark::DoNotOptimize(r.dataset.records.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SmallCampaign)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_Aggregation(benchmark::State& state) {
  Scenario sc;
  sc.device_count = 400;
  sc.deployment.bs_count = 1500;
  Campaign campaign(sc);
  const CampaignResult r = campaign.run();
  for (auto _ : state) {
    const Aggregator agg(r.dataset);
    benchmark::DoNotOptimize(agg.overall().failures);
    benchmark::DoNotOptimize(agg.normalized_prevalence_by_level());
    benchmark::DoNotOptimize(agg.by_model().size());
  }
}
BENCHMARK(BM_Aggregation)->Unit(benchmark::kMillisecond);

// One session-planning slot of a 5G-capable device under the stability
// policy: pick the serving BS, enumerate its candidates, run the stock and
// the stability-compatible policy. Time per iteration is ns per slot.
void BM_SessionPlanning(benchmark::State& state) {
  DeploymentConfig config;
  config.bs_count = 8'000;
  Rng rng(11);
  const BsRegistry registry(config, rng);
  const Android10Policy stock;
  const StabilityCompatiblePolicy stability;
  std::optional<CellCandidate> prev_stock;
  std::optional<CellCandidate> prev_active;
  std::size_t slot = 0;
  for (auto _ : state) {
    const LocationClass loc = kAllLocationClasses[slot % kAllLocationClasses.size()];
    const IspId isp = kAllIsps[slot % kIspCount];
    ++slot;
    const BsIndex bs = registry.pick_bs(isp, loc, rng);
    const auto candidates = registry.enumerate_candidates(bs, /*device_5g_capable=*/true, rng);
    prev_stock = stock.choose(candidates, prev_stock);
    prev_active = stability.choose(candidates, prev_active);
    benchmark::DoNotOptimize(prev_stock);
    benchmark::DoNotOptimize(prev_active);
  }
}
BENCHMARK(BM_SessionPlanning);

// The campaign merge's query hot loop: every preset ingesting one small
// campaign's records, batch by batch. per_row is the time per record per
// preset.
void BM_QueryIngest(benchmark::State& state) {
  Scenario sc;
  sc.device_count = 300;
  sc.deployment.bs_count = 1000;
  sc.campaign_days = 60.0;
  sc.seed = 5;
  const CampaignResult r = Campaign(sc).run();
  StringPool apns;
  std::vector<RecordBatch> batches;
  for (std::size_t i = 0; i < r.dataset.records.size(); ++i) {
    if (i % 4096 == 0) batches.emplace_back(4096);
    batches.back().push(r.dataset.records[i], apns);
  }
  std::vector<query::QuerySpec> specs;
  for (const query::PresetInfo& info : query::preset_table()) {
    specs.push_back(*query::find_preset(info.name));
  }
  for (auto _ : state) {
    for (const query::QuerySpec& spec : specs) {
      query::QueryExecutor executor(spec);
      executor.add_devices(r.dataset.devices);
      for (const RecordBatch& b : batches) executor.consume(b);
      benchmark::DoNotOptimize(executor.result().pf.size());
    }
  }
  const auto rows = static_cast<double>(r.dataset.records.size() * specs.size());
  state.counters["per_row"] = benchmark::Counter(
      rows, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_QueryIngest)->Unit(benchmark::kMillisecond);

// The record-row formatter behind records.csv, to_csv and the monitor's
// storage estimate: one campaign's records formatted into a stack buffer.
// per_row is the time per record.
void BM_RecordRowFormat(benchmark::State& state) {
  Scenario sc;
  sc.device_count = 300;
  sc.deployment.bs_count = 1000;
  sc.campaign_days = 60.0;
  sc.seed = 5;
  const CampaignResult r = Campaign(sc).run();
  for (auto _ : state) {
    std::size_t bytes = 0;
    for (const TraceRecord& record : r.dataset.records) {
      char buf[kRecordRowFixedBytes + 64];
      RowWriter row(buf);
      append_record_row(row, record);
      bytes += row.size();
    }
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(r.dataset.records.size()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RecordRowFormat)->Unit(benchmark::kMicrosecond);

// The offline analyst's read: a streaming 500-device campaign writes a
// dataset dir and a spill dir once into a temp dir; each iteration reads
// the dataset and every spill shard back.
void BM_ReadDatasetDir(benchmark::State& state) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("cellrel_bench_read_" + std::to_string(::getpid()));
  Scenario sc;
  sc.device_count = 500;
  sc.deployment.bs_count = 1000;
  sc.campaign_days = 60.0;
  sc.seed = 5;
  sc.stream = true;
  sc.out_dir = (dir / "dataset").string();
  sc.spill_dir = (dir / "spill").string();
  Campaign(sc).run();
  std::uintmax_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  for (auto _ : state) {
    const TraceDataset data = read_dataset_csv(sc.out_dir);
    std::size_t rows = data.records.size();
    StringPool apns;
    for (std::size_t k = 0; fs::exists(sc.spill_dir / fs::path(spill_shard_file(k))); ++k) {
      read_spill_batches(sc.spill_dir / fs::path(spill_shard_file(k)), 4096, apns,
                         [&](const RecordBatch& batch) { rows += batch.size(); });
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  fs::remove_all(dir);
}
BENCHMARK(BM_ReadDatasetDir)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cellrel

BENCHMARK_MAIN();

// Campaign driver: runs a fleet through the full stack and collects the
// backend dataset.
//
// Each device is simulated independently (deterministically forked RNG per
// device id) with its own discrete-event simulator and Android-MOD
// instance. Failure-free devices (the 77% majority) contribute metadata,
// connected time and dwell/transition samples only; failing devices run
// every failure episode through the real telephony + monitoring machinery:
// modem error codes, DcTracker retries, kernel TCP counters, stall
// detection, three-stage recovery, probing, false-positive filtering,
// WiFi-gated upload.
//
// Parallel execution (Scenario::threads): the fleet is partitioned into
// fixed-size contiguous shards — a pure function of the fleet, never of the
// thread count — and each shard writes only to its own ShardResult (own
// columnar RecordBatches + APN pool, recovery episodes, overhead sums, and
// a BS failure *delta* instead of mutating shared registry counters). After
// the join, shards are merged in shard-index order and averages are
// computed once from merged sums, so the result is bit-identical for every
// threads value. See DESIGN.md, "Parallel campaign execution & determinism
// contract".
//
// Data plane (see DESIGN.md §10): shards emit trace records into
// fixed-capacity columnar RecordBatches (analysis/batch.h) instead of AoS
// TraceRecord vectors. One merge folds every shard's batches, in shard-index
// order, into the campaign's Aggregator (CampaignResult::stream) and the
// inline query executors. Unless Scenario::stream is set, the same pass also
// expands the batches into CampaignResult::dataset with an exact reserve;
// streaming runs skip that (optionally spilling sealed batches to disk), so
// the merged dataset never exists. The analysis output is bit-identical
// either way.
//
// Hazard normalization: per-session failure probabilities are shaped by the
// session context (ISP, BS, signal level, RAT transition, policy) and
// scaled so that the *stock-policy* expectation matches the device's
// calibrated target count. Running an improved policy therefore lowers
// realized failures causally rather than by construction — the mechanism
// behind the Fig. 19/20 A/B comparison.

#ifndef CELLREL_WORKLOAD_CAMPAIGN_H
#define CELLREL_WORKLOAD_CAMPAIGN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/dataset.h"
#include "bs/registry.h"
#include "core/android_mod.h"
#include "detect/detector.h"
#include "device/device.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "workload/scenario.h"

namespace cellrel {

/// Fleet-level monitoring overhead summary (§2.2 / §4.3 numbers).
struct OverheadSummary {
  double avg_cpu_utilization = 0.0;
  double worst_cpu_utilization = 0.0;
  std::uint64_t avg_peak_memory_bytes = 0;
  std::uint64_t worst_peak_memory_bytes = 0;
  std::uint64_t avg_storage_bytes = 0;
  std::uint64_t worst_storage_bytes = 0;
  std::uint64_t avg_cellular_bytes = 0;
  std::uint64_t worst_cellular_bytes = 0;
  std::uint64_t avg_wifi_upload_bytes = 0;
  std::uint64_t monitored_devices = 0;
};

struct CampaignResult {
  /// Materialized mode (Scenario::stream == false): the full backend
  /// dataset. Streaming mode leaves it EMPTY — records never exist as
  /// merged TraceRecords; `stream` below holds every analysis table.
  TraceDataset dataset;
  /// The §3 analysis surface, folded from the columnar shard batches at
  /// merge time. Never null. Bit-identical query results to
  /// `Aggregator(dataset)` of a materialized run of the same scenario, for
  /// every thread count.
  std::unique_ptr<Aggregator> stream;
  std::vector<RecoveryEpisode> recovery_episodes;
  OverheadSummary overhead;
  /// Per-shard metric sinks merged in shard-index order plus campaign-level
  /// phase timings; the sim-derived entries are bit-identical for every
  /// `threads` value (see DESIGN.md, "Observability"). Entries under
  /// "process." (resident batch bytes, spill volume) are host-process
  /// accounting and are excluded from the default export.
  obs::MetricRegistry metrics;
  /// BS-health detection (Scenario::detect): the detector's scored report
  /// over the HealthTracker the merge fed with every uploaded record (the
  /// rows of the dataset): precision/recall vs the registry's injected
  /// ground truth, time-to-detect samples, Zipf-rank agreement, and the
  /// tracker's record count and config. Null when detection is off.
  /// Bit-identical for every `threads` value and both modes: tracker state
  /// is pure integer counts and min/max folds.
  std::unique_ptr<detect::HealthReport> health;
  /// Inline query results (Scenario::inline_queries, same order). The
  /// executors consume the columnar shard batches during the merge itself.
  /// Byte-identical JSON/CSV exports across both modes and every `threads`
  /// value.
  std::vector<query::QueryResult> query_results;
  /// Events fired by the episode runners' drive-until-condition steps,
  /// summed over every device. Events fired while the clock is advanced
  /// between sessions (run_until to the next session start) are not counted.
  /// cellbench pins it as `sim.events`, so a change that only speeds up the
  /// kernel must leave it equal.
  std::uint64_t simulated_events = 0;
  std::uint64_t episodes_run = 0;
};

class Campaign {
 public:
  explicit Campaign(Scenario scenario);

  /// Runs the whole campaign. Deterministic for a given scenario seed.
  CampaignResult run();

  /// The BS registry (shared across devices; owned by the campaign).
  const BsRegistry& registry() const { return *registry_; }

 private:
  class DeviceRun;  // per-device engine (campaign.cpp)

  Scenario scenario_;
  Rng master_rng_;
  std::unique_ptr<BsRegistry> registry_;
};

}  // namespace cellrel

#endif  // CELLREL_WORKLOAD_CAMPAIGN_H

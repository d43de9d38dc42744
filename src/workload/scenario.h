// Campaign scenario configuration.

#ifndef CELLREL_WORKLOAD_SCENARIO_H
#define CELLREL_WORKLOAD_SCENARIO_H

#include <cstdint>
#include <string>
#include <vector>

#include "bs/deployment.h"
#include "common/names.h"
#include "query/spec.h"
#include "workload/mobility.h"

namespace cellrel {

// PolicyVariant and RecoveryVariant (with to_string/parse round trips) live
// in common/names.h so the CLI and analysis layers share one spelling.

/// One structured finding from Scenario::validate(): which field is broken
/// and why. Campaigns refuse to run a scenario with any errors.
struct ScenarioError {
  std::string field;
  std::string message;
};

struct Scenario {
  std::string name = "measurement";
  std::uint64_t seed = 20200101;
  std::uint32_t device_count = 20'000;
  double campaign_days = 240.0;  // Jan-Aug 2020

  /// Worker threads for the sharded campaign executor. 1 = sequential
  /// (the default), 0 = one per hardware thread. The CELLREL_THREADS
  /// environment variable, when set, overrides this field (0 again meaning
  /// hardware concurrency). The result is bit-identical for every value:
  /// shard partition and merge order depend only on the scenario.
  std::uint32_t threads = 1;

  /// Do not materialize CampaignResult::dataset: the merge only folds the
  /// shards' columnar RecordBatches into CampaignResult::stream (which every
  /// campaign fills), so the merged TraceDataset never exists. Bit-identical
  /// analysis output to the materialized path at every thread count.
  bool stream = false;
  /// When non-empty (streaming mode only), shards spill sealed batches to
  /// "<spill_dir>/shard-<k>.csv" instead of retaining them in memory, and
  /// the merge re-reads them in shard-index order: peak batch residency
  /// drops to O(shards x batch capacity). The directory is created if
  /// missing; existing shard files are overwritten.
  std::string spill_dir;
  /// When non-empty, the merge writes the dataset CSV directory here
  /// (DatasetCsvWriter), appending every record as it folds the batches, in
  /// both modes: a streaming run exports without ever materializing the
  /// dataset. Every file is byte-identical to write_dataset_csv() of the
  /// materialized dataset: the shards keep their transition/dwell samples
  /// for the export (a streaming run without one keeps only the count
  /// tables).
  std::string out_dir;

  /// Inline queries (src/query, DESIGN.md §12): each spec is evaluated
  /// incrementally from the columnar shard batches during the campaign
  /// merge, in both modes (including spill). Results land in
  /// CampaignResult::query_results in this order, byte-identical across
  /// modes and for every `threads` value.
  std::vector<query::QuerySpec> inline_queries;

  /// Sleeping-cell detection (src/detect, DESIGN.md §11): the shard merge
  /// feeds one HealthTracker with every uploaded record, next to the
  /// Aggregator and the inline queries, and the SleepingCellDetector scores
  /// its state against the registry's injected ground truth. Results land
  /// in CampaignResult::health and the "health.*" metric
  /// namespace — bit-identical for every `threads` value. Off by default
  /// (the merge then builds no tracker).
  bool detect = false;
  /// Width of one detection window in simulated seconds (>= 1 when detect
  /// is set). Default: one simulated day.
  double detect_window_s = 86'400.0;

  DeploymentConfig deployment;

  /// Mobility model (DESIGN.md §13): deterministic per-device waypoint
  /// traces that make handover/RAT-transition sequences a first-class
  /// workload. Off by default — the campaign's draw sequence is untouched
  /// and every seeded output stays bit-identical to pre-pack builds.
  MobilityConfig mobility;
  /// Nationwide incidents (DESIGN.md §13): regional ISP outage with a
  /// national-roaming knob, BS-cluster degradation waves, Android-layer
  /// fault-injection schedules. Off by default (same guarantee as mobility).
  IncidentConfig incident;

  PolicyVariant policy = PolicyVariant::kStock;
  /// 4G/5G dual connectivity rides along with the stability-compatible
  /// policy (§4.2): the session planner scales a 4G<->5G transition's
  /// hazard by its EN-DC disruption factor. Stock campaigns ignore it.
  /// cellrel_campaign's --no-dualconn clears it; cellbench sets it.
  bool dual_connectivity = true;
  /// kTimpOptimized runs timp_probation_schedule() (telephony/recovery.h).
  RecoveryVariant recovery = RecoveryVariant::kVanilla;

  /// Android-MOD active probing for stall durations (false = vanilla
  /// fixed-interval estimation; the probe-ladder ablation).
  bool monitor_probing = true;

  /// Structural sanity of the scenario: non-zero fleet/BS counts, a positive
  /// campaign window, and a sane thread request — the `threads` field and,
  /// when set, CELLREL_THREADS (a decimal integer in [0, 4096]). Returns
  /// every finding, empty when the scenario is runnable. Campaign::run and
  /// both CLI tools call this on every entry path.
  std::vector<ScenarioError> validate() const;

  /// The worker-thread count a campaign will actually use: CELLREL_THREADS
  /// (if set) overrides `threads`, and 0 resolves to the hardware thread
  /// count. Always >= 1. A CELLREL_THREADS value validate() rejects is
  /// ignored here (the field applies). The single home of the env-override
  /// logic — tools and tests must not re-implement it.
  std::uint32_t resolve_threads() const;
};

/// Renders validate() findings as one "field: message" line each (the form
/// the CLI tools print before exiting).
std::string format_errors(const std::vector<ScenarioError>& errors);

}  // namespace cellrel

#endif  // CELLREL_WORKLOAD_SCENARIO_H

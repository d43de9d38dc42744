// cellrel-detect: BS-health tracking.
//
// A HealthTracker is the fold half of the sleeping-cell detection service.
// It ingests the backend's record stream — the rows the Android-MOD fleet
// uploaded, kept and filtered alike — through the same surface as the
// Aggregator and the QueryExecutor (consume(RecordBatch) / ingest(RowView)),
// and folds every row into per-BS sliding-window health state keyed to
// SIMULATED time: per-window event counts, kept-vs-filtered verdict mix,
// per-failure-type totals, and first/last activity stamps. It observes
// exactly what a network-side health service could observe (the uploaded
// stream); ground truth never flows through it.
//
// Determinism contract (DESIGN.md §6/§11): the campaign builds one tracker
// and feeds it during the shard merge, in sequential record order, from
// in-memory and spill-reloaded batches alike. Every field a tracker holds is
// an integer count, an integer min, or an integer max, so the state — and
// every verdict the SleepingCellDetector derives from it — is bit-identical
// for every `--threads` value and either record source.

#ifndef CELLREL_DETECT_HEALTH_H
#define CELLREL_DETECT_HEALTH_H

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "analysis/batch.h"
#include "core/trace.h"

namespace cellrel::detect {

/// The window series' shape, from the scenario (Scenario::detect_window_s
/// and the campaign length). The verdict thresholds are constants beside
/// the detector (detect/detector.h).
struct HealthConfig {
  /// Width of one health window, in simulated seconds.
  double window_s = 86'400.0;
  /// Campaign span covered by the window series, in simulated seconds.
  /// Records past the horizon (episode drain tails) land in the last window.
  double horizon_s = 240.0 * 86'400.0;

  /// Number of windows spanning the horizon (>= 1).
  std::size_t windows() const;
};

/// Windowed health state for one base station. All integers, so the state
/// does not depend on ingestion order.
struct CellHealth {
  /// Per-window record counts (every uploaded record).
  std::vector<std::uint32_t> window_events;
  /// Per-window records that survived false-positive filtering.
  std::vector<std::uint32_t> window_kept;
  /// Kept records by failure type (the cell's failure-type mix).
  std::array<std::uint64_t, kFailureTypeCount> type_counts{};
  std::uint64_t events = 0;    // all records
  std::uint64_t kept = 0;      // records with a kept (non-FP) verdict
  std::uint64_t filtered = 0;  // records the filter removed
  std::int64_t first_event_us = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_event_us = std::numeric_limits<std::int64_t>::min();
};

/// Streaming consumer of the uploaded record stream.
class HealthTracker {
 public:
  explicit HealthTracker(const HealthConfig& config);

  /// One columnar batch, in emission order: ingest() on every row.
  void consume(const RecordBatch& batch);

  /// Folds one record row into the owning BS's window state. Rows without
  /// a BS identity (legacy voice drops reported off-cell) are counted but
  /// not attributed.
  void ingest(const RecordBatch::RowView& row);

  const HealthConfig& config() const { return config_; }
  /// Per-BS state, ordered by BS index (std::map: the detector's export
  /// path iterates this).
  const std::map<BsIndex, CellHealth>& cells() const { return cells_; }
  std::uint64_t records_seen() const { return records_seen_; }
  std::uint64_t records_unattributed() const { return records_unattributed_; }

  /// Window index for a simulated timestamp in microseconds since the
  /// origin (clamped to the horizon).
  std::size_t window_of(std::int64_t at_us) const;

 private:
  HealthConfig config_;
  std::size_t windows_ = 1;
  std::map<BsIndex, CellHealth> cells_;
  std::uint64_t records_seen_ = 0;
  std::uint64_t records_unattributed_ = 0;
};

}  // namespace cellrel::detect

#endif  // CELLREL_DETECT_HEALTH_H

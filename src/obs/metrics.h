// cellrel-obs: the deterministic in-tree metrics plane.
//
// A MetricRegistry holds named counters, gauges, fixed-bucket histograms
// (common/histogram), simulated-time timers, and wall-clock timers. The
// campaign gives every shard its own registry (`MetricSink` — the write-side
// alias) and merges them single-threaded in shard-index order after the
// join, extending the PR 2 determinism contract: every metric whose value
// derives from simulation state is bit-identical for every `threads` value.
//
// Determinism rule (see DESIGN.md, "Observability"):
//   * counters, gauges, histograms and sim timers may only be fed from
//     simulation state (SimTime, event outcomes, RNG-driven results) — they
//     are part of the deterministic export surface;
//   * wall timers and phase spans read the host clock and are therefore
//     never exported — they exist so perf work can report real elapsed time
//     per campaign phase (cellbench, `render_metrics`).
//
// Wall-clock access is confined to this module: cellrel-lint's `obs` rule
// bans <chrono> includes and clock reads everywhere outside src/obs, and
// only instrumented modules may include obs headers at all.
//
// Naming scheme: dot-separated "<module>.<entity>.<quality>", e.g.
// "ril.cmd.setup_data_call.latency" or "campaign.sessions.failed". Lookup
// returns a stable reference; instrumented classes resolve names once at
// wiring time and keep the returned handle, so hot paths pay one pointer
// add, never a map lookup.

#ifndef CELLREL_OBS_METRICS_H
#define CELLREL_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/histogram.h"
#include "common/sim_time.h"

namespace cellrel::obs {

/// Monotonic event counter.
struct Counter {
  std::uint64_t value = 0;
  void add(std::uint64_t n = 1) { value += n; }
};

/// Last-written point-in-time value. Merge is last-writer-wins in merge
/// order (shard-index order in a campaign), which is deterministic because
/// the merge itself is.
struct Gauge {
  double value = 0.0;
  std::uint64_t writes = 0;
  void set(double v) {
    value = v;
    ++writes;
  }
};

/// Accumulated simulated-time durations (integer microseconds: summation
/// order cannot change the result).
struct SimTimerStat {
  std::uint64_t count = 0;
  std::int64_t total_us = 0;
  std::int64_t max_us = 0;
  void record(SimDuration d) {
    ++count;
    const std::int64_t us = d.count_us();
    total_us += us;
    if (us > max_us) max_us = us;
  }
  double mean_s() const {
    return count == 0 ? 0.0 : static_cast<double>(total_us) / 1e6 / static_cast<double>(count);
  }
};

/// Accumulated host wall-clock durations. NOT part of the deterministic
/// export surface.
struct WallTimerStat {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double max_s = 0.0;
  void record_s(double s) {
    ++count;
    total_s += s;
    if (s > max_s) max_s = s;
  }
};

/// Monotonic host clock in nanoseconds. The only wall-clock read in the
/// tree (implemented in metrics.cpp; everywhere else the lint bans it).
std::uint64_t wall_now_ns();

class MetricRegistry {
 public:
  /// Lookup-or-create. References stay valid for the registry's lifetime
  /// (map nodes are stable); resolve once and keep the handle.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Shape is fixed by the first registration; a later lookup with a
  /// different shape is a contract violation.
  LinearHistogram& histogram(std::string_view name, double lo, double hi, std::size_t bins);
  SimTimerStat& sim_timer(std::string_view name);
  WallTimerStat& wall_timer(std::string_view name);

  /// Accumulates `other` into this registry. Counters/histograms/timers sum
  /// (order-independent), gauges take the later writer. Campaigns call this
  /// in shard-index order, single-threaded, after the join.
  void merge(const MetricRegistry& other);

  // Read-side views (sorted by name — std::map iteration order).
  const std::map<std::string, Counter, std::less<>>& counters() const { return counters_; }
  const std::map<std::string, Gauge, std::less<>>& gauges() const { return gauges_; }
  const std::map<std::string, LinearHistogram, std::less<>>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, SimTimerStat, std::less<>>& sim_timers() const {
    return sim_timers_;
  }
  const std::map<std::string, WallTimerStat, std::less<>>& wall_timers() const {
    return wall_timers_;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           sim_timers_.empty() && wall_timers_.empty();
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, LinearHistogram, std::less<>> histograms_;
  std::map<std::string, SimTimerStat, std::less<>> sim_timers_;
  std::map<std::string, WallTimerStat, std::less<>> wall_timers_;
};

/// The write side a shard (or a device stack) is handed. Same type: a sink
/// is simply a registry that has not been merged yet.
using MetricSink = MetricRegistry;

/// RAII wall-clock span for a named campaign phase; records one
/// WallTimerStat sample under "phase.<name>" on destruction. Nests freely —
/// each span records its own inclusive time.
class PhaseSpan {
 public:
  PhaseSpan(MetricRegistry& registry, std::string_view name);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  WallTimerStat& stat_;
  std::uint64_t start_ns_;
};

}  // namespace cellrel::obs

#endif  // CELLREL_OBS_METRICS_H

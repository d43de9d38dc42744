// JSON / CSV export of a MetricRegistry.
//
// Both formats are byte-deterministic: metrics are emitted in name order
// (the registry's map order) with fixed number formatting, so two registries
// holding equal values export to identical bytes — the property the
// `--metrics-out` bit-identity contract (threads=K vs threads=1) is tested
// against. Wall timers are host-clock measurements and are never exported;
// `render_metrics` prints them for a human reader.

#ifndef CELLREL_OBS_EXPORT_H
#define CELLREL_OBS_EXPORT_H

#include <string>

#include "obs/metrics.h"

namespace cellrel::obs {

struct ExportOptions {
  /// Include metrics whose name starts with "process." — host-process
  /// accounting (resident batch bytes, spill volume) that legitimately
  /// differs between execution modes of the SAME scenario. Off by default:
  /// the default export must be byte-identical across thread counts AND
  /// across the streaming / materialized execution modes.
  bool include_process = false;
};

/// Pretty-printed JSON document (2-space indent, keys sorted by name):
/// {
///   "counters":   { "<name>": N, ... },
///   "gauges":     { "<name>": { "value": X, "writes": N }, ... },
///   "histograms": { "<name>": { "lo":, "hi":, "underflow":, "overflow":,
///                               "total":, "buckets": [ ... ] }, ... },
///   "sim_timers": { "<name>": { "count":, "total_us":, "max_us": }, ... }
/// }
std::string metrics_to_json(const MetricRegistry& registry, ExportOptions options = {});

/// Flat CSV: kind,name,field,value — one row per scalar field, rows in
/// (kind, name, field) order.
std::string metrics_to_csv(const MetricRegistry& registry, ExportOptions options = {});

/// Shortest round-trip decimal form: %.17g is bit-faithful for doubles and
/// produces the same bytes for the same bit pattern on every run. The shared
/// number formatter of every deterministic JSON export surface (metrics,
/// query results).
std::string fmt_double(double v);

/// Minimal JSON string escaping (quotes, backslash, control characters).
std::string json_escape(const std::string& s);

}  // namespace cellrel::obs

#endif  // CELLREL_OBS_EXPORT_H

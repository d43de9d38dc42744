// Text renderers for figures and tables (used by the query presets, the
// full report and the paper-fidelity scorecard).

#ifndef CELLREL_ANALYSIS_REPORT_H
#define CELLREL_ANALYSIS_REPORT_H

#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/aggregate.h"
#include "common/table.h"
#include "obs/metrics.h"

namespace cellrel {

/// A labelled series of values (one figure curve / bar group).
struct Series {
  std::string name;
  std::vector<std::string> labels;
  std::vector<double> values;
};

/// Shared formatting knob for the figure renderers (one struct instead of
/// trailing defaulted parameters, so query presets carry a single option).
struct RenderOptions {
  /// Fractional digits of the value column.
  int precision = 3;
  /// Append 40-char '#' bars scaled to the series peak (ignored by
  /// render_cdf, which has no bar column).
  bool bars = true;
};

/// "label: value" lines with aligned columns and optional bars. An empty
/// series renders a single "(no samples)" line under its title.
std::string render_series(const Series& series, const RenderOptions& options = {});

/// Empirical CDF as "value  cumulative%" lines at the given probe points.
/// An empty sample set renders a single "(no samples)" line. The historical
/// (and default) value precision here is 2, not RenderOptions' 3.
std::string render_cdf(const SampleSet& samples, std::span<const double> probe_quantiles,
                       const RenderOptions& options = {.precision = 2});

/// Default quantile probes used across duration/count CDFs.
std::span<const double> default_cdf_quantiles();

/// A 6x6 transition heatmap (Fig. 17 panels) with a coarse shade ramp.
std::string render_transition_matrix(const TransitionMatrix& m,
                                     std::string_view title);

/// One paper claim checked against a measurement: a row of the
/// paper-fidelity scorecard (tools/scorecard.h). The claim holds when
/// `measured` lies in [lo, hi]. A claim known to miss carries an
/// `expected_deviation` reason: its verdict then reads "deviates" instead
/// of "FAIL", and its row still shows the measured value.
struct Comparison {
  std::string metric;  // the claim id, e.g. "F21.stall_duration_cut"
  double paper = 0.0;
  double measured = 0.0;
  std::string unit;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  std::string expected_deviation;

  bool holds() const { return measured >= lo && measured <= hi; }
  /// "pass", "deviates" or "FAIL".
  std::string_view verdict() const;
};
/// Claim | paper | measured | tolerance | verdict | unit, one row each.
std::string render_comparisons(std::span<const Comparison> rows);

/// One-row-per-metric summary table of a campaign's MetricRegistry (the
/// human-readable companion of obs::metrics_to_json). Wall timers are
/// included here — this is a display surface, not the deterministic export.
std::string render_metrics(const obs::MetricRegistry& metrics);

}  // namespace cellrel

#endif  // CELLREL_ANALYSIS_REPORT_H

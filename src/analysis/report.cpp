#include "analysis/report.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

namespace cellrel {

std::string render_series(const Series& series, const RenderOptions& options) {
  std::string out;
  out += "# " + series.name + "\n";
  if (series.values.empty()) {
    out += "  (no samples)\n";
    return out;
  }
  std::size_t label_width = 0;
  for (const auto& l : series.labels) label_width = std::max(label_width, l.size());
  double peak = 0.0;
  for (double v : series.values) peak = std::max(peak, std::fabs(v));
  for (std::size_t i = 0; i < series.values.size(); ++i) {
    const std::string label = i < series.labels.size() ? series.labels[i] : "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", options.precision, series.values[i]);
    out += "  " + label;
    out.append(label_width - label.size() + 2, ' ');
    out += buf;
    if (options.bars && peak > 0.0) {
      const auto width =
          static_cast<std::size_t>(std::fabs(series.values[i]) / peak * 40.0);
      out += "  ";
      out.append(width, '#');
    }
    out += '\n';
  }
  return out;
}

std::span<const double> default_cdf_quantiles() {
  static constexpr std::array<double, 11> kQuantiles = {
      0.05, 0.10, 0.25, 0.50, 0.708, 0.75, 0.80, 0.90, 0.95, 0.99, 1.0};
  return kQuantiles;
}

std::string render_cdf(const SampleSet& samples, std::span<const double> probe_quantiles,
                       const RenderOptions& options) {
  std::string out;
  if (samples.size() == 0) {
    out += "  (no samples)\n";
    return out;
  }
  char buf[96];
  for (double q : probe_quantiles) {
    std::snprintf(buf, sizeof(buf), "  p%05.1f  %12.*f\n", q * 100.0, options.precision,
                  samples.quantile(q));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  mean    %12.*f   n=%zu\n", options.precision,
                samples.mean(), samples.size());
  out += buf;
  return out;
}

std::string render_transition_matrix(const TransitionMatrix& m,
                                     std::string_view title) {
  std::string out;
  out += "# ";
  out += title;
  out += "\n       ";
  for (std::size_t j = 0; j < kSignalLevelCount; ++j) {
    out += "   j=" + std::to_string(j) + "  ";
  }
  out += '\n';
  static constexpr std::string_view kShades = " .:-=+*#%@";
  double peak = 0.0;
  for (const auto& row : m) {
    for (double v : row) peak = std::max(peak, std::fabs(v));
  }
  for (std::size_t i = 0; i < kSignalLevelCount; ++i) {
    char head[16];
    std::snprintf(head, sizeof(head), "  i=%zu  ", i);
    out += head;
    for (std::size_t j = 0; j < kSignalLevelCount; ++j) {
      char cell[16];
      const double v = m[i][j];
      const std::size_t shade =
          peak > 0.0 ? std::min<std::size_t>(kShades.size() - 1,
                                             static_cast<std::size_t>(
                                                 std::fabs(v) / peak * (kShades.size() - 1)))
                     : 0;
      std::snprintf(cell, sizeof(cell), "%+.2f(%c)", v, kShades[shade]);
      out += cell;
      out += ' ';
    }
    out += '\n';
  }
  return out;
}

std::string_view Comparison::verdict() const {
  if (holds()) return "pass";
  return expected_deviation.empty() ? "FAIL" : "deviates";
}

namespace {

/// Whole numbers (relation counts, ranks) without decimals, the rest with 2.
std::string claim_number(double v) {
  return TextTable::num(v, v == std::floor(v) ? 0 : 2);
}

std::string tolerance(const Comparison& row) {
  if (row.lo == row.hi) return "= " + claim_number(row.lo);
  if (std::isinf(row.hi)) return ">= " + claim_number(row.lo);
  if (std::isinf(row.lo)) return "<= " + claim_number(row.hi);
  return claim_number(row.lo) + " .. " + claim_number(row.hi);
}

}  // namespace

std::string render_comparisons(std::span<const Comparison> rows) {
  TextTable table({"claim", "paper", "measured", "tolerance", "verdict", "unit"});
  for (const auto& row : rows) {
    table.add_row({row.metric, claim_number(row.paper), claim_number(row.measured),
                   tolerance(row), std::string(row.verdict()), row.unit});
  }
  return table.render();
}

std::string render_metrics(const obs::MetricRegistry& metrics) {
  TextTable table({"metric", "kind", "value"});
  char buf[128];
  for (const auto& [name, c] : metrics.counters()) {
    table.add_row({name, "counter", std::to_string(c.value)});
  }
  for (const auto& [name, g] : metrics.gauges()) {
    table.add_row({name, "gauge", TextTable::num(g.value)});
  }
  for (const auto& [name, h] : metrics.histograms()) {
    std::snprintf(buf, sizeof(buf), "n=%llu under=%llu over=%llu",
                  static_cast<unsigned long long>(h.total()),
                  static_cast<unsigned long long>(h.underflow()),
                  static_cast<unsigned long long>(h.overflow()));
    table.add_row({name, "histogram", buf});
  }
  for (const auto& [name, t] : metrics.sim_timers()) {
    std::snprintf(buf, sizeof(buf), "n=%llu mean=%.3fs max=%.3fs",
                  static_cast<unsigned long long>(t.count), t.mean_s(),
                  static_cast<double>(t.max_us) / 1e6);
    table.add_row({name, "sim_timer", buf});
  }
  for (const auto& [name, t] : metrics.wall_timers()) {
    std::snprintf(buf, sizeof(buf), "n=%llu total=%.3fs max=%.3fs",
                  static_cast<unsigned long long>(t.count), t.total_s, t.max_s);
    table.add_row({name, "wall_timer", buf});
  }
  if (metrics.empty()) table.add_row({"(no metrics)", "", ""});
  return table.render();
}

}  // namespace cellrel

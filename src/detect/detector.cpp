#include "detect/detector.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "obs/export.h"

namespace cellrel::detect {

namespace {

using obs::fmt_double;

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

void append_f(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

/// Ranks `values` (paired with BS indices) descending by value, BS index
/// ascending on ties, and returns each entry's 1-based rank in input order.
std::vector<std::size_t> dense_ranks(const std::vector<std::uint64_t>& values,
                                     const std::vector<BsIndex>& bs) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] > values[b];
    return bs[a] < bs[b];
  });
  std::vector<std::size_t> rank(values.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) rank[order[pos]] = pos + 1;
  return rank;
}

}  // namespace

std::string_view to_string(CellVerdict v) {
  switch (v) {
    case CellVerdict::kDegraded: return "degraded";
    case CellVerdict::kSleeping: return "sleeping";
  }
  return "unknown";
}

HealthReport SleepingCellDetector::analyze(
    const HealthTracker& tracker, std::span<const std::uint64_t> true_failures) const {
  HealthReport report;
  report.config = config_;
  report.records_seen = tracker.records_seen();
  report.cells_tracked = tracker.cells().size();

  const std::size_t windows = config_.windows();
  const std::int64_t window_us = static_cast<std::int64_t>(config_.window_s * 1e6);
  constexpr std::size_t kNoWindow = std::numeric_limits<std::size_t>::max();

  for (const auto& [bs, cell] : tracker.cells()) {
    report.records_kept += cell.kept;
    report.records_filtered += cell.filtered;

    // Replay the window series in sim-time order: kept-rate EWMA, the
    // cumulative-evidence flag time, and the deepest silence gap.
    double ewma = 0.0;
    double peak_ewma = 0.0;
    std::uint64_t cumulative_kept = 0;
    std::int64_t flagged_at_us = -1;
    std::size_t first_active = kNoWindow;
    std::size_t last_active = 0;
    for (std::size_t w = 0; w < windows; ++w) {
      ewma = kEwmaAlpha * static_cast<double>(cell.window_kept[w]) +
             (1.0 - kEwmaAlpha) * ewma;
      peak_ewma = std::max(peak_ewma, ewma);
      if (cell.window_events[w] > 0) {
        if (first_active == kNoWindow) first_active = w;
        last_active = w;
      }
      if (flagged_at_us < 0) {
        cumulative_kept += cell.window_kept[w];
        if (cumulative_kept >= kSleepingMinKept) {
          flagged_at_us = static_cast<std::int64_t>(w + 1) * window_us;
        }
      }
    }
    std::uint32_t max_silence = 0;
    if (first_active != kNoWindow) {
      std::uint32_t run = 0;
      for (std::size_t w = first_active; w <= last_active; ++w) {
        if (cell.window_events[w] == 0) {
          ++run;
          max_silence = std::max(max_silence, run);
        } else {
          run = 0;
        }
      }
    }

    const bool sleeping = cell.kept >= kSleepingMinKept;
    const bool degraded = !sleeping && peak_ewma >= kDegradedMinEwma;
    if (!sleeping && !degraded) continue;

    CellFinding f;
    f.bs = bs;
    f.verdict = sleeping ? CellVerdict::kSleeping : CellVerdict::kDegraded;
    f.events = cell.events;
    f.kept = cell.kept;
    f.filtered = cell.filtered;
    f.type_counts = cell.type_counts;
    f.peak_ewma = peak_ewma;
    f.max_silence_windows = max_silence;
    f.first_event_us = cell.first_event_us;
    f.last_event_us = cell.last_event_us;
    f.flagged_at_us = sleeping ? flagged_at_us : -1;
    report.findings.push_back(f);
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const CellFinding& a, const CellFinding& b) {
              if (a.verdict != b.verdict) return a.verdict == CellVerdict::kSleeping;
              if (a.kept != b.kept) return a.kept > b.kept;
              return a.bs < b.bs;
            });
  for (const CellFinding& f : report.findings) {
    if (f.verdict == CellVerdict::kSleeping) {
      ++report.flagged_sleeping;
    } else {
      ++report.flagged_degraded;
    }
  }

  if (true_failures.empty()) return report;

  // --- score against the injected ground truth -----------------------------
  report.scored = true;
  std::vector<char> flagged_sleeping(true_failures.size(), 0);
  for (CellFinding& f : report.findings) {
    if (static_cast<std::size_t>(f.bs) < true_failures.size()) {
      f.true_failures = true_failures[f.bs];
      f.truly_sleeping = f.true_failures >= kTruthMinFailures;
      if (f.verdict == CellVerdict::kSleeping) flagged_sleeping[f.bs] = 1;
    }
  }
  for (const CellFinding& f : report.findings) {
    if (f.verdict != CellVerdict::kSleeping) continue;
    if (f.truly_sleeping) {
      ++report.score.true_positives;
      if (f.flagged_at_us >= 0 && f.first_event_us <= f.flagged_at_us) {
        report.time_to_detect_s.add(
            static_cast<double>(f.flagged_at_us - f.first_event_us) / 1e6);
      }
    } else {
      ++report.score.false_positives;
    }
  }

  // The truly-sleeping set (for recall and the rank comparison).
  std::vector<BsIndex> truth_bs;
  std::vector<std::uint64_t> truth_counts;
  std::vector<std::uint64_t> detected_counts;
  const auto& cells = tracker.cells();
  for (std::size_t bs = 0; bs < true_failures.size(); ++bs) {
    if (true_failures[bs] < kTruthMinFailures) continue;
    ++report.truth_sleeping;
    if (!flagged_sleeping[bs]) ++report.score.false_negatives;
    truth_bs.push_back(static_cast<BsIndex>(bs));
    truth_counts.push_back(true_failures[bs]);
    const auto it = cells.find(static_cast<BsIndex>(bs));
    detected_counts.push_back(it == cells.end() ? 0 : it->second.kept);
  }

  // Zipf-rank agreement: Spearman's rho between the detector's kept-count
  // ranking and the true failure-count ranking over the truly-sleeping set.
  report.rank_n = truth_bs.size();
  if (report.rank_n >= 2) {
    const std::vector<std::size_t> rank_truth = dense_ranks(truth_counts, truth_bs);
    const std::vector<std::size_t> rank_detect = dense_ranks(detected_counts, truth_bs);
    double d2 = 0.0;
    for (std::size_t i = 0; i < truth_bs.size(); ++i) {
      const double d = static_cast<double>(rank_truth[i]) -
                       static_cast<double>(rank_detect[i]);
      d2 += d * d;
    }
    const double n = static_cast<double>(report.rank_n);
    report.rank_spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
  } else if (report.rank_n == 1) {
    report.rank_spearman = 1.0;
  }
  return report;
}

std::string health_report_to_json(const HealthReport& report) {
  std::string out = "{\n";
  out += "  \"config\": { \"window_s\": " + fmt_double(report.config.window_s) +
         ", \"windows\": " + fmt_u64(report.config.windows()) +
         ", \"ewma_alpha\": " + fmt_double(kEwmaAlpha) +
         ", \"sleeping_min_kept\": " + fmt_u64(kSleepingMinKept) +
         ", \"degraded_min_ewma\": " + fmt_double(kDegradedMinEwma) +
         ", \"truth_min_failures\": " + fmt_u64(kTruthMinFailures) +
         " },\n";
  out += "  \"summary\": { \"cells_tracked\": " + fmt_u64(report.cells_tracked) +
         ", \"records_seen\": " + fmt_u64(report.records_seen) +
         ", \"records_kept\": " + fmt_u64(report.records_kept) +
         ", \"records_filtered\": " + fmt_u64(report.records_filtered) +
         ", \"flagged_sleeping\": " + fmt_u64(report.flagged_sleeping) +
         ", \"flagged_degraded\": " + fmt_u64(report.flagged_degraded) + " },\n";
  out += std::string("  \"scored\": ") + (report.scored ? "true" : "false");
  if (report.scored) {
    out += ",\n  \"score\": { \"true_positives\": " +
           fmt_u64(report.score.true_positives) +
           ", \"false_positives\": " + fmt_u64(report.score.false_positives) +
           ", \"false_negatives\": " + fmt_u64(report.score.false_negatives) +
           ", \"truth_sleeping\": " + fmt_u64(report.truth_sleeping) +
           ", \"precision\": " + fmt_double(report.score.precision()) +
           ", \"recall\": " + fmt_double(report.score.recall()) +
           ", \"f1\": " + fmt_double(report.score.f1()) + " },\n";
    out += "  \"rank\": { \"spearman\": " + fmt_double(report.rank_spearman) +
           ", \"n\": " + fmt_u64(report.rank_n) + " },\n";
    const SampleSet& ttd = report.time_to_detect_s;
    out += "  \"time_to_detect_s\": { \"count\": " + fmt_u64(ttd.size());
    if (!ttd.empty()) {
      out += ", \"mean\": " + fmt_double(ttd.mean()) +
             ", \"p50\": " + fmt_double(ttd.quantile(0.5)) +
             ", \"p90\": " + fmt_double(ttd.quantile(0.9)) +
             ", \"p99\": " + fmt_double(ttd.quantile(0.99)) +
             ", \"max\": " + fmt_double(ttd.max());
    }
    out += " }";
  }
  out += ",\n  \"findings\": [";
  bool first = true;
  for (const CellFinding& f : report.findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    { \"bs\": " + fmt_u64(f.bs) + ", \"verdict\": \"" +
           std::string(to_string(f.verdict)) + "\", \"events\": " + fmt_u64(f.events) +
           ", \"kept\": " + fmt_u64(f.kept) + ", \"filtered\": " + fmt_u64(f.filtered) +
           ", \"types\": [";
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
      if (t) out += ", ";
      out += fmt_u64(f.type_counts[t]);
    }
    out += "], \"peak_ewma\": " + fmt_double(f.peak_ewma) +
           ", \"max_silence_windows\": " + fmt_u64(f.max_silence_windows) +
           ", \"first_event_s\": " + fmt_double(static_cast<double>(f.first_event_us) / 1e6) +
           ", \"last_event_s\": " + fmt_double(static_cast<double>(f.last_event_us) / 1e6);
    if (f.verdict == CellVerdict::kSleeping) {
      out += ", \"flagged_at_s\": " +
             fmt_double(static_cast<double>(f.flagged_at_us) / 1e6);
    }
    if (report.scored) {
      out += ", \"true_failures\": " + fmt_u64(f.true_failures) +
             ", \"truly_sleeping\": " + (f.truly_sleeping ? "true" : "false");
    }
    out += " }";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string render_health_report(const HealthReport& report, std::size_t top) {
  std::string out;
  out += "== BS health (sleeping-cell detection) ==\n";
  append_f(out,
           "- %llu cells tracked over %zu windows of %.0f s; %llu records "
           "(%llu kept / %llu filtered)\n",
           static_cast<unsigned long long>(report.cells_tracked),
           report.config.windows(), report.config.window_s,
           static_cast<unsigned long long>(report.records_seen),
           static_cast<unsigned long long>(report.records_kept),
           static_cast<unsigned long long>(report.records_filtered));
  append_f(out, "- flagged: %llu sleeping (>= %llu kept failures), %llu degraded\n",
           static_cast<unsigned long long>(report.flagged_sleeping),
           static_cast<unsigned long long>(kSleepingMinKept),
           static_cast<unsigned long long>(report.flagged_degraded));
  if (report.scored) {
    append_f(out,
             "- vs injected ground truth (>= %llu true failures): precision %.3f, "
             "recall %.3f, F1 %.3f (tp %llu, fp %llu, fn %llu of %llu truly sleeping)\n",
             static_cast<unsigned long long>(kTruthMinFailures),
             report.score.precision(), report.score.recall(), report.score.f1(),
             static_cast<unsigned long long>(report.score.true_positives),
             static_cast<unsigned long long>(report.score.false_positives),
             static_cast<unsigned long long>(report.score.false_negatives),
             static_cast<unsigned long long>(report.truth_sleeping));
    append_f(out, "- Zipf-rank agreement (Spearman): %.3f over %llu cells\n",
             report.rank_spearman, static_cast<unsigned long long>(report.rank_n));
    if (!report.time_to_detect_s.empty()) {
      append_f(out, "- time to detect: p50 %.0f s, p90 %.0f s, max %.0f s\n",
               report.time_to_detect_s.quantile(0.5),
               report.time_to_detect_s.quantile(0.9), report.time_to_detect_s.max());
    }
  }
  if (report.findings.empty()) {
    out += "  (no cells flagged)\n";
    return out;
  }
  append_f(out, "  %-8s %-9s %6s %9s %10s %8s %12s\n", "bs", "verdict", "kept",
           "filtered", "peak-ewma", "silence", "flagged-at-s");
  const std::size_t n = std::min(top, report.findings.size());
  for (std::size_t i = 0; i < n; ++i) {
    const CellFinding& f = report.findings[i];
    char flagged[32];
    if (f.verdict == CellVerdict::kSleeping) {
      std::snprintf(flagged, sizeof(flagged), "%.0f",
                    static_cast<double>(f.flagged_at_us) / 1e6);
    } else {
      std::snprintf(flagged, sizeof(flagged), "-");
    }
    append_f(out, "  %-8llu %-9s %6llu %9llu %10.2f %8u %12s\n",
             static_cast<unsigned long long>(f.bs),
             std::string(to_string(f.verdict)).c_str(),
             static_cast<unsigned long long>(f.kept),
             static_cast<unsigned long long>(f.filtered), f.peak_ewma,
             f.max_silence_windows, flagged);
  }
  if (n < report.findings.size()) {
    append_f(out, "  ... %zu more\n", report.findings.size() - n);
  }
  return out;
}

void publish_health_metrics(const HealthReport& report, obs::MetricRegistry& registry) {
  registry.counter("health.cells.tracked").add(report.cells_tracked);
  registry.counter("health.records.seen").add(report.records_seen);
  registry.counter("health.records.kept").add(report.records_kept);
  registry.counter("health.records.filtered").add(report.records_filtered);
  registry.counter("health.flagged.sleeping").add(report.flagged_sleeping);
  registry.counter("health.flagged.degraded").add(report.flagged_degraded);
  if (!report.scored) return;
  registry.counter("health.truth.sleeping").add(report.truth_sleeping);
  registry.counter("health.score.true_positives").add(report.score.true_positives);
  registry.counter("health.score.false_positives").add(report.score.false_positives);
  registry.counter("health.score.false_negatives").add(report.score.false_negatives);
  registry.gauge("health.score.precision").set(report.score.precision());
  registry.gauge("health.score.recall").set(report.score.recall());
  registry.gauge("health.score.f1").set(report.score.f1());
  registry.gauge("health.rank.spearman").set(report.rank_spearman);
  // Shape is a pure function of the scenario (horizon = campaign span).
  LinearHistogram& ttd =
      registry.histogram("health.time_to_detect_s", 0.0, report.config.horizon_s, 48);
  for (double s : report.time_to_detect_s.sorted()) ttd.add(s);
}

double incident_coverage(const HealthReport& report, std::span<const BsIndex> affected) {
  if (affected.empty()) return 1.0;
  std::vector<BsIndex> flagged;
  flagged.reserve(report.findings.size());
  for (const CellFinding& f : report.findings) flagged.push_back(f.bs);
  std::sort(flagged.begin(), flagged.end());
  std::size_t hit = 0;
  for (const BsIndex bs : affected) {
    if (std::binary_search(flagged.begin(), flagged.end(), bs)) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(affected.size());
}

}  // namespace cellrel::detect

// cellrel-detect: sleeping-cell verdicts and ground-truth scoring.
//
// The SleepingCellDetector is the single-threaded, post-merge half of the
// detection service: it replays the HealthTracker's window series (the
// campaign merge's fold of the uploaded records) in sim-time order,
// computes per-cell kept-rate EWMAs and silence gaps, and issues verdicts —
// kSleeping for cells whose kept-failure evidence crosses kSleepingMinKept,
// kDegraded for cells with a sustained elevated kept rate below it. Because
// the tracker state is an order-independent fold of integers, the verdict
// list, the scores, and the serialized report are bit-identical for every
// `--threads` value.
//
// Scoring: when the caller supplies the registry's true per-BS failure
// counts (injected ground truth the detector itself never sees), flagged
// cells are scored as precision/recall/F1 against the truly-sleeping set
// (true count >= kTruthMinFailures), a time-to-detect distribution is
// built over the true positives, and a Spearman rank correlation compares
// the detector's kept-count ranking with the true Zipf failure ranking.
// Without ground truth (offline replay over an exported dataset in
// cellrel_analyze) the report carries verdicts only.

#ifndef CELLREL_DETECT_DETECTOR_H
#define CELLREL_DETECT_DETECTOR_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "detect/health.h"
#include "obs/metrics.h"

namespace cellrel::detect {

// Verdict thresholds, tuned on the golden scenario
// (tests/workload/detection_campaign_test.cpp keeps them honest against
// injected ground truth). The health JSON's "config" object prints them.

/// EWMA smoothing factor over per-window kept-event counts.
inline constexpr double kEwmaAlpha = 0.3;
/// Kept-record evidence at which a cell is flagged sleeping.
inline constexpr std::uint64_t kSleepingMinKept = 8;
/// Peak kept-rate EWMA (events/window) at which a still-unflagged cell is
/// reported degraded.
inline constexpr double kDegradedMinEwma = 1.0;
/// Ground-truth failure count at which a cell counts as truly sleeping when
/// the report is scored against the registry.
inline constexpr std::uint64_t kTruthMinFailures = 8;

enum class CellVerdict : std::uint8_t {
  kDegraded = 0,
  kSleeping = 1,
};

std::string_view to_string(CellVerdict v);

/// One flagged cell (healthy cells are not listed).
struct CellFinding {
  BsIndex bs = kInvalidBs;
  CellVerdict verdict = CellVerdict::kDegraded;
  std::uint64_t events = 0;
  std::uint64_t kept = 0;
  std::uint64_t filtered = 0;
  std::array<std::uint64_t, kFailureTypeCount> type_counts{};
  /// Peak of the kept-rate EWMA over the window series (events/window).
  double peak_ewma = 0.0;
  /// Longest run of event-free windows between the cell's first and last
  /// active window (its deepest observed silence).
  std::uint32_t max_silence_windows = 0;
  std::int64_t first_event_us = 0;
  std::int64_t last_event_us = 0;
  /// Sleeping cells: end of the window in which the kept-evidence threshold
  /// was crossed — the moment an online consumer would have been paged.
  /// -1 for degraded cells.
  std::int64_t flagged_at_us = -1;
  /// Ground truth (scored reports only; 0 / false otherwise).
  std::uint64_t true_failures = 0;
  bool truly_sleeping = false;
};

/// Sleeping-verdict confusion counts vs the truly-sleeping set. The
/// accessors guard the empty denominators (a zero-failure fleet yields
/// 0/0/0 and scores of 0, never NaN).
struct DetectionScore {
  std::uint64_t true_positives = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;

  double precision() const {
    const std::uint64_t flagged = true_positives + false_positives;
    return flagged == 0 ? 0.0
                        : static_cast<double>(true_positives) /
                              static_cast<double>(flagged);
  }
  double recall() const {
    const std::uint64_t truth = true_positives + false_negatives;
    return truth == 0 ? 0.0
                      : static_cast<double>(true_positives) /
                            static_cast<double>(truth);
  }
  double f1() const {
    const double p = precision();
    const double r = recall();
    return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
  }
};

struct HealthReport {
  HealthConfig config;
  /// Flagged cells: sleeping first, then degraded; within a verdict by
  /// kept-count descending, BS index ascending. Deterministic total order.
  std::vector<CellFinding> findings;
  std::uint64_t cells_tracked = 0;
  std::uint64_t records_seen = 0;
  std::uint64_t records_kept = 0;
  std::uint64_t records_filtered = 0;
  std::uint64_t flagged_sleeping = 0;
  std::uint64_t flagged_degraded = 0;

  /// Ground-truth sections (valid when `scored`).
  bool scored = false;
  std::uint64_t truth_sleeping = 0;
  DetectionScore score;
  /// Seconds from a true positive's first observed event to its flag time.
  SampleSet time_to_detect_s;
  /// Spearman rank correlation between the detector's kept-count ranking
  /// and the true failure-count ranking, over the truly-sleeping set.
  double rank_spearman = 0.0;
  std::uint64_t rank_n = 0;
};

class SleepingCellDetector {
 public:
  explicit SleepingCellDetector(HealthConfig config) : config_(config) {}

  /// Builds the report from the tracker's state. `true_failures` is the
  /// registry's per-BS ground truth (index-aligned; pass an empty span for
  /// unscored offline replay).
  HealthReport analyze(const HealthTracker& tracker,
                       std::span<const std::uint64_t> true_failures) const;

 private:
  HealthConfig config_;
};

/// Byte-deterministic JSON serialization of the report (the --health-out
/// payload): %.17g doubles, findings in report order, no host state.
std::string health_report_to_json(const HealthReport& report);

/// Human-readable "BS health" section for the CLI tools; lists at most
/// `top` findings.
std::string render_health_report(const HealthReport& report, std::size_t top);

/// Publishes the report under the "health." namespace of `registry`
/// (counters, [0,1]-bounded score gauges, the time-to-detect histogram).
/// Everything published is sim-derived and thread-count independent.
void publish_health_metrics(const HealthReport& report,
                            obs::MetricRegistry& registry);

/// Incident-aware scoring (DESIGN.md §13): the fraction of `affected` BSes
/// (a scenario's injected incident ground truth, e.g. the degraded-cluster
/// set) that appear among the report's findings with any verdict. An empty
/// affected set is vacuously covered (1.0). Pure and order-insensitive.
double incident_coverage(const HealthReport& report, std::span<const BsIndex> affected);

}  // namespace cellrel::detect

#endif  // CELLREL_DETECT_DETECTOR_H

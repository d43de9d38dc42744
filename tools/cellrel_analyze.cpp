// cellrel_analyze — offline analysis of an exported dataset directory.
//
// Subcommand CLI:
//   cellrel_analyze report DATASET_DIR
//   cellrel_analyze health DATASET_DIR [--window S]
//
// `report` loads the CSVs written by `cellrel_campaign --out DIR` and prints
// the full §3 report (render_full_report) to stdout; redirect it to keep it.
// `health` replays the dataset's records through the BS-health tracker
// (src/detect) and prints the detector's verdicts — offline datasets carry
// no ground-truth annotations, so the report is unscored. Anything else
// (queries included: those are cellrel_query's) prints the usage and exits 2.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/aggregate.h"
#include "analysis/batch.h"
#include "analysis/csv_io.h"
#include "analysis/full_report.h"
#include "cli.h"
#include "detect/detector.h"

using namespace cellrel;

namespace {

bool load_dataset(const std::string& dir, TraceDataset* dataset) {
  try {
    *dataset = read_dataset_csv(dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
  return true;
}

void run_health_replay(const TraceDataset& dataset, double window_s) {
  detect::HealthConfig hc;
  hc.window_s = window_s;
  // Horizon from the data: the last record's timestamp, rounded up to a
  // whole number of windows (the exporter does not persist the campaign
  // length).
  double last_s = 0.0;
  for (const TraceRecord& r : dataset.records) {
    last_s =
        std::max(last_s, static_cast<double>(r.at.since_origin().count_us()) / 1'000'000.0);
  }
  hc.horizon_s = std::max(1.0, std::ceil(last_s / hc.window_s)) * hc.window_s;
  detect::HealthTracker tracker(hc);
  for (const TraceRecord& r : dataset.records) tracker.ingest(RecordBatch::row_of(r));
  detect::SleepingCellDetector detector(hc);
  const detect::HealthReport report = detector.analyze(tracker, {});
  std::fputs(detect::render_health_report(report, 10).c_str(), stdout);
}

int usage_exit(const cli::Parser& parser, const cli::ParseResult& parsed,
               const char* positional_hint) {
  if (parsed.help_requested) {
    std::fputs(parser.usage().c_str(), stdout);
    return 0;
  }
  if (parsed.ok && positional_hint) std::fprintf(stderr, "%s\n", positional_hint);
  std::fputs(parser.usage().c_str(), stderr);
  return 2;
}

int cmd_report(int argc, char** argv) {
  cli::Parser parser("cellrel_analyze report", "DATASET_DIR");
  const cli::ParseResult parsed = parser.parse(argc, argv);
  if (parsed.help_requested || !parsed.ok || parsed.positionals.size() != 1) {
    return usage_exit(parser, parsed, "expected exactly one DATASET_DIR argument");
  }

  TraceDataset dataset;
  if (!load_dataset(parsed.positionals[0], &dataset)) return 1;
  std::fputs(render_full_report(Aggregator(dataset)).c_str(), stdout);
  return 0;
}

int cmd_health(int argc, char** argv) {
  double window_s = 86'400.0;
  cli::Parser parser("cellrel_analyze health", "DATASET_DIR");
  parser.add_option("--window", "S", "detection window in simulated seconds",
                    cli::double_value(&window_s));
  const cli::ParseResult parsed = parser.parse(argc, argv);
  if (parsed.help_requested || !parsed.ok || parsed.positionals.size() != 1) {
    return usage_exit(parser, parsed, "expected exactly one DATASET_DIR argument");
  }

  TraceDataset dataset;
  if (!load_dataset(parsed.positionals[0], &dataset)) return 1;
  run_health_replay(dataset, window_s);
  return 0;
}

constexpr const char* kUsage =
    "usage: cellrel_analyze report DATASET_DIR\n"
    "       cellrel_analyze health DATASET_DIR [--window S]\n"
    "run `cellrel_analyze <subcommand> --help` for the subcommand's options\n";

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    const char* cmd = argv[1];
    // Shift so the subcommand parser sees only its own flags; argv[1]
    // becomes the de-facto argv[0] the parser skips.
    if (std::strcmp(cmd, "report") == 0) return cmd_report(argc - 1, argv + 1);
    if (std::strcmp(cmd, "health") == 0) return cmd_health(argc - 1, argv + 1);
  }
  const bool help = argc == 2 && (std::strcmp(argv[1], "--help") == 0 ||
                                   std::strcmp(argv[1], "-h") == 0);
  std::fputs(kUsage, help ? stdout : stderr);
  return help ? 0 : 2;
}

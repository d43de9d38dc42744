// cellrel_analyze — offline analysis of an exported dataset directory.
//
// Subcommand CLI:
//   cellrel_analyze report DATASET_DIR [--figures] [--report OUT.md]
//   cellrel_analyze health DATASET_DIR [--window S]
//
// `report` loads the CSVs written by `cellrel_campaign --out DIR` and prints
// the §3 analysis: headline statistics, device slices, ISP/BS landscape,
// error codes, signal levels, and (with --figures) CDF / transition-matrix
// figures. `health` replays the dataset's records through the online
// BS-health tracker (src/detect) and prints the detector's verdicts —
// offline datasets carry no ground-truth annotations, so the report is
// unscored. Anything else (queries included: those are cellrel_query's)
// prints the usage and exits 2.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "analysis/aggregate.h"
#include "analysis/csv_io.h"
#include "analysis/full_report.h"
#include "analysis/report.h"
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

void print_summary(const TraceDataset& dataset, const Aggregator& agg) {
  std::printf("loaded %zu records, %zu devices, %zu base stations\n\n",
              dataset.records.size(), dataset.devices.size(),
              dataset.base_stations.size());

  const auto overall = agg.overall();
  std::printf("prevalence %.1f%% | frequency %.1f | kept failures %llu\n",
              overall.prevalence() * 100.0, overall.frequency(),
              static_cast<unsigned long long>(overall.failures));

  const SampleSet durations = agg.durations_all();
  const auto share = agg.duration_share_by_type();
  std::printf("duration: mean %.0f s, median %.1f s, <30 s %.1f%%, stall share %.1f%%\n\n",
              durations.mean(), durations.median(), durations.fraction_below(30.0) * 100.0,
              share[index_of(FailureType::kDataStall)] * 100.0);

  TextTable isps({"ISP", "devices", "prevalence", "frequency"});
  const auto by_isp = agg.by_isp();
  for (IspId isp : kAllIsps) {
    const auto& pf = by_isp[index_of(isp)];
    isps.add_row({std::string(to_string(isp)), std::to_string(pf.devices),
                  TextTable::percent(pf.prevalence()), TextTable::num(pf.frequency(), 1)});
  }
  std::fputs(isps.render().c_str(), stdout);

  std::printf("\ntop Data_Setup_Error codes:\n");
  for (const auto& code : agg.top_error_codes(10)) {
    std::printf("  %-32s %5.1f%%\n", std::string(to_string(code.cause)).c_str(),
                code.percent);
  }

  const auto norm = agg.normalized_prevalence_by_level();
  std::printf("\nnormalized prevalence by level:");
  for (std::size_t l = 0; l < kSignalLevelCount; ++l) std::printf(" L%zu=%.3f", l, norm[l]);
  std::printf("\n");
  const auto fit = agg.bs_zipf_fit();
  std::printf("BS Zipf fit: a=%.2f r2=%.2f\n", fit.a, fit.r_squared);
}

void print_figures(const Aggregator& agg) {
  const SampleSet durations = agg.durations_all();
  std::printf("\nduration CDF:\n%s", render_cdf(durations, default_cdf_quantiles()).c_str());
  std::printf("\n4G->5G transition increases:\n%s",
              render_transition_matrix(agg.transition_increase(Rat::k4G, Rat::k5G),
                                       "4G level-i -> 5G level-j").c_str());
}

int write_full_report(const Aggregator& agg, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  out << render_full_report(agg);
  std::printf("\nfull report written to %s\n", path.c_str());
  return 0;
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
  for (const TraceRecord& r : dataset.records) tracker.on_record(r);
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
  bool figures = false;
  std::string report_path;
  cli::Parser parser("cellrel_analyze report", "DATASET_DIR");
  parser.add_flag("--figures", "print CDF / transition-matrix figures",
                  [&figures] { figures = true; });
  parser.add_option("--report", "OUT.md", "write the full §3 report to OUT.md",
                    cli::string_value(&report_path));
  const cli::ParseResult parsed = parser.parse(argc, argv);
  if (parsed.help_requested || !parsed.ok || parsed.positionals.size() != 1) {
    return usage_exit(parser, parsed, "expected exactly one DATASET_DIR argument");
  }

  TraceDataset dataset;
  if (!load_dataset(parsed.positionals[0], &dataset)) return 1;
  const Aggregator agg(dataset);
  print_summary(dataset, agg);
  if (figures) print_figures(agg);
  if (!report_path.empty()) return write_full_report(agg, report_path);
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
    "usage: cellrel_analyze report DATASET_DIR [--figures] [--report OUT.md]\n"
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

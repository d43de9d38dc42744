// cellrel_campaign — the command-line campaign runner.
//
// Runs a measurement (or enhancement) campaign, prints the headline report,
// and optionally exports the backend dataset as CSV for offline analysis
// with cellrel_analyze, and/or the observability metrics as JSON/CSV.
//
// --threads 0 uses every hardware thread; any value produces a dataset AND
// a --metrics-out file bit-identical to --threads 1 (the CELLREL_THREADS
// env var, if set, wins).
//
// --metrics-process adds the process.* metrics (resident batch bytes, spill
// volume) to --metrics-out / --metrics-csv. They differ between --stream and
// the default path, so the default export leaves them out.
//
// Every campaign folds its shards' columnar record batches into one
// Aggregator at merge time, and the report is printed from it. --stream
// skips materializing the merged dataset, so it never exists in memory; the
// printed report and --metrics-out file are bit-identical to the default
// path.
// --spill-dir DIR additionally spills sealed batches to per-shard CSV files
// under DIR, bounding batch residency to O(shards x batch capacity).
// --out DIR writes the CSV export from the merge in either mode (every file
// byte-identical with or without --stream).
//
// --detect runs the sleeping-cell detector (src/detect): the shard merge
// feeds every uploaded record to one BS-health tracker, whose verdicts are
// scored against the injected ground truth. The verdict
// prints as a "BS health" section, exports under the health.* metric
// namespace, and --health-out FILE writes the full report as JSON
// (byte-identical for every --threads value).

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/aggregate.h"
#include "analysis/report.h"
#include "cli.h"
#include "detect/detector.h"
#include "obs/export.h"
#include "query/export.h"
#include "query/presets.h"
#include "workload/campaign.h"

using namespace cellrel;

namespace {

/// Headline report from the campaign's Aggregator (identical output bytes
/// with or without --stream).
void print_report(const Aggregator& agg, const CampaignResult& result) {
  const auto overall = agg.overall();
  const SampleSet durations = agg.durations_all();
  const auto share = agg.duration_share_by_type();
  std::printf("devices %llu | failing %llu (%.1f%%) | kept failures %llu | "
              "mean duration %.0f s | stall share %.1f%%\n",
              static_cast<unsigned long long>(overall.devices),
              static_cast<unsigned long long>(overall.failing_devices),
              overall.prevalence() * 100.0,
              static_cast<unsigned long long>(overall.failures), durations.mean(),
              share[index_of(FailureType::kDataStall)] * 100.0);
  std::printf("filter precision %.3f recall %.3f | simulated events %llu | episodes %llu\n",
              agg.filter_score().precision(), agg.filter_score().recall(),
              static_cast<unsigned long long>(result.simulated_events),
              static_cast<unsigned long long>(result.episodes_run));
}

/// File-name-safe spelling of a query name for --query-out.
std::string sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out.empty() ? std::string("query") : out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Scenario sc;
  sc.name = "cli";
  sc.device_count = 4000;
  sc.deployment.bs_count = 8000;
  std::string metrics_out;
  std::string metrics_csv;
  std::string health_out;
  std::string query_out;
  obs::ExportOptions metrics_options;
  bool print_metrics = false;
  bool quiet = false;

  cli::Parser parser("cellrel_campaign");
  parser.add_option("--devices", "N", "fleet size", cli::u32_value(&sc.device_count));
  parser.add_option("--bs", "N", "base-station count",
                    cli::u32_value(&sc.deployment.bs_count));
  parser.add_option("--days", "D", "campaign length in days",
                    cli::double_value(&sc.campaign_days));
  parser.add_option("--seed", "S", "master RNG seed", cli::u64_value(&sc.seed));
  parser.add_option("--threads", "N", "worker threads (0 = all hardware threads)",
                    cli::u32_value(&sc.threads));
  parser.add_option("--policy", "stock|stability", "RAT selection policy variant",
                    [&sc](std::string_view v) {
                      const auto parsed = parse_policy_variant(v);
                      if (!parsed) return false;
                      sc.policy = *parsed;
                      return true;
                    });
  parser.add_option("--recovery", "vanilla|timp", "Data_Stall recovery schedule",
                    [&sc](std::string_view v) {
                      const auto parsed = parse_recovery_variant(v);
                      if (!parsed) return false;
                      sc.recovery = *parsed;
                      return true;
                    });
  bool incident_convenience = false;
  parser.add_flag("--mobility", "enable the deterministic mobility model (waypoint traces)",
                  [&sc] { sc.mobility.enabled = true; });
  parser.add_option("--mobility-legs", "L", "movement legs per day (implies --mobility)",
                    [&sc](std::string_view v) {
                      if (!cli::double_value(&sc.mobility.legs_per_day)(v)) return false;
                      sc.mobility.enabled = true;
                      return true;
                    });
  parser.add_option("--mobility-commuters", "F",
                    "commuter (anchor-pair) fleet fraction (implies --mobility)",
                    [&sc](std::string_view v) {
                      if (!cli::double_value(&sc.mobility.commuter_fraction)(v)) return false;
                      sc.mobility.enabled = true;
                      return true;
                    });
  parser.add_option("--incident", "outage|roaming|degradation|fault",
                    "enable an incident family with a default mid-campaign window",
                    [&sc, &incident_convenience](std::string_view v) {
                      incident_convenience = true;
                      if (v == "outage") {
                        sc.incident.outage = true;
                      } else if (v == "roaming") {
                        sc.incident.outage = true;
                        sc.incident.national_roaming = true;
                      } else if (v == "degradation") {
                        if (sc.incident.degraded_clusters == 0) {
                          sc.incident.degraded_clusters = 4;
                        }
                      } else if (v == "fault") {
                        if (sc.incident.fault == NetworkFault::kNone) {
                          sc.incident.fault = NetworkFault::kModemDriverWedged;
                        }
                      } else {
                        return false;
                      }
                      return true;
                    });
  parser.add_option("--outage-isp", "A|B|C", "ISP hit by the regional outage (implies it)",
                    [&sc](std::string_view v) {
                      for (const IspId isp : kAllIsps) {
                        const std::string_view name = to_string(isp);
                        if (v == name || (v.size() == 1 && name.ends_with(v))) {
                          sc.incident.outage_isp = isp;
                          sc.incident.outage = true;
                          return true;
                        }
                      }
                      return false;
                    });
  parser.add_option("--outage-start", "D", "outage start day (implies the outage)",
                    [&sc](std::string_view v) {
                      if (!cli::double_value(&sc.incident.outage_start_day)(v)) return false;
                      sc.incident.outage = true;
                      return true;
                    });
  parser.add_option("--outage-days", "D", "outage window length (implies the outage)",
                    [&sc](std::string_view v) {
                      if (!cli::double_value(&sc.incident.outage_days)(v)) return false;
                      sc.incident.outage = true;
                      return true;
                    });
  parser.add_option("--outage-region", "F",
                    "affected fraction of the ISP's BSes (implies the outage)",
                    [&sc](std::string_view v) {
                      if (!cli::double_value(&sc.incident.outage_region_fraction)(v)) {
                        return false;
                      }
                      sc.incident.outage = true;
                      return true;
                    });
  parser.add_flag("--roaming", "national-roaming fallback for outage sessions",
                  [&sc] { sc.incident.national_roaming = true; });
  parser.add_option("--degraded-clusters", "N", "degraded BS clusters (0 = off)",
                    cli::u32_value(&sc.incident.degraded_clusters));
  parser.add_option("--cluster-size", "N", "BSes per degraded cluster",
                    cli::u32_value(&sc.incident.cluster_size));
  parser.add_option("--degradation-start", "D", "degradation-wave start day",
                    cli::double_value(&sc.incident.degradation_start_day));
  parser.add_option("--degradation-days", "D", "degradation-wave window length",
                    cli::double_value(&sc.incident.degradation_days));
  parser.add_option("--degradation-severity", "X",
                    "failure-probability multiplier on degraded BSes",
                    cli::double_value(&sc.incident.degradation_severity));
  parser.add_option("--fault", "NAME",
                    "schedule an Android-layer fault (e.g. modem-driver-wedged)",
                    [&sc](std::string_view v) {
                      const auto parsed = parse_network_fault(v);
                      if (!parsed) return false;
                      sc.incident.fault = *parsed;
                      return true;
                    });
  parser.add_option("--fault-start", "D", "fault-injection start day",
                    cli::double_value(&sc.incident.fault_start_day));
  parser.add_option("--fault-days", "D", "fault-injection window length",
                    cli::double_value(&sc.incident.fault_days));
  parser.add_flag("--no-probing", "disable the monitor's probe ladder",
                  [&sc] { sc.monitor_probing = false; });
  parser.add_flag("--no-dualconn", "disable 4G/5G dual connectivity",
                  [&sc] { sc.dual_connectivity = false; });
  parser.add_flag("--stream", "streaming aggregation (merged dataset never materialized)",
                  [&sc] { sc.stream = true; });
  parser.add_option("--spill-dir", "DIR",
                    "spill sealed record batches to DIR (requires --stream)",
                    cli::string_value(&sc.spill_dir));
  parser.add_flag("--detect", "sleeping-cell detection (BS-health tracker)",
                  [&sc] { sc.detect = true; });
  parser.add_option("--detect-window", "S", "detection window in simulated seconds",
                    cli::double_value(&sc.detect_window_s));
  parser.add_option("--health-out", "FILE", "export the BS-health report as JSON",
                    cli::string_value(&health_out));
  parser.add_option("--query", "SPEC", "run an inline query at merge time (repeatable)",
                    [&sc](std::string_view v) {
                      std::string error;
                      const auto spec = query::parse_query_spec(v, &error);
                      if (!spec) {
                        std::fprintf(stderr, "bad --query: %s\n", error.c_str());
                        return false;
                      }
                      sc.inline_queries.push_back(*spec);
                      return true;
                    });
  parser.add_option("--query-preset", "NAME",
                    "run a named query preset at merge time (repeatable)",
                    [&sc](std::string_view v) {
                      const auto spec = query::find_preset(v);
                      if (!spec) {
                        std::fprintf(stderr, "unknown --query-preset: %.*s\n",
                                     static_cast<int>(v.size()), v.data());
                        return false;
                      }
                      sc.inline_queries.push_back(*spec);
                      return true;
                    });
  parser.add_option("--query-out", "DIR",
                    "write inline query results as <name>.json under DIR",
                    cli::string_value(&query_out));
  parser.add_option("--out", "DIR", "export the dataset as CSV into DIR",
                    cli::string_value(&sc.out_dir));
  parser.add_option("--metrics-out", "FILE", "export campaign metrics as JSON",
                    cli::string_value(&metrics_out));
  parser.add_option("--metrics-csv", "FILE", "export campaign metrics as CSV",
                    cli::string_value(&metrics_csv));
  parser.add_flag("--metrics-process",
                  "include the process.* metrics in --metrics-out / --metrics-csv",
                  [&metrics_options] { metrics_options.include_process = true; });
  parser.add_flag("--print-metrics", "print the metrics table after the report",
                  [&print_metrics] { print_metrics = true; });
  parser.add_flag("--quiet", "suppress the report", [&quiet] { quiet = true; });

  const cli::ParseResult parsed = parser.parse(argc, argv);
  if (parsed.help_requested) {
    std::fputs(parser.usage().c_str(), stdout);
    return 0;
  }
  if (!parsed.ok || !parsed.positionals.empty()) {
    if (!parsed.positionals.empty()) {
      std::fprintf(stderr, "unexpected argument: %s\n", parsed.positionals[0].c_str());
    }
    std::fputs(parser.usage().c_str(), stderr);
    return 2;
  }

  // --incident convenience: families enabled without an explicit window get a
  // mid-campaign default (quarter in, half the campaign long). Explicitly set
  // windows — valid or not — are left alone for validate() to judge.
  if (incident_convenience) {
    const double start = sc.campaign_days * 0.25;
    const double span = sc.campaign_days * 0.5;
    if (sc.incident.outage_enabled() && sc.incident.outage_days == 0.0) {
      sc.incident.outage_start_day = start;
      sc.incident.outage_days = span;
    }
    if (sc.incident.degradation_enabled() && sc.incident.degradation_days == 0.0) {
      sc.incident.degradation_start_day = start;
      sc.incident.degradation_days = span;
    }
    if (sc.incident.fault_schedule_enabled() && sc.incident.fault_days == 0.0) {
      sc.incident.fault_start_day = start;
      sc.incident.fault_days = span;
    }
  }

  const std::vector<ScenarioError> errors = sc.validate();
  if (!errors.empty()) {
    std::fprintf(stderr, "invalid scenario:\n%s", format_errors(errors).c_str());
    return 2;
  }
  if (!health_out.empty() && !sc.detect) {
    std::fprintf(stderr, "error: --health-out requires --detect\n");
    return 2;
  }

  if (!quiet) {
    std::printf("campaign: %u devices, %u BSes, %.0f days, seed %llu, policy=%s, "
                "recovery=%s, probing=%s, threads=%u%s%s%s\n",
                sc.device_count, sc.deployment.bs_count, sc.campaign_days,
                static_cast<unsigned long long>(sc.seed),
                std::string(to_string(sc.policy)).c_str(),
                std::string(to_string(sc.recovery)).c_str(),
                sc.monitor_probing ? "on" : "off", sc.resolve_threads(),
                sc.stream ? ", streaming" : "",
                sc.spill_dir.empty() ? "" : ", spill=", sc.spill_dir.c_str());
  }
  Campaign campaign(sc);
  const CampaignResult result = campaign.run();
  if (!quiet) print_report(*result.stream, result);
  if (!quiet && result.health) {
    std::fputs(detect::render_health_report(*result.health, 10).c_str(), stdout);
  }
  if (print_metrics) std::fputs(render_metrics(result.metrics).c_str(), stdout);

  if (!sc.out_dir.empty() && !quiet) {
    std::printf("dataset written to %s (%llu records, %zu devices, %zu BSes)\n",
                sc.out_dir.c_str(),
                static_cast<unsigned long long>(result.stream->total_records()),
                result.stream->devices().size(), result.stream->base_stations().size());
  }
  if (!health_out.empty() && result.health &&
      !write_file(health_out, detect::health_report_to_json(*result.health))) {
    return 1;
  }
  if (!query_out.empty() && !result.query_results.empty()) {
    std::filesystem::create_directories(query_out);
  }
  for (const query::QueryResult& qr : result.query_results) {
    if (!query_out.empty()) {
      const std::string path =
          (std::filesystem::path(query_out) / (sanitize_name(qr.spec.name) + ".json"))
              .string();
      if (!write_file(path, query::query_result_to_json(qr))) return 1;
    } else if (!quiet) {
      std::printf("\nquery %s:\n%s", qr.spec.name.c_str(),
                  query::query_result_to_text(qr).c_str());
    }
  }
  if (!metrics_out.empty() &&
      !write_file(metrics_out, obs::metrics_to_json(result.metrics, metrics_options))) {
    return 1;
  }
  if (!metrics_csv.empty() &&
      !write_file(metrics_csv, obs::metrics_to_csv(result.metrics, metrics_options))) {
    return 1;
  }
  return 0;
}

// cellrel_query — deterministic queries over exported campaign outputs.
//
// Runs one QuerySpec (a named --preset or a custom --spec) over a dataset
// directory written by `cellrel_campaign --out DIR`, or — with --spill-dir —
// over the per-shard spill CSVs of a streaming campaign, taking the fleet
// and BS sidecars from DATASET_DIR. Output is byte-deterministic: the same
// scenario produces identical bytes whatever the thread count or execution
// mode that wrote the inputs.
//
//   cellrel_query DIR --preset fig5 --format json
//   cellrel_query DIR --spec "agg=pf group=isp series=frequency"
//   cellrel_query --list-presets
//
// Exit codes: 0 ok, 1 execution error, 2 usage error.

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "analysis/csv_io.h"
#include "cli.h"
#include "query/engine.h"
#include "query/export.h"
#include "query/presets.h"
#include "query/spec.h"

using namespace cellrel;

int main(int argc, char** argv) {
  std::string preset_name;  // --preset NAME (XOR --spec)
  std::string spec_text;    // --spec "agg=pf group=model ..."
  bool list_presets = false;
  std::string format = "text";  // text | json | csv
  std::string out_path;         // output file ("" = stdout)
  std::string spill_dir;        // execute over spill shards instead of records.csv

  cli::Parser parser("cellrel_query", "DATASET_DIR");
  parser.add_option("--preset", "NAME", "run a named figure/table preset",
                    cli::string_value(&preset_name));
  parser.add_option("--spec", "SPEC", "run a custom query spec (e.g. \"agg=pf group=model\")",
                    cli::string_value(&spec_text));
  parser.add_flag("--list-presets", "list the named presets and their specs",
                  [&list_presets] { list_presets = true; });
  parser.add_option("--format", "text|json|csv", "output format (default text)",
                    cli::string_value(&format));
  parser.add_option("--out", "FILE", "write the result to FILE instead of stdout",
                    cli::string_value(&out_path));
  parser.add_option("--spill-dir", "DIR",
                    "execute over spill shards in DIR (sidecars from DATASET_DIR)",
                    cli::string_value(&spill_dir));

  const cli::ParseResult parsed = parser.parse(argc, argv);
  if (parsed.help_requested) {
    std::fputs(parser.usage().c_str(), stdout);
    return 0;
  }
  if (!parsed.ok) {
    std::fputs(parser.usage().c_str(), stderr);
    return 2;
  }

  if (list_presets) {
    std::fputs(query::render_preset_list().c_str(), stdout);
    return 0;
  }
  if (preset_name.empty() == spec_text.empty()) {
    std::fprintf(stderr, "error: exactly one of --preset or --spec is required\n");
    return 2;
  }
  if (parsed.positionals.size() != 1) {
    std::fprintf(stderr, "error: expected exactly one DATASET_DIR argument\n");
    return 2;
  }
  if (format != "text" && format != "json" && format != "csv") {
    std::fprintf(stderr, "error: unknown --format %s (text|json|csv)\n", format.c_str());
    return 2;
  }

  query::QuerySpec spec;
  if (!preset_name.empty()) {
    const auto preset = query::find_preset(preset_name);
    if (!preset) {
      std::fprintf(stderr, "error: unknown preset %s (try --list-presets)\n",
                   preset_name.c_str());
      return 2;
    }
    spec = *preset;
  } else {
    std::string error;
    const auto spec_parsed = query::parse_query_spec(spec_text, &error);
    if (!spec_parsed) {
      std::fprintf(stderr, "error: bad --spec: %s\n", error.c_str());
      return 2;
    }
    spec = *spec_parsed;
  }

  query::QueryResult result;
  try {
    const std::string& dataset_dir = parsed.positionals[0];
    if (!spill_dir.empty()) {
      // Spill shards carry only the record stream; fleet/BS/transition
      // sidecars come from the dataset directory.
      const TraceDataset sidecars = read_dataset_sidecars_csv(dataset_dir);
      result = query::execute_over_spill(spill_dir, sidecars, spec);
    } else {
      const TraceDataset dataset = read_dataset_csv(dataset_dir);
      result = query::execute_over_dataset(dataset, spec);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::string rendered;
  if (format == "json") {
    rendered = query::query_result_to_json(result);
  } else if (format == "csv") {
    rendered = query::query_result_to_csv(result);
  } else {
    rendered = query::query_result_to_text(result);
  }

  if (out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << rendered;
  return 0;
}

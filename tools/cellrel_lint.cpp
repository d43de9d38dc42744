// cellrel-lint CLI: token-aware layering, determinism, and ownership checks
// for the cellrel source tree. Registered as a ctest so tier-1 fails on
// violations.
//
//   cellrel_lint <src-root> [<src-root>...] [options]
//
// Options:
//   --sarif FILE           also write findings as SARIF 2.1.0 JSON
//
// Exit codes: 0 = clean, 1 = violations found, 2 = usage or I/O error.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli.h"
#include "lint/cellrel_lint.h"
#include "lint/report.h"

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using cellrel::lint::ReportEntry;

  std::string sarif_path;

  cellrel::cli::Parser parser("cellrel_lint", "SRC_ROOT [SRC_ROOT...]");
  parser.add_option("--sarif", "FILE", "write findings as SARIF 2.1.0 JSON",
                    cellrel::cli::string_value(&sarif_path));

  const cellrel::cli::ParseResult r = parser.parse(argc, argv);
  if (r.help_requested) {
    std::fputs(parser.usage().c_str(), stdout);
    return 0;
  }
  if (!r.ok || r.positionals.empty()) {
    if (r.positionals.empty() && r.ok) {
      std::fputs("cellrel_lint: at least one SRC_ROOT is required\n", stderr);
    }
    std::fputs(parser.usage().c_str(), stderr);
    return 2;
  }

  std::vector<ReportEntry> entries;
  bool io_error = false;
  for (const std::string& root : r.positionals) {
    const auto violations = cellrel::lint::lint_tree(root);
    for (const auto& v : violations) {
      if (v.rule == "io-error") io_error = true;
      ReportEntry e;
      e.rule = v.rule;
      e.uri = v.file.empty() ? std::string() : root + "/" + v.file;
      e.line = v.line;
      e.message = v.message;
      entries.push_back(std::move(e));
    }
  }
  if (io_error) {
    for (const auto& e : entries) {
      std::fprintf(stderr, "%s: [%s] %s\n",
                   e.uri.empty() ? "(tree)" : e.uri.c_str(), e.rule.c_str(),
                   e.message.c_str());
    }
    return 2;
  }

  if (!sarif_path.empty()) {
    if (!write_file(sarif_path, cellrel::lint::to_sarif(entries))) {
      std::fprintf(stderr, "cellrel_lint: cannot write %s\n", sarif_path.c_str());
      return 2;
    }
  }

  for (const auto& e : entries) {
    if (e.uri.empty()) {
      std::fprintf(stderr, "(tree): [%s] %s\n", e.rule.c_str(), e.message.c_str());
    } else {
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", e.uri.c_str(), e.line, e.rule.c_str(),
                   e.message.c_str());
    }
  }

  if (!entries.empty()) {
    std::fprintf(stderr, "cellrel-lint: %zu violation(s) found\n", entries.size());
    return 1;
  }
  std::puts("cellrel-lint: clean");
  return 0;
}

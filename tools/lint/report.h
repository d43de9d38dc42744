// cellrel-lint reporting layer: SARIF 2.1.0 export. There is no baseline
// of accepted findings: every finding fails the run.

#ifndef CELLREL_TOOLS_LINT_REPORT_H
#define CELLREL_TOOLS_LINT_REPORT_H

#include <string>
#include <vector>

#include "lint/cellrel_lint.h"

namespace cellrel::lint {

/// A violation with its path rebased onto the CLI's root argument (so
/// "analysis/x.cpp" under root "src" reports as "src/analysis/x.cpp").
struct ReportEntry {
  std::string rule;
  std::string uri;       // root-joined path; empty for tree-level findings
  std::size_t line = 0;  // 1-based; 0 = no region
  std::string message;
};

/// Serializes findings as a SARIF 2.1.0 document (sorted, byte-stable).
/// Every rule in rule_catalog() appears under tool.driver.rules so ruleIds
/// resolve even when a rule has no results.
std::string to_sarif(const std::vector<ReportEntry>& entries);

}  // namespace cellrel::lint

#endif  // CELLREL_TOOLS_LINT_REPORT_H

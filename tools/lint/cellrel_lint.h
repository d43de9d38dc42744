// cellrel-lint v2: the project's in-tree static analysis engine.
//
// All rules run on the token stream produced by lint/lexer.h (comments,
// string/char literals, and raw strings can never trip a rule), plus two
// tree-level passes over the include graph. Rule families:
//
//  per-file, token-aware
//  1. layering        — modules may only include same-or-lower layers:
//                          layer 0: common, sim, obs
//                          layer 1: radio, bs, device, net
//                          layer 2: telephony, core
//                          layer 3: workload, timp, analysis
//  2. nondeterminism  — wall-clock and unseeded-randomness primitives
//                       (std::rand, srand, system_clock, time(nullptr),
//                       std::random_device, ...) banned everywhere except
//                       common/rng (randomness) and src/obs (wall clock).
//  3. naked-new       — `new` / `delete` expressions banned (`= delete` ok).
//  4. threading       — <thread>/<mutex>/<atomic>/... confined to
//                       common/thread_pool.*, workload/campaign.cpp, and
//                       common/check.cpp.
//  5. obs             — obs headers only for instrumented modules; <chrono>
//                       only inside src/obs.
//  6. shard-state     — namespace-scope or function-static *mutable* state
//                       is banned outside an explicit allowlist: shards run
//                       concurrently, and any mutable static is shared
//                       cross-shard state that breaks the bit-identity
//                       contract. const/constexpr data is fine.
//  7. ordered-export  — iteration over std::unordered_{map,set,...} is
//                       banned in the deterministic export surface (src/obs,
//                       src/analysis, and the campaign merge path):
//                       iteration order is implementation-defined and leaks
//                       straight into exported bytes.
//  8. nodiscard-check — results of must-check APIs (Scenario::validate,
//                       parse_* in common/names.h) may not be discarded;
//                       an explicit `(void)` cast opts out.
//  9. batch-hygiene   — raw `std::string` and per-record heap allocation
//                       (new / make_unique / make_shared) are banned in the
//                       columnar batch hot path (analysis/batch.*): APN text
//                       is interned through StringPool/ApnId and columns only
//                       grow through vector reserve (a spilling shard
//                       clears and refills its one batch in place).
//                       `std::string_view` is fine.
//
//  tree-level
// 10. module-cycle    — the module dependency graph must stay acyclic.
// 11. include-cycle   — the file-level include graph must stay acyclic.
// 12. include-guard   — every header needs #pragma once or a classic
//                       #ifndef/#define guard.
//
// Suppressions: a finding on line N is suppressed by a comment on line N
// (or on a comment-only line N-1) of the form
//     // cellrel-lint: allow(rule) -- <reason>
// The reason is mandatory; an empty reason is itself a hard failure
// ("bad-suppression", never suppressible).
//
// The library half is separated from main() so the rules are unit-testable
// against fixture trees (tests/lint_fixtures). SARIF output lives in
// lint/report.h.

#ifndef CELLREL_TOOLS_LINT_CELLREL_LINT_H
#define CELLREL_TOOLS_LINT_CELLREL_LINT_H

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace cellrel::lint {

struct Violation {
  std::string file;     // path relative to the scanned root
  std::size_t line = 0; // 1-based; 0 for tree-level findings (cycles)
  std::string rule;     // one of the rule ids listed in rule_catalog()
  std::string message;
};

/// Static metadata for one rule family (feeds --help and SARIF `rules`).
struct RuleInfo {
  std::string id;
  std::string description;
};

/// Every rule id the engine can emit, sorted by id.
const std::vector<RuleInfo>& rule_catalog();

/// Module name -> layer rank for the cellrel source tree.
const std::map<std::string, int>& default_layers();

/// One must-check API for the nodiscard-check rule.
struct MustCheckApi {
  std::string name;        // function name as it appears at the call site
  bool member_only = false;  // match only `obj.name(...)` / `p->name(...)`
};

/// Tunable knobs; default_options() encodes the project policy.
struct LintOptions {
  std::map<std::string, int> layers;
  /// Files (tree-relative) where mutable static state is sanctioned.
  std::set<std::string> shard_state_allowlist;
  /// Modules forming the deterministic export surface (ordered-export).
  std::set<std::string> ordered_export_modules;
  /// Extra files (tree-relative) in the deterministic export surface.
  std::set<std::string> ordered_export_files;
  /// Files (tree-relative) forming the columnar batch hot path, where
  /// batch-hygiene bans std::string and per-record heap allocation.
  std::set<std::string> batch_hot_files;
  /// APIs whose results may not be discarded.
  std::vector<MustCheckApi> must_check;
};

LintOptions default_options();

/// Lints a single file's contents as `module` (pass the tree-relative path
/// for reporting). Covers every per-file rule; the tree-level passes
/// (module/include cycles, include guards) only happen in lint_tree().
std::vector<Violation> lint_source(const std::string& source, const std::string& module,
                                   const std::string& relative_path,
                                   const LintOptions& options);

/// Back-compat shim: default options with custom layers.
std::vector<Violation> lint_source(const std::string& source, const std::string& module,
                                   const std::string& relative_path,
                                   const std::map<std::string, int>& layers);

/// Walks `src_root` recursively (*.h, *.hpp, *.cpp, *.cc) and returns every
/// violation, sorted by file then line.
std::vector<Violation> lint_tree(const std::filesystem::path& src_root,
                                 const LintOptions& options);
std::vector<Violation> lint_tree(const std::filesystem::path& src_root);
std::vector<Violation> lint_tree(const std::filesystem::path& src_root,
                                 const std::map<std::string, int>& layers);

}  // namespace cellrel::lint

#endif  // CELLREL_TOOLS_LINT_CELLREL_LINT_H

#include "lint/cellrel_lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "lint/lexer.h"

namespace cellrel::lint {

namespace {

// ---------------------------------------------------------------------------
// Policy tables.
// ---------------------------------------------------------------------------

/// Unseeded-randomness identifiers banned outside common/rng.
const std::vector<std::pair<std::string, std::string>>& banned_randomness() {
  static const std::vector<std::pair<std::string, std::string>> kBans = {
      {"srand", "use a seeded cellrel::Rng stream instead of srand"},
      {"random_device", "unseeded entropy breaks reproducibility; seed a cellrel::Rng"},
  };
  return kBans;
}

/// Wall-clock identifiers banned everywhere except the obs module, which
/// owns the tree's single sanctioned host-clock read (obs::wall_now_ns).
const std::vector<std::pair<std::string, std::string>>& banned_wall_clock() {
  static const std::vector<std::pair<std::string, std::string>> kBans = {
      {"system_clock", "simulation code must use SimTime, not wall-clock time"},
      {"steady_clock", "simulation code must use SimTime, not wall-clock time"},
      {"high_resolution_clock", "simulation code must use SimTime, not wall-clock time"},
      {"gettimeofday", "simulation code must use SimTime, not wall-clock time"},
      {"clock_gettime", "simulation code must use SimTime, not wall-clock time"},
  };
  return kBans;
}

/// Modules that may depend on the observability layer: obs itself plus the
/// instrumented subsystems. Everything else (common, sim, bs, device, net,
/// timp) must stay metrics-free so the obs layer can never leak into core
/// simulation state.
bool obs_include_allowed(const std::string& module) {
  static const std::set<std::string> kAllowed = {
      "obs", "radio", "telephony", "core", "detect", "workload", "analysis", "query",
  };
  return kAllowed.count(module) != 0;
}

std::string module_of_include(const std::string& include_path) {
  const auto slash = include_path.find('/');
  if (slash == std::string::npos) return "";
  return include_path.substr(0, slash);
}

/// Threading primitive headers confined by the "threading" rule.
const std::vector<std::string>& threading_headers() {
  static const std::vector<std::string> kHeaders = {
      "thread",  "mutex",     "shared_mutex", "atomic",    "condition_variable",
      "future",  "latch",     "barrier",      "semaphore", "stop_token",
      "pthread.h",
  };
  return kHeaders;
}

/// Files allowed to include threading headers: the thread pool itself, the
/// campaign shard executor, and the contract-failure handler slot.
bool threading_allowlisted(const std::string& relative_path) {
  return relative_path.starts_with("common/thread_pool.") ||
         relative_path == "workload/campaign.cpp" ||
         relative_path == "common/check.cpp";
}

const std::set<std::string>& unordered_container_names() {
  static const std::set<std::string> kNames = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
  };
  return kNames;
}

// ---------------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------------

bool tok_is(const std::vector<Token>& v, std::size_t i, TokKind kind, const char* text) {
  return i < v.size() && v[i].kind == kind && v[i].text == text;
}

bool is_punct(const std::vector<Token>& v, std::size_t i, const char* text) {
  return tok_is(v, i, TokKind::kPunct, text);
}

bool is_ident(const std::vector<Token>& v, std::size_t i, const char* text) {
  return tok_is(v, i, TokKind::kIdentifier, text);
}

bool is_any_ident(const std::vector<Token>& v, std::size_t i) {
  return i < v.size() && v[i].kind == TokKind::kIdentifier;
}

/// Index just past the matching ')' for the '(' at `open`, or v.size().
std::size_t skip_parens(const std::vector<Token>& v, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < v.size(); ++i) {
    if (v[i].kind != TokKind::kPunct) continue;
    if (v[i].text == "(") ++depth;
    if (v[i].text == ")") {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return v.size();
}

/// Index just past a balanced template argument list starting at `open`
/// (which must be '<'). Treats '>>' as closing two levels; bails at ';'.
std::size_t skip_angles(const std::vector<Token>& v, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < v.size(); ++i) {
    if (v[i].kind != TokKind::kPunct) continue;
    if (v[i].text == ";") return i;  // malformed; give up
    if (v[i].text == "<") ++depth;
    if (v[i].text == ">") --depth;
    if (v[i].text == ">>") depth -= 2;
    if (depth <= 0 && (v[i].text == ">" || v[i].text == ">>")) return i + 1;
  }
  return v.size();
}

// ---------------------------------------------------------------------------
// Per-file analysis.
// ---------------------------------------------------------------------------

struct QuotedInclude {
  std::string target;
  std::size_t line = 0;
};

struct FileAnalysis {
  std::vector<Violation> violations;
  std::vector<QuotedInclude> quoted_includes;
  bool has_include_guard = true;
};

/// Rules 1, 4, 5 and the include edge collection: preprocessor scan.
void scan_includes(const std::vector<Token>& code, const std::string& module,
                   const std::string& relative_path, const LintOptions& options,
                   int my_rank, FileAnalysis* out) {
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if (!(is_punct(code, i, "#") && code[i].starts_line && is_ident(code, i + 1, "include")))
      continue;
    const Token& target_tok = code[i + 2];
    const std::size_t lineno = target_tok.line;
    if (target_tok.kind == TokKind::kString) {
      const std::string& target = target_tok.text;
      out->quoted_includes.push_back({target, lineno});
      const std::string dep = module_of_include(target);
      if (dep == "obs" && !obs_include_allowed(module)) {
        out->violations.push_back(
            {relative_path, lineno, "obs",
             "module '" + module + "' may not include '" + target +
                 "'; only instrumented modules (radio, telephony, core, "
                 "detect, workload, analysis, query) may depend on the "
                 "observability layer"});
      }
      if (!dep.empty() && dep != module) {
        const auto dep_it = options.layers.find(dep);
        if (dep_it == options.layers.end()) {
          out->violations.push_back({relative_path, lineno, "unknown-module",
                                     "include of unknown module '" + dep + "' (" +
                                         target + ")"});
        } else if (dep_it->second > my_rank) {
          out->violations.push_back(
              {relative_path, lineno, "layering",
               "module '" + module + "' (layer " + std::to_string(my_rank) +
                   ") must not include '" + target + "' from '" + dep + "' (layer " +
                   std::to_string(dep_it->second) + ")"});
        }
      }
    } else if (target_tok.kind == TokKind::kHeaderName) {
      const std::string& target = target_tok.text;
      if (!threading_allowlisted(relative_path)) {
        const auto& banned = threading_headers();
        if (std::find(banned.begin(), banned.end(), target) != banned.end()) {
          out->violations.push_back(
              {relative_path, lineno, "threading",
               "'<" + target + ">' is confined to common/thread_pool.* and the "
               "campaign shard executor; express parallelism as shard indices "
               "handed to for_each_shard"});
        }
      }
      if (target == "chrono" && module != "obs") {
        out->violations.push_back(
            {relative_path, lineno, "obs",
             "'<chrono>' is confined to the obs module; wall-clock reads "
             "must flow through obs::wall_now_ns()"});
      }
    }
  }
}

/// Rule 2: banned randomness / wall-clock identifiers.
void scan_nondeterminism(const std::vector<Token>& code, const std::string& module,
                         const std::string& relative_path, FileAnalysis* out) {
  const bool is_rng_impl =
      module == "common" && relative_path.find("rng.") != std::string::npos;
  if (is_rng_impl) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdentifier) continue;
    const std::string& t = code[i].text;
    for (const auto& [token, why] : banned_randomness()) {
      if (t == token) {
        out->violations.push_back({relative_path, code[i].line, "nondeterminism",
                                   "'" + token + "' is banned in simulation code: " + why});
      }
    }
    // std::rand — only the qualified spelling, as before.
    if (t == "rand" && i >= 2 && is_punct(code, i - 1, "::") && is_ident(code, i - 2, "std")) {
      out->violations.push_back(
          {relative_path, code[i].line, "nondeterminism",
           "'std::rand' is banned in simulation code: use cellrel::Rng instead of "
           "std::rand"});
    }
    if (module != "obs") {
      for (const auto& [token, why] : banned_wall_clock()) {
        if (t == token) {
          out->violations.push_back({relative_path, code[i].line, "nondeterminism",
                                     "'" + token + "' is banned in simulation code: " + why});
        }
      }
      // time(nullptr) / time(NULL)
      if (t == "time" && is_punct(code, i + 1, "(") &&
          (is_ident(code, i + 2, "nullptr") || is_ident(code, i + 2, "NULL")) &&
          is_punct(code, i + 3, ")")) {
        out->violations.push_back({relative_path, code[i].line, "nondeterminism",
                                   "'time(nullptr)' is banned in simulation code: "
                                   "wall-clock seeding breaks reproducibility"});
      }
    }
  }
}

/// Rule 3: naked new / delete expressions.
void scan_naked_new(const std::vector<Token>& code, const std::string& relative_path,
                    FileAnalysis* out) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdentifier) continue;
    if (code[i].text == "new") {
      out->violations.push_back({relative_path, code[i].line, "naked-new",
                                 "naked 'new' expression; use std::make_unique/"
                                 "make_shared or a container"});
    } else if (code[i].text == "delete") {
      if (i == 0 || !is_punct(code, i - 1, "=")) {
        out->violations.push_back({relative_path, code[i].line, "naked-new",
                                   "naked 'delete' expression; owning raw pointers "
                                   "are banned"});
      }
    }
  }
}

/// Rule 6: shard-state — mutable statics and namespace-scope globals.
///
/// Scope tracking is heuristic but deliberate: every '{' is classified from
/// the declaration-head tokens accumulated since the last statement
/// boundary (namespace / class-like / block), which is enough to tell a
/// namespace-scope variable from a member or a local.
void scan_shard_state(const std::vector<Token>& code, const std::string& relative_path,
                      const LintOptions& options, FileAnalysis* out) {
  if (options.shard_state_allowlist.count(relative_path)) return;

  enum class ScopeKind { kNamespace, kClass, kBlock };
  std::vector<ScopeKind> scopes;  // empty = file (namespace) scope
  std::vector<std::size_t> head;  // token indices since the last boundary

  auto head_has_ident = [&](const char* text) {
    return std::any_of(head.begin(), head.end(),
                       [&](std::size_t i) { return is_ident(code, i, text); });
  };
  auto head_has_punct = [&](const char* text) {
    return std::any_of(head.begin(), head.end(),
                       [&](std::size_t i) { return is_punct(code, i, text); });
  };
  auto at_namespace_scope = [&] {
    return scopes.empty() || scopes.back() == ScopeKind::kNamespace;
  };

  // First top-level '=' in the head (outside parens/brackets), or npos.
  auto top_level_assign = [&]() -> std::size_t {
    int depth = 0;
    for (std::size_t i : head) {
      if (code[i].kind != TokKind::kPunct) continue;
      const std::string& t = code[i].text;
      if (t == "(" || t == "[") ++depth;
      if (t == ")" || t == "]") --depth;
      if (t == "=" && depth == 0) return i;
    }
    return static_cast<std::size_t>(-1);
  };

  auto check_declaration = [&](bool boundary_is_brace) {
    (void)boundary_is_brace;
    if (head.empty()) return;
    if (head_has_ident("using") || head_has_ident("typedef") || head_has_ident("extern") ||
        head_has_ident("operator") || head_has_ident("friend") ||
        head_has_ident("template")) {
      return;
    }
    const bool is_const = head_has_ident("const") || head_has_ident("constexpr");
    const std::size_t assign = top_level_assign();
    const bool has_assign = assign != static_cast<std::size_t>(-1);
    // A top-level '(' before the '=' (or before the boundary when there is
    // no '=') marks a function declarator: `void f() = delete;`,
    // `virtual int g() = 0;`, `static int h();`.
    bool paren_before_assign = false;
    {
      int depth = 0;
      for (std::size_t i : head) {
        if (has_assign && i >= assign) break;
        if (code[i].kind != TokKind::kPunct) continue;
        if (code[i].text == "[") ++depth;
        if (code[i].text == "]") --depth;
        if (code[i].text == "(" && depth == 0) {
          paren_before_assign = true;
          break;
        }
      }
    }
    // `= default;` / `= delete;` / `= 0;` after a declarator are functions.
    if (has_assign && paren_before_assign &&
        (is_ident(code, assign + 1, "default") || is_ident(code, assign + 1, "delete") ||
         tok_is(code, assign + 1, TokKind::kNumber, "0"))) {
      return;
    }

    const bool is_static = head_has_ident("static") || head_has_ident("thread_local");
    if (is_static && !is_const && !head_has_punct("(") &&
        !head_has_ident("struct") && !head_has_ident("class") && !head_has_ident("enum")) {
      std::size_t where = head.front();
      std::string name = "static";
      for (std::size_t i : head) {
        if (is_ident(code, i, "static") || is_ident(code, i, "thread_local")) where = i;
      }
      // Best-effort variable name: last identifier before '=' (or the end).
      for (std::size_t i : head) {
        if (has_assign && i >= assign) break;
        if (is_any_ident(code, i)) name = code[i].text;
      }
      const char* what = at_namespace_scope()
                             ? "namespace-scope static"
                             : (scopes.back() == ScopeKind::kClass ? "static data member"
                                                                   : "function-local static");
      out->violations.push_back(
          {relative_path, code[where].line, "shard-state",
           std::string("mutable ") + what + " '" + name +
               "' is cross-shard shared state and breaks campaign bit-identity; "
               "make it const/constexpr, pass it explicitly, or allowlist the "
               "file with justification"});
      return;
    }

    // Namespace-scope globals without `static` are just as shared. Only
    // initialized declarations are flagged (uninitialized heads are usually
    // prototypes, and function declarators are excluded above).
    if (!is_static && !is_const && at_namespace_scope() && has_assign &&
        !paren_before_assign && !head_has_ident("struct") && !head_has_ident("class") &&
        !head_has_ident("enum") && !head_has_ident("namespace")) {
      std::string name;
      for (std::size_t i : head) {
        if (i >= assign) break;
        if (is_any_ident(code, i)) name = code[i].text;
      }
      if (!name.empty()) {
        out->violations.push_back(
            {relative_path, code[head.front()].line, "shard-state",
             "mutable namespace-scope variable '" + name +
                 "' is cross-shard shared state and breaks campaign bit-identity; "
                 "make it const/constexpr or move it into per-shard state"});
      }
    }
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    // Skip preprocessor directives entirely: they are not declarations.
    // Continuation lines spliced with a trailing backslash stay on the
    // directive's logical line, so starts_line bounds the whole directive.
    if (t.kind == TokKind::kPunct && t.text == "#" && t.starts_line) {
      while (i + 1 < code.size() && !code[i + 1].starts_line) ++i;
      continue;
    }
    if (t.kind == TokKind::kPunct && t.text == "{") {
      // An '=' before the brace means braced initializer, not a scope we
      // care to classify — but push a block so nesting stays balanced.
      ScopeKind kind = ScopeKind::kBlock;
      if (top_level_assign() == static_cast<std::size_t>(-1)) {
        bool has_paren = false;
        for (std::size_t h : head) {
          if (is_punct(code, h, "(")) has_paren = true;
        }
        if (std::any_of(head.begin(), head.end(),
                        [&](std::size_t h) { return is_ident(code, h, "namespace"); })) {
          kind = ScopeKind::kNamespace;
        } else if (!has_paren &&
                   std::any_of(head.begin(), head.end(), [&](std::size_t h) {
                     return is_ident(code, h, "struct") || is_ident(code, h, "class") ||
                            is_ident(code, h, "union") || is_ident(code, h, "enum");
                   })) {
          kind = ScopeKind::kClass;
        }
      }
      check_declaration(/*boundary_is_brace=*/true);
      scopes.push_back(kind);
      head.clear();
      continue;
    }
    if (t.kind == TokKind::kPunct && t.text == "}") {
      if (!scopes.empty()) scopes.pop_back();
      head.clear();
      continue;
    }
    if (t.kind == TokKind::kPunct && t.text == ";") {
      check_declaration(/*boundary_is_brace=*/false);
      head.clear();
      continue;
    }
    head.push_back(i);
  }
}

/// Rule 7: ordered-export — unordered-container iteration in the
/// deterministic export surface.
void scan_ordered_export(const std::vector<Token>& code, const std::string& module,
                         const std::string& relative_path, const LintOptions& options,
                         FileAnalysis* out) {
  const bool in_surface = options.ordered_export_modules.count(module) != 0 ||
                          options.ordered_export_files.count(relative_path) != 0;
  if (!in_surface) return;

  // Pass 1: names declared with an unordered type, and functions whose
  // return type is unordered (so `auto x = f();` propagates).
  std::set<std::string> unordered_names;  // variables AND functions
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdentifier ||
        unordered_container_names().count(code[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (is_punct(code, j, "<")) j = skip_angles(code, j);
    while (is_punct(code, j, "&") || is_punct(code, j, "*") || is_ident(code, j, "const")) ++j;
    if (is_any_ident(code, j)) unordered_names.insert(code[j].text);
  }
  // Pass 1b: `auto x = f(...)` where f is unordered-returning.
  for (std::size_t i = 0; i + 3 < code.size(); ++i) {
    if (!is_ident(code, i, "auto")) continue;
    std::size_t j = i + 1;
    while (is_punct(code, j, "&") || is_punct(code, j, "*")) ++j;
    if (!is_any_ident(code, j) || !is_punct(code, j + 1, "=")) continue;
    if (is_any_ident(code, j + 2) && is_punct(code, j + 3, "(") &&
        unordered_names.count(code[j + 2].text)) {
      unordered_names.insert(code[j].text);
    }
  }
  if (unordered_names.empty()) return;

  auto flag = [&](std::size_t line, const std::string& name) {
    out->violations.push_back(
        {relative_path, line, "ordered-export",
         "iteration over unordered container '" + name +
             "' in the deterministic export surface; iteration order is "
             "implementation-defined — use std::map/std::set or sort first"});
  };

  // Pass 2: range-for over an unordered name, and .begin()/.cbegin().
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (is_ident(code, i, "for") && is_punct(code, i + 1, "(")) {
      const std::size_t end = skip_parens(code, i + 1);
      // Find the top-level ':' separating decl from range.
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t k = i + 1; k < end; ++k) {
        if (code[k].kind != TokKind::kPunct) continue;
        if (code[k].text == "(") ++depth;
        if (code[k].text == ")") --depth;
        if (code[k].text == ":" && depth == 1) {
          colon = k;
          break;
        }
      }
      if (colon != 0) {
        for (std::size_t k = colon + 1; k + 1 < end; ++k) {
          if (is_any_ident(code, k) && unordered_names.count(code[k].text)) {
            flag(code[k].line, code[k].text);
            break;
          }
        }
      }
    }
    if (is_any_ident(code, i) && unordered_names.count(code[i].text) &&
        (is_punct(code, i + 1, ".") || is_punct(code, i + 1, "->")) &&
        (is_ident(code, i + 2, "begin") || is_ident(code, i + 2, "cbegin") ||
         is_ident(code, i + 2, "rbegin"))) {
      flag(code[i].line, code[i].text);
    }
  }
}

/// Rule 8: nodiscard-check — discarded results of must-check APIs.
void scan_nodiscard(const std::vector<Token>& code, const std::string& relative_path,
                    const LintOptions& options, FileAnalysis* out) {
  if (options.must_check.empty()) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdentifier || !is_punct(code, i + 1, "(")) continue;
    const MustCheckApi* api = nullptr;
    for (const auto& m : options.must_check) {
      if (m.name == code[i].text) {
        api = &m;
        break;
      }
    }
    if (api == nullptr) continue;
    const bool member_access =
        i > 0 && (is_punct(code, i - 1, ".") || is_punct(code, i - 1, "->"));
    if (api->member_only && !member_access) continue;

    const std::size_t after = skip_parens(code, i + 1);
    if (!is_punct(code, after, ";")) continue;  // result consumed by something

    // Walk back over the object/qualifier chain to the statement start.
    std::size_t start = i;
    while (start >= 2 &&
           (is_punct(code, start - 1, ".") || is_punct(code, start - 1, "->") ||
            is_punct(code, start - 1, "::"))) {
      if (is_any_ident(code, start - 2)) {
        start -= 2;
      } else if (is_punct(code, start - 2, ")")) {
        // foo(...).validate(); — scan back to the matching '('.
        int depth = 0;
        std::size_t k = start - 2;
        while (k > 0) {
          if (is_punct(code, k, ")")) ++depth;
          if (is_punct(code, k, "(")) {
            --depth;
            if (depth == 0) break;
          }
          --k;
        }
        start = k > 0 && is_any_ident(code, k - 1) ? k - 1 : k;
      } else {
        break;
      }
    }

    // `(void)` cast is the sanctioned explicit discard.
    if (start >= 3 && is_punct(code, start - 1, ")") && is_ident(code, start - 2, "void") &&
        is_punct(code, start - 3, "(")) {
      continue;
    }

    const bool discarded =
        start == 0 || is_punct(code, start - 1, ";") || is_punct(code, start - 1, "{") ||
        is_punct(code, start - 1, "}") || is_punct(code, start - 1, ")") ||
        is_ident(code, start - 1, "else");
    if (discarded) {
      out->violations.push_back(
          {relative_path, code[i].line, "nodiscard-check",
           "result of must-check API '" + code[i].text +
               "' is discarded; handle the returned value (an explicit (void) "
               "cast opts out)"});
    }
  }
}

/// Rule 9: batch-hygiene — the columnar batch hot path must stay
/// allocation-free per record: no raw std::string (APN text is interned
/// through StringPool/ApnId; std::string_view is fine because the lexer
/// keeps `string_view` as one identifier) and no per-record heap
/// allocation. `new` is double-flagged with naked-new on purpose: the
/// batch-specific message explains the reserve-and-reuse discipline.
void scan_batch_hygiene(const std::vector<Token>& code, const std::string& relative_path,
                        const LintOptions& options, FileAnalysis* out) {
  if (options.batch_hot_files.count(relative_path) == 0) return;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i].kind != TokKind::kIdentifier) continue;
    const std::string& t = code[i].text;
    if (t == "std" && is_punct(code, i + 1, "::") && is_ident(code, i + 2, "string")) {
      out->violations.push_back(
          {relative_path, code[i + 2].line, "batch-hygiene",
           "raw 'std::string' in the batch hot path; APN text must be interned "
           "through StringPool/ApnId (std::string_view is fine)"});
    }
    if (t == "make_unique" || t == "make_shared" || t == "new") {
      out->violations.push_back(
          {relative_path, code[i].line, "batch-hygiene",
           "per-record heap allocation ('" + t + "') in the batch hot path; "
           "columns grow through vector reserve and a spilling shard reuses "
           "its one batch in place"});
    }
  }
}

/// Tree-level helper: does the header open with a guard?
bool has_include_guard(const std::vector<Token>& code) {
  if (code.size() >= 3 && is_punct(code, 0, "#") && is_ident(code, 1, "pragma") &&
      is_ident(code, 2, "once")) {
    return true;
  }
  return code.size() >= 6 && is_punct(code, 0, "#") && is_ident(code, 1, "ifndef") &&
         is_any_ident(code, 2) && is_punct(code, 3, "#") && is_ident(code, 4, "define") &&
         is_any_ident(code, 5) && code[2].text == code[5].text;
}

FileAnalysis analyze_source(const std::string& source, const std::string& module,
                            const std::string& relative_path, const LintOptions& options) {
  FileAnalysis out;
  const auto layer_it = options.layers.find(module);
  if (layer_it == options.layers.end()) {
    out.violations.push_back({relative_path, 0, "unknown-module",
                              "file is not inside a known module directory (" + module +
                                  ")"});
    return out;
  }

  const std::vector<Token> tokens = lex(source);
  const std::vector<Token> code = code_tokens(tokens);

  scan_includes(code, module, relative_path, options, layer_it->second, &out);
  scan_nondeterminism(code, module, relative_path, &out);
  scan_naked_new(code, relative_path, &out);
  scan_shard_state(code, relative_path, options, &out);
  scan_ordered_export(code, module, relative_path, options, &out);
  scan_nodiscard(code, relative_path, options, &out);
  scan_batch_hygiene(code, relative_path, options, &out);
  out.has_include_guard = has_include_guard(code);

  // Suppressions: drop findings covered by a justification-carrying
  // `// cellrel-lint: allow(rule) -- reason`; hard-fail reasonless markers.
  const auto suppressions = extract_suppressions(tokens);
  if (!suppressions.empty()) {
    std::set<std::pair<std::string, std::size_t>> allowed;  // (rule, line)
    for (const auto& s : suppressions) {
      if (s.reason.empty()) {
        out.violations.push_back(
            {relative_path, s.line, "bad-suppression",
             "suppression for '" + s.rule +
                 "' has no reason; write `// cellrel-lint: allow(" + s.rule +
                 ") -- <why this is safe>`"});
        continue;
      }
      allowed.insert({s.rule, s.line_has_code ? s.line : s.line + 1});
    }
    auto& vs = out.violations;
    vs.erase(std::remove_if(vs.begin(), vs.end(),
                            [&](const Violation& v) {
                              return v.rule != "bad-suppression" &&
                                     allowed.count({v.rule, v.line}) != 0;
                            }),
             vs.end());
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      {"bad-suppression", "suppression comments must carry a non-empty reason"},
      {"batch-hygiene",
       "no std::string or per-record heap allocation in the columnar batch hot path"},
      {"include-cycle", "the file-level include graph must stay acyclic"},
      {"include-guard", "headers need #pragma once or an #ifndef/#define guard"},
      {"io-error", "a scanned path could not be read"},
      {"layering", "modules may only include same-or-lower layers"},
      {"module-cycle", "the module dependency graph must stay acyclic"},
      {"naked-new", "naked new/delete expressions are banned"},
      {"nodiscard-check", "results of must-check APIs may not be discarded"},
      {"nondeterminism", "wall-clock and unseeded randomness are banned"},
      {"obs", "observability containment: obs headers and <chrono> confinement"},
      {"ordered-export",
       "no unordered-container iteration in the deterministic export surface"},
      {"shard-state", "mutable static/namespace-scope state breaks bit-identity"},
      {"threading", "threading headers are confined to the shard executor"},
      {"unknown-module", "files and includes must live in a known module"},
  };
  return kRules;
}

const std::map<std::string, int>& default_layers() {
  static const std::map<std::string, int> kLayers = {
      {"common", 0}, {"sim", 0}, {"obs", 0},
      {"radio", 1},  {"bs", 1},  {"device", 1}, {"net", 1},
      {"telephony", 2}, {"core", 2},
      {"workload", 3},  {"timp", 3}, {"analysis", 3}, {"detect", 3}, {"query", 3},
  };
  return kLayers;
}

LintOptions default_options() {
  LintOptions o;
  o.layers = default_layers();
  o.ordered_export_modules = {"obs", "analysis", "detect", "query"};
  o.ordered_export_files = {"workload/campaign.cpp", "workload/campaign.h"};
  o.batch_hot_files = {"analysis/batch.h", "analysis/batch.cpp"};
  o.must_check = {
      {"validate", /*member_only=*/true},
      {"parse_rat", false},
      {"parse_failure_type", false},
      {"parse_false_positive_kind", false},
      {"parse_policy_variant", false},
      {"parse_recovery_variant", false},
  };
  return o;
}

std::vector<Violation> lint_source(const std::string& source, const std::string& module,
                                   const std::string& relative_path,
                                   const LintOptions& options) {
  return analyze_source(source, module, relative_path, options).violations;
}

std::vector<Violation> lint_source(const std::string& source, const std::string& module,
                                   const std::string& relative_path,
                                   const std::map<std::string, int>& layers) {
  LintOptions o = default_options();
  o.layers = layers;
  return lint_source(source, module, relative_path, o);
}

std::vector<Violation> lint_tree(const std::filesystem::path& src_root,
                                 const LintOptions& options) {
  namespace fs = std::filesystem;
  std::vector<Violation> out;
  if (!fs::is_directory(src_root)) {
    out.push_back({"", 0, "io-error", "not a directory: " + src_root.string()});
    return out;
  }

  static const std::set<std::string> kExtensions = {".h", ".hpp", ".cpp", ".cc"};
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(src_root)) {
    if (!entry.is_regular_file()) continue;
    if (!kExtensions.count(entry.path().extension().string())) continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());

  // module -> set of distinct known modules it includes (module cycle pass)
  std::map<std::string, std::set<std::string>> module_edges;
  // file -> quoted includes that resolve to scanned files (include cycles)
  std::map<std::string, std::set<std::string>> file_edges;
  std::set<std::string> scanned;
  for (const auto& path : files) scanned.insert(fs::relative(path, src_root).generic_string());

  for (const auto& path : files) {
    const fs::path rel = fs::relative(path, src_root);
    const std::string rel_str = rel.generic_string();
    const std::string module =
        rel.has_parent_path() ? rel.begin()->string() : std::string();

    std::ifstream in(path, std::ios::binary);
    if (!in) {
      out.push_back({rel_str, 0, "io-error", "cannot read file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();

    FileAnalysis fa = analyze_source(buffer.str(), module, rel_str, options);
    out.insert(out.end(), fa.violations.begin(), fa.violations.end());

    const std::string ext = path.extension().string();
    if ((ext == ".h" || ext == ".hpp") && !fa.has_include_guard) {
      out.push_back({rel_str, 1, "include-guard",
                     "header has no include guard; add #pragma once or an "
                     "#ifndef/#define pair"});
    }

    for (const auto& inc : fa.quoted_includes) {
      const std::string dep = module_of_include(inc.target);
      if (options.layers.count(module) && !dep.empty() && dep != module &&
          options.layers.count(dep)) {
        module_edges[module].insert(dep);
      }
      if (scanned.count(inc.target) && inc.target != rel_str) {
        file_edges[rel_str].insert(inc.target);
      }
    }
  }

  // --- module-cycle + include-cycle: DFS with colors over each graph ------
  const auto report_cycles = [&out](const std::map<std::string, std::set<std::string>>& edges,
                                    const std::string& rule, const std::string& what) {
    std::map<std::string, int> color;  // 0 = white, 1 = grey, 2 = black
    std::vector<std::string> stack;
    auto dfs = [&](auto&& self, const std::string& m) -> void {
      color[m] = 1;
      stack.push_back(m);
      const auto it = edges.find(m);
      if (it != edges.end()) {
        for (const auto& dep : it->second) {
          if (color[dep] == 1) {
            std::string cycle;
            auto sit = std::find(stack.begin(), stack.end(), dep);
            for (; sit != stack.end(); ++sit) cycle += *sit + " -> ";
            cycle += dep;
            out.push_back({"", 0, rule, what + " cycle: " + cycle});
          } else if (color[dep] == 0) {
            self(self, dep);
          }
        }
      }
      stack.pop_back();
      color[m] = 2;
    };
    for (const auto& [m, _] : edges) {
      if (color[m] == 0) dfs(dfs, m);
    }
  };
  report_cycles(module_edges, "module-cycle", "module dependency");
  report_cycles(file_edges, "include-cycle", "file include");

  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

std::vector<Violation> lint_tree(const std::filesystem::path& src_root) {
  return lint_tree(src_root, default_options());
}

std::vector<Violation> lint_tree(const std::filesystem::path& src_root,
                                 const std::map<std::string, int>& layers) {
  LintOptions o = default_options();
  o.layers = layers;
  return lint_tree(src_root, o);
}

}  // namespace cellrel::lint

// Shared command-line parser for the cellrel tools.
//
// One table drives parsing, --help, and error reporting, so every tool gets
// the same behaviour: unknown flags are hard errors (exit-worthy, never
// silently ignored), every valued option validates its argument, and the
// usage text is generated from the same table the parser matches against.
//
// Usage:
//   cli::Parser parser("cellrel_campaign");
//   parser.add_option("--devices", "N", "fleet size", cli::u32_value(&devices));
//   parser.add_flag("--quiet", "suppress the report", [&] { quiet = true; });
//   const cli::ParseResult r = parser.parse(argc, argv);
//   if (r.help_requested) { std::fputs(parser.usage().c_str(), stdout); return 0; }
//   if (!r.ok) { std::fputs(parser.usage().c_str(), stderr); return 2; }

#ifndef CELLREL_TOOLS_CLI_H
#define CELLREL_TOOLS_CLI_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace cellrel::cli {

struct ParseResult {
  bool ok = true;
  bool help_requested = false;
  /// Non-flag arguments in order of appearance.
  std::vector<std::string> positionals;
  /// Human-readable description of the first error when !ok.
  std::string error;
};

class Parser {
 public:
  /// `positional_usage` renders in the synopsis line (e.g. "DATASET_DIR").
  explicit Parser(std::string program, std::string positional_usage = "");

  /// A boolean flag: `on_set` runs when the flag appears.
  void add_flag(std::string name, std::string help, std::function<void()> on_set);

  /// A valued option (`--name VALUE`): `on_value` returns false to reject
  /// the value, which fails the parse with a message naming the option.
  void add_option(std::string name, std::string value_name, std::string help,
                  std::function<bool(std::string_view)> on_value);

  /// Parses argv. Stops at the first error; "--help" / "-h" short-circuits
  /// with help_requested set (no error). Errors are also printed to stderr.
  ParseResult parse(int argc, char** argv) const;

  /// Usage text generated from the option table.
  std::string usage() const;

 private:
  struct Spec {
    std::string name;
    std::string value_name;  // empty for flags
    std::string help;
    std::function<void()> on_set;
    std::function<bool(std::string_view)> on_value;
  };

  const Spec* find(std::string_view name) const;

  std::string program_;
  std::string positional_usage_;
  std::vector<Spec> specs_;
};

/// Parses a whole string as a base-10 unsigned integer: no sign, no
/// trailing garbage ("4k" and "-1" are rejected), no overflow.
bool parse_u64(std::string_view text, std::uint64_t* out);

// Typed value binders for add_option. Each rejects trailing garbage
// ("12x" is not a number) and, for unsigned types, negative input.
std::function<bool(std::string_view)> u32_value(std::uint32_t* out);
std::function<bool(std::string_view)> u64_value(std::uint64_t* out);
std::function<bool(std::string_view)> double_value(double* out);
std::function<bool(std::string_view)> string_value(std::string* out);

}  // namespace cellrel::cli

#endif  // CELLREL_TOOLS_CLI_H

#include "cli.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace cellrel::cli {

Parser::Parser(std::string program, std::string positional_usage)
    : program_(std::move(program)), positional_usage_(std::move(positional_usage)) {}

void Parser::add_flag(std::string name, std::string help, std::function<void()> on_set) {
  Spec s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.on_set = std::move(on_set);
  specs_.push_back(std::move(s));
}

void Parser::add_option(std::string name, std::string value_name, std::string help,
                        std::function<bool(std::string_view)> on_value) {
  Spec s;
  s.name = std::move(name);
  s.value_name = std::move(value_name);
  s.help = std::move(help);
  s.on_value = std::move(on_value);
  specs_.push_back(std::move(s));
}

const Parser::Spec* Parser::find(std::string_view name) const {
  for (const Spec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

ParseResult Parser::parse(int argc, char** argv) const {
  ParseResult result;
  auto fail = [&](std::string message) {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    result.ok = false;
    result.error = std::move(message);
    return result;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      result.help_requested = true;
      return result;
    }
    if (arg.size() >= 2 && arg[0] == '-' && arg != "-") {
      const Spec* spec = find(arg);
      if (!spec) return fail("unknown flag: " + std::string(arg));
      if (spec->on_value) {
        if (i + 1 >= argc) return fail("missing value for " + spec->name);
        const std::string_view value = argv[++i];
        if (!spec->on_value(value)) {
          return fail("invalid value for " + spec->name + ": " + std::string(value));
        }
      } else if (spec->on_set) {
        spec->on_set();
      }
      continue;
    }
    result.positionals.emplace_back(arg);
  }
  return result;
}

std::string Parser::usage() const {
  std::string out = "usage: " + program_;
  if (!positional_usage_.empty()) out += " " + positional_usage_;
  out += " [options]\n\noptions:\n";
  std::size_t widest = 0;
  auto rendered = [](const Spec& s) {
    return s.value_name.empty() ? s.name : s.name + " " + s.value_name;
  };
  for (const Spec& s : specs_) widest = std::max(widest, rendered(s).size());
  for (const Spec& s : specs_) {
    const std::string left = rendered(s);
    out += "  " + left + std::string(widest - left.size() + 2, ' ') + s.help + "\n";
  }
  out += "  --help" + std::string(widest > 4 ? widest - 4 : 2, ' ') + "show this message\n";
  return out;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  const std::string buf(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::function<bool(std::string_view)> u32_value(std::uint32_t* out) {
  return [out](std::string_view text) {
    std::uint64_t v = 0;
    if (!parse_u64(text, &v) || v > 0xffffffffULL) return false;
    *out = static_cast<std::uint32_t>(v);
    return true;
  };
}

std::function<bool(std::string_view)> u64_value(std::uint64_t* out) {
  return [out](std::string_view text) { return parse_u64(text, out); };
}

std::function<bool(std::string_view)> double_value(double* out) {
  return [out](std::string_view text) {
    if (text.empty()) return false;
    const std::string buf(text);
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(buf.c_str(), &end);
    if (errno != 0 || end != buf.c_str() + buf.size()) return false;
    *out = v;
    return true;
  };
}

std::function<bool(std::string_view)> string_value(std::string* out) {
  return [out](std::string_view text) {
    *out = std::string(text);
    return true;
  };
}

}  // namespace cellrel::cli

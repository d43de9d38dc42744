// Unit tests for the shared cli::Parser both tools are built on: unknown
// flags are hard errors, valued options validate their argument, --help
// short-circuits, and positionals pass through in order.

#include "cli.h"

#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cellrel::cli {
namespace {

/// argv builder: keeps the strings alive and hands out a char** like main's.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    for (auto& a : args_) ptrs_.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

Parser make_parser(std::uint32_t* n, bool* flag, std::string* s) {
  Parser parser("test_tool", "INPUT");
  parser.add_option("--n", "N", "a number", u32_value(n));
  parser.add_flag("--flag", "a flag", [flag] { *flag = true; });
  parser.add_option("--name", "S", "a string", string_value(s));
  return parser;
}

TEST(CliParser, ParsesFlagsOptionsAndPositionals) {
  std::uint32_t n = 0;
  bool flag = false;
  std::string s;
  Parser parser = make_parser(&n, &flag, &s);
  Argv args({"test_tool", "--n", "42", "pos1", "--flag", "--name", "hi", "pos2"});
  const ParseResult r = parser.parse(args.argc(), args.argv());
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.help_requested);
  EXPECT_EQ(n, 42u);
  EXPECT_TRUE(flag);
  EXPECT_EQ(s, "hi");
  ASSERT_EQ(r.positionals.size(), 2u);
  EXPECT_EQ(r.positionals[0], "pos1");
  EXPECT_EQ(r.positionals[1], "pos2");
}

TEST(CliParser, UnknownFlagIsAHardError) {
  std::uint32_t n = 0;
  bool flag = false;
  std::string s;
  Parser parser = make_parser(&n, &flag, &s);
  Argv args({"test_tool", "--bogus"});
  const ParseResult r = parser.parse(args.argc(), args.argv());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--bogus"), std::string::npos);
}

TEST(CliParser, MissingValueIsAnError) {
  std::uint32_t n = 0;
  bool flag = false;
  std::string s;
  Parser parser = make_parser(&n, &flag, &s);
  Argv args({"test_tool", "--n"});
  const ParseResult r = parser.parse(args.argc(), args.argv());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--n"), std::string::npos);
}

TEST(CliParser, InvalidNumericValueIsAnError) {
  std::uint32_t n = 0;
  bool flag = false;
  std::string s;
  Parser parser = make_parser(&n, &flag, &s);
  for (const char* bad : {"12x", "-3", "", "4294967296"}) {
    Argv args({"test_tool", "--n", bad});
    const ParseResult r = parser.parse(args.argc(), args.argv());
    EXPECT_FALSE(r.ok) << "accepted: " << bad;
  }
}

TEST(CliParser, HelpShortCircuits) {
  std::uint32_t n = 0;
  bool flag = false;
  std::string s;
  Parser parser = make_parser(&n, &flag, &s);
  for (const char* h : {"--help", "-h"}) {
    Argv args({"test_tool", h, "--bogus"});
    const ParseResult r = parser.parse(args.argc(), args.argv());
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.help_requested) << h;
  }
}

TEST(CliParser, UsageListsEveryOptionFromTheTable) {
  std::uint32_t n = 0;
  bool flag = false;
  std::string s;
  Parser parser = make_parser(&n, &flag, &s);
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("test_tool"), std::string::npos);
  EXPECT_NE(usage.find("INPUT"), std::string::npos);
  EXPECT_NE(usage.find("--n N"), std::string::npos);
  EXPECT_NE(usage.find("a number"), std::string::npos);
  EXPECT_NE(usage.find("--flag"), std::string::npos);
  EXPECT_NE(usage.find("--name S"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(CliBinders, U64AndDoubleRoundTrip) {
  std::uint64_t u = 0;
  EXPECT_TRUE(u64_value(&u)("18446744073709551615"));
  EXPECT_EQ(u, 18446744073709551615ull);
  EXPECT_FALSE(u64_value(&u)("nope"));
  EXPECT_FALSE(u64_value(&u)("-1"));
  // No sign and no whitespace.
  for (const char* bad : {"+5", " 5", "5 ", "18446744073709551616", ""}) {
    EXPECT_FALSE(u64_value(&u)(bad)) << bad;
  }
  EXPECT_EQ(u, 18446744073709551615ull);

  double d = 0.0;
  EXPECT_TRUE(double_value(&d)("2.5"));
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_FALSE(double_value(&d)("2.5x"));
  EXPECT_FALSE(double_value(&d)(""));
  // std::from_chars syntax: no sign, whitespace or hex prefix, and no
  // out-of-range value.
  for (const char* bad : {"+2.5", " 2.5", "0x10", "1e400", "1e-400"}) {
    EXPECT_FALSE(double_value(&d)(bad)) << bad;
  }
  EXPECT_DOUBLE_EQ(d, 2.5);
}

TEST(CliParser, BareDashIsAPositional) {
  std::uint32_t n = 0;
  bool flag = false;
  std::string s;
  Parser parser = make_parser(&n, &flag, &s);
  Argv args({"test_tool", "-"});
  const ParseResult r = parser.parse(args.argc(), args.argv());
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.positionals.size(), 1u);
  EXPECT_EQ(r.positionals[0], "-");
}

}  // namespace
}  // namespace cellrel::cli

// Tests for the cellrel-lint reporting layer: SARIF 2.1.0 shape.

#include "lint/report.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cellrel::lint {
namespace {

ReportEntry entry(const std::string& rule, const std::string& uri, std::size_t line,
                  const std::string& message) {
  return ReportEntry{rule, uri, line, message};
}

TEST(LintReport, SarifDeclaresEveryCatalogRule) {
  const std::string sarif = to_sarif({});
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0"), std::string::npos);
  for (const auto& rule : rule_catalog()) {
    EXPECT_NE(sarif.find("\"id\": \"" + rule.id + "\""), std::string::npos)
        << "rule " << rule.id << " missing from tool.driver.rules";
  }
}

TEST(LintReport, SarifResultCarriesLocationAndRegion) {
  const std::string sarif = to_sarif(
      {entry("naked-new", "src/device/leak.cpp", 7, "naked new expression")});
  EXPECT_NE(sarif.find("\"ruleId\": \"naked-new\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/device/leak.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("naked new expression"), std::string::npos);
}

TEST(LintReport, SarifTreeLevelFindingOmitsRegion) {
  // Cycle findings have no single line; line 0 must not serialize as
  // startLine 0 (SARIF requires >= 1).
  const std::string sarif =
      to_sarif({entry("module-cycle", "src", 0, "cycle: radio -> bs -> radio")});
  EXPECT_EQ(sarif.find("\"startLine\": 0"), std::string::npos);
  EXPECT_NE(sarif.find("module-cycle"), std::string::npos);
}

TEST(LintReport, SarifEscapesJsonMetacharacters) {
  const std::string sarif = to_sarif(
      {entry("nondeterminism", "src/a.cpp", 1, "bad call \"time(nullptr)\"\\path")});
  EXPECT_NE(sarif.find("\\\"time(nullptr)\\\""), std::string::npos);
  EXPECT_NE(sarif.find("\\\\path"), std::string::npos);
}

TEST(LintReport, SarifOutputIsByteStableAcrossInputOrder) {
  const auto a = entry("obs", "src/net/x.cpp", 3, "chrono outside obs");
  const auto b = entry("layering", "src/common/y.h", 2, "upward include");
  EXPECT_EQ(to_sarif({a, b}), to_sarif({b, a}));
}

}  // namespace
}  // namespace cellrel::lint

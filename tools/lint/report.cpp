#include "lint/report.h"

#include <algorithm>
#include <sstream>

namespace cellrel::lint {

namespace {

/// Minimal JSON string escaping (control chars, quote, backslash).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::vector<ReportEntry> sorted(std::vector<ReportEntry> entries) {
  std::sort(entries.begin(), entries.end(), [](const ReportEntry& a, const ReportEntry& b) {
    if (a.uri != b.uri) return a.uri < b.uri;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return entries;
}

}  // namespace

std::string to_sarif(const std::vector<ReportEntry>& entries) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"cellrel-lint\",\n"
      << "          \"version\": \"2.0.0\",\n"
      << "          \"informationUri\": "
         "\"https://example.invalid/cellrel/tools/lint\",\n"
      << "          \"rules\": [\n";
  const auto& rules = rule_catalog();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out << "            {\n"
        << "              \"id\": \"" << json_escape(rules[i].id) << "\",\n"
        << "              \"shortDescription\": { \"text\": \""
        << json_escape(rules[i].description) << "\" }\n"
        << "            }" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  const auto es = sorted(entries);
  for (std::size_t i = 0; i < es.size(); ++i) {
    const ReportEntry& e = es[i];
    out << "        {\n"
        << "          \"ruleId\": \"" << json_escape(e.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": { \"text\": \"" << json_escape(e.message) << "\" }";
    if (!e.uri.empty()) {
      out << ",\n"
          << "          \"locations\": [\n"
          << "            {\n"
          << "              \"physicalLocation\": {\n"
          << "                \"artifactLocation\": { \"uri\": \"" << json_escape(e.uri)
          << "\" }";
      if (e.line > 0) {
        out << ",\n"
            << "                \"region\": { \"startLine\": " << e.line << " }";
      }
      out << "\n"
          << "              }\n"
          << "            }\n"
          << "          ]";
    }
    out << "\n        }" << (i + 1 < es.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace cellrel::lint

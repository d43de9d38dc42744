#include "obs/export.h"

#include <cstdio>

namespace cellrel::obs {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }
std::string fmt_i64(std::int64_t v) { return std::to_string(v); }

/// Emits `  "key": { members... }` object sections with comma handling.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  void open_section(const std::string& name, bool& first_section) {
    if (!first_section) out_ += ",\n";
    first_section = false;
    out_ += "  \"" + name + "\": {";
    first_entry_ = true;
  }

  void entry(const std::string& name, const std::string& value) {
    if (!first_entry_) out_ += ",";
    first_entry_ = false;
    out_ += "\n    \"" + json_escape(name) + "\": " + value;
  }

  void close_section() {
    if (!first_entry_) out_ += "\n  ";
    out_ += "}";
  }

 private:
  std::string& out_;
  bool first_entry_ = true;
};

std::string histogram_json(const LinearHistogram& h) {
  std::string out = "{ \"lo\": " + fmt_double(h.lo()) + ", \"hi\": " + fmt_double(h.hi()) +
                    ", \"underflow\": " + fmt_u64(h.underflow()) +
                    ", \"overflow\": " + fmt_u64(h.overflow()) +
                    ", \"total\": " + fmt_u64(h.total()) + ", \"buckets\": [";
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    if (i) out += ", ";
    out += fmt_u64(h.bin(i));
  }
  out += "] }";
  return out;
}

void csv_row(std::string& out, std::string_view kind, const std::string& name,
             std::string_view field, const std::string& value) {
  out += kind;
  out += ',';
  out += name;
  out += ',';
  out += field;
  out += ',';
  out += value;
  out += '\n';
}

/// Whether a metric name is excluded from this export (the "process."
/// namespace is opt-in; see ExportOptions::include_process).
bool skipped(const std::string& name, const ExportOptions& options) {
  return !options.include_process && name.starts_with("process.");
}

}  // namespace

std::string metrics_to_json(const MetricRegistry& registry, ExportOptions options) {
  std::string out = "{\n";
  JsonWriter w(out);
  bool first_section = true;

  w.open_section("counters", first_section);
  for (const auto& [name, c] : registry.counters()) {
    if (!skipped(name, options)) w.entry(name, fmt_u64(c.value));
  }
  w.close_section();

  w.open_section("gauges", first_section);
  for (const auto& [name, g] : registry.gauges()) {
    if (skipped(name, options)) continue;
    w.entry(name, "{ \"value\": " + fmt_double(g.value) +
                      ", \"writes\": " + fmt_u64(g.writes) + " }");
  }
  w.close_section();

  w.open_section("histograms", first_section);
  for (const auto& [name, h] : registry.histograms()) {
    if (!skipped(name, options)) w.entry(name, histogram_json(h));
  }
  w.close_section();

  w.open_section("sim_timers", first_section);
  for (const auto& [name, t] : registry.sim_timers()) {
    if (skipped(name, options)) continue;
    w.entry(name, "{ \"count\": " + fmt_u64(t.count) +
                      ", \"total_us\": " + fmt_i64(t.total_us) +
                      ", \"max_us\": " + fmt_i64(t.max_us) + " }");
  }
  w.close_section();

  out += "\n}\n";
  return out;
}

std::string metrics_to_csv(const MetricRegistry& registry, ExportOptions options) {
  std::string out = "kind,name,field,value\n";
  for (const auto& [name, c] : registry.counters()) {
    if (!skipped(name, options)) csv_row(out, "counter", name, "value", fmt_u64(c.value));
  }
  for (const auto& [name, g] : registry.gauges()) {
    if (skipped(name, options)) continue;
    csv_row(out, "gauge", name, "value", fmt_double(g.value));
    csv_row(out, "gauge", name, "writes", fmt_u64(g.writes));
  }
  for (const auto& [name, h] : registry.histograms()) {
    if (skipped(name, options)) continue;
    csv_row(out, "histogram", name, "underflow", fmt_u64(h.underflow()));
    csv_row(out, "histogram", name, "overflow", fmt_u64(h.overflow()));
    csv_row(out, "histogram", name, "total", fmt_u64(h.total()));
    for (std::size_t i = 0; i < h.bin_count(); ++i) {
      char field[64];
      std::snprintf(field, sizeof(field), "bucket[%.17g,%.17g)", h.bin_lo(i), h.bin_hi(i));
      csv_row(out, "histogram", name, field, fmt_u64(h.bin(i)));
    }
  }
  for (const auto& [name, t] : registry.sim_timers()) {
    if (skipped(name, options)) continue;
    csv_row(out, "sim_timer", name, "count", fmt_u64(t.count));
    csv_row(out, "sim_timer", name, "total_us", fmt_i64(t.total_us));
    csv_row(out, "sim_timer", name, "max_us", fmt_i64(t.max_us));
  }
  return out;
}

}  // namespace cellrel::obs

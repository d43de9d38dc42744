#include "query/spec.h"

#include <charconv>
#include <utility>
#include <vector>

#include "obs/export.h"

namespace cellrel::query {

namespace {

std::vector<std::string_view> tokenize(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\t') ++j;
    if (j > i) out.push_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

template <typename T>
bool parse_enum(std::string_view value, std::optional<T> (*parse)(std::string_view),
                std::optional<T>* out, std::string* error, const char* what) {
  const auto parsed = parse(value);
  if (!parsed) return fail(error, std::string("bad ") + what + ": " + std::string(value));
  *out = *parsed;
  return true;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

std::optional<double> parse_f64(std::string_view s) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace

std::string_view to_string(GroupBy g) {
  switch (g) {
    case GroupBy::kNone: return "none";
    case GroupBy::kModel: return "model";
    case GroupBy::kIsp: return "isp";
    case GroupBy::kRat: return "rat";
    case GroupBy::kLevel: return "level";
    case GroupBy::kBs: return "bs";
    case GroupBy::kType: return "type";
    case GroupBy::kCause: return "cause";
    case GroupBy::kFiveG: return "fiveg";
    case GroupBy::kAndroid: return "android";
  }
  return "?";
}

std::string_view to_string(AggKind a) {
  switch (a) {
    case AggKind::kPrevalenceFrequency: return "pf";
    case AggKind::kTypeBreakdown: return "breakdown";
    case AggKind::kCdf: return "cdf";
    case AggKind::kTopK: return "topk";
    case AggKind::kTransition: return "transition";
  }
  return "?";
}

std::string_view to_string(SeriesKind s) {
  switch (s) {
    case SeriesKind::kPrevalence: return "prevalence";
    case SeriesKind::kFrequency: return "frequency";
  }
  return "?";
}

std::optional<GroupBy> parse_group_by(std::string_view s) {
  for (GroupBy g : {GroupBy::kNone, GroupBy::kModel, GroupBy::kIsp, GroupBy::kRat,
                    GroupBy::kLevel, GroupBy::kBs, GroupBy::kType, GroupBy::kCause,
                    GroupBy::kFiveG, GroupBy::kAndroid}) {
    if (s == to_string(g)) return g;
  }
  return std::nullopt;
}

std::optional<AggKind> parse_agg_kind(std::string_view s) {
  for (AggKind a : {AggKind::kPrevalenceFrequency, AggKind::kTypeBreakdown, AggKind::kCdf,
                    AggKind::kTopK, AggKind::kTransition}) {
    if (s == to_string(a)) return a;
  }
  return std::nullopt;
}

std::optional<SeriesKind> parse_series_kind(std::string_view s) {
  for (SeriesKind k : {SeriesKind::kPrevalence, SeriesKind::kFrequency}) {
    if (s == to_string(k)) return k;
  }
  return std::nullopt;
}

std::string to_string(const QuerySpec& spec) {
  std::string out = "agg=" + std::string(to_string(spec.agg)) +
                    " group=" + std::string(to_string(spec.group));
  if (spec.agg == AggKind::kPrevalenceFrequency) {
    out += " series=" + std::string(to_string(spec.series));
  }
  if (spec.agg == AggKind::kTopK) out += " k=" + std::to_string(spec.top_k);
  if (spec.agg == AggKind::kTransition) {
    out += " from=" + std::string(cellrel::to_string(spec.from_rat)) +
           " to=" + std::string(cellrel::to_string(spec.to_rat));
  }
  const QueryFilter& f = spec.filter;
  if (f.model_id) out += " model=" + std::to_string(*f.model_id);
  if (f.isp) out += " isp=" + std::string(cellrel::to_string(*f.isp));
  if (f.rat) out += " rat=" + std::string(cellrel::to_string(*f.rat));
  if (f.level) out += " level=" + std::to_string(index_of(*f.level));
  if (f.bs) out += " bs=" + std::to_string(*f.bs);
  if (f.type) out += " type=" + std::string(cellrel::to_string(*f.type));
  if (f.since_s) out += " since=" + obs::fmt_double(*f.since_s);
  if (f.until_s) out += " until=" + obs::fmt_double(*f.until_s);
  if (spec.render.precision != RenderOptions{}.precision) {
    out += " precision=" + std::to_string(spec.render.precision);
  }
  if (!spec.render.bars) out += " bars=off";
  return out;
}

std::optional<QuerySpec> parse_query_spec(std::string_view text, std::string* error) {
  QuerySpec spec;
  for (std::string_view token : tokenize(text)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      fail(error, "expected key=value, got: " + std::string(token));
      return std::nullopt;
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "name") {
      spec.name = std::string(value);
    } else if (key == "agg") {
      const auto a = parse_agg_kind(value);
      if (!a) {
        fail(error, "bad agg: " + std::string(value));
        return std::nullopt;
      }
      spec.agg = *a;
    } else if (key == "group") {
      const auto g = parse_group_by(value);
      if (!g) {
        fail(error, "bad group: " + std::string(value));
        return std::nullopt;
      }
      spec.group = *g;
    } else if (key == "series") {
      const auto s = parse_series_kind(value);
      if (!s) {
        fail(error, "bad series: " + std::string(value));
        return std::nullopt;
      }
      spec.series = *s;
    } else if (key == "k") {
      const auto k = parse_u64(value);
      if (!k || *k == 0) {
        fail(error, "bad k: " + std::string(value));
        return std::nullopt;
      }
      spec.top_k = static_cast<std::size_t>(*k);
    } else if (key == "from") {
      std::optional<Rat> rat;
      if (!parse_enum(value, &cellrel::parse_rat, &rat, error, "from RAT")) return std::nullopt;
      spec.from_rat = *rat;
    } else if (key == "to") {
      std::optional<Rat> rat;
      if (!parse_enum(value, &cellrel::parse_rat, &rat, error, "to RAT")) return std::nullopt;
      spec.to_rat = *rat;
    } else if (key == "model") {
      const auto m = parse_u64(value);
      if (!m) {
        fail(error, "bad model: " + std::string(value));
        return std::nullopt;
      }
      spec.filter.model_id = static_cast<int>(*m);
    } else if (key == "isp") {
      bool matched = false;
      for (IspId isp : kAllIsps) {
        if (value == cellrel::to_string(isp)) {
          spec.filter.isp = isp;
          matched = true;
        }
      }
      if (!matched) {
        fail(error, "bad isp: " + std::string(value));
        return std::nullopt;
      }
    } else if (key == "rat") {
      if (!parse_enum(value, &cellrel::parse_rat, &spec.filter.rat, error, "rat")) {
        return std::nullopt;
      }
    } else if (key == "level") {
      const auto l = parse_u64(value);
      if (!l || *l >= kSignalLevelCount) {
        fail(error, "bad level: " + std::string(value));
        return std::nullopt;
      }
      spec.filter.level = signal_level_from_index(static_cast<std::size_t>(*l));
    } else if (key == "bs") {
      const auto b = parse_u64(value);
      if (!b) {
        fail(error, "bad bs: " + std::string(value));
        return std::nullopt;
      }
      spec.filter.bs = static_cast<BsIndex>(*b);
    } else if (key == "type") {
      if (!parse_enum(value, &cellrel::parse_failure_type, &spec.filter.type, error, "type")) {
        return std::nullopt;
      }
    } else if (key == "since") {
      const auto s = parse_f64(value);
      if (!s) {
        fail(error, "bad since: " + std::string(value));
        return std::nullopt;
      }
      spec.filter.since_s = *s;
    } else if (key == "until") {
      const auto u = parse_f64(value);
      if (!u) {
        fail(error, "bad until: " + std::string(value));
        return std::nullopt;
      }
      spec.filter.until_s = *u;
    } else if (key == "precision") {
      const auto p = parse_u64(value);
      if (!p || *p > 17) {
        fail(error, "bad precision: " + std::string(value));
        return std::nullopt;
      }
      spec.render.precision = static_cast<int>(*p);
    } else if (key == "bars") {
      if (value == "on") {
        spec.render.bars = true;
      } else if (value == "off") {
        spec.render.bars = false;
      } else {
        fail(error, "bad bars (on|off): " + std::string(value));
        return std::nullopt;
      }
    } else {
      fail(error, "unknown key: " + std::string(key));
      return std::nullopt;
    }
  }
  if (spec.agg == AggKind::kTransition) {
    // The Fig. 17 matrix is computed from the fleet-wide transition counts:
    // a filter or group would be silently ignored, so it is an error.
    const QueryFilter& f = spec.filter;
    const std::pair<bool, const char*> ignored[] = {
        {f.model_id.has_value(), "model"}, {f.isp.has_value(), "isp"},
        {f.rat.has_value(), "rat"},        {f.level.has_value(), "level"},
        {f.bs.has_value(), "bs"},          {f.type.has_value(), "type"},
        {f.since_s.has_value(), "since"},  {f.until_s.has_value(), "until"},
        {spec.group != GroupBy::kNone, "group"},
    };
    for (const auto& [set, key] : ignored) {
      if (set) {
        fail(error, std::string("agg=transition takes no ") + key + " (the matrix is fleet-wide)");
        return std::nullopt;
      }
    }
  }
  return spec;
}

}  // namespace cellrel::query

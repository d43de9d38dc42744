#include "query/export.h"

#include "analysis/report.h"
#include "common/table.h"
#include "obs/export.h"

namespace cellrel::query {

namespace {

using obs::fmt_double;
using obs::json_escape;

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }
std::string fmt_i64(std::int64_t v) { return std::to_string(v); }

/// The Fig. 17 panel title render_full_report uses — kept identical so the
/// fig17 preset is byte-equal to the legacy panel rendering.
std::string transition_title(const QuerySpec& spec) {
  return std::string(to_string(spec.from_rat)) + " level-i -> " +
         std::string(to_string(spec.to_rat)) + " level-j";
}

}  // namespace

std::string query_result_to_text(const QueryResult& result) {
  const QuerySpec& spec = result.spec;
  switch (spec.agg) {
    case AggKind::kPrevalenceFrequency: {
      Series series;
      series.name = spec.name;
      for (const auto& row : result.pf) {
        series.labels.push_back(row.key);
        series.values.push_back(spec.series == SeriesKind::kFrequency ? row.frequency
                                                                      : row.prevalence);
      }
      return render_series(series, spec.render);
    }
    case AggKind::kTypeBreakdown: {
      std::vector<std::string> header = {"key"};
      for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
        header.emplace_back(to_string(static_cast<FailureType>(t)));
      }
      header.emplace_back("total");
      TextTable table(std::move(header));
      for (const auto& row : result.breakdown) {
        std::vector<std::string> cells = {row.key};
        for (std::uint64_t c : row.counts) cells.push_back(fmt_u64(c));
        cells.push_back(fmt_u64(row.total));
        table.add_row(std::move(cells));
      }
      return "# " + spec.name + "\n" + table.render();
    }
    case AggKind::kCdf: {
      std::string out;
      for (const auto& row : result.cdf) {
        out += "# " + spec.name;
        if (spec.group != GroupBy::kNone) out += " [" + row.key + "]";
        out += "\n";
        out += render_cdf(row.samples, default_cdf_quantiles());
      }
      if (result.cdf.empty()) out += "# " + spec.name + "\n  (no samples)\n";
      return out;
    }
    case AggKind::kTopK: {
      TextTable table({"rank", "key", "count", "share"});
      for (std::size_t i = 0; i < result.top.size(); ++i) {
        const auto& row = result.top[i];
        table.add_row({fmt_u64(i + 1), row.key, fmt_u64(row.count),
                       TextTable::num(row.percent, 1) + "%"});
      }
      return "# " + spec.name + "\n" + table.render();
    }
    case AggKind::kTransition:
      return render_transition_matrix(result.matrix, transition_title(spec));
  }
  return {};
}

std::string query_result_to_json(const QueryResult& result) {
  const QuerySpec& spec = result.spec;
  std::string out = "{\n";
  out += "  \"name\": \"" + json_escape(spec.name) + "\",\n";
  out += "  \"spec\": \"" + json_escape(to_string(spec)) + "\",\n";
  out += "  \"agg\": \"" + std::string(to_string(spec.agg)) + "\"";

  const auto open_rows = [&out] { out += ",\n  \"rows\": ["; };
  const auto close_rows = [&out](bool any) { out += any ? "\n  ]\n}\n" : "]\n}\n"; };
  bool first = true;
  const auto begin_row = [&out, &first] {
    out += first ? "\n    " : ",\n    ";
    first = false;
  };

  switch (spec.agg) {
    case AggKind::kPrevalenceFrequency: {
      open_rows();
      for (const auto& row : result.pf) {
        begin_row();
        out += "{ \"key\": \"" + json_escape(row.key) + "\", \"id\": " + fmt_i64(row.id) +
               ", \"devices\": " + fmt_u64(row.devices) +
               ", \"failing\": " + fmt_u64(row.failing_devices) +
               ", \"failures\": " + fmt_u64(row.failures) +
               ", \"prevalence\": " + fmt_double(row.prevalence) +
               ", \"frequency\": " + fmt_double(row.frequency) + " }";
      }
      close_rows(!result.pf.empty());
      break;
    }
    case AggKind::kTypeBreakdown: {
      open_rows();
      for (const auto& row : result.breakdown) {
        begin_row();
        out += "{ \"key\": \"" + json_escape(row.key) + "\", \"id\": " + fmt_i64(row.id) +
               ", \"counts\": { ";
        for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
          if (t) out += ", ";
          out += '"';
          out += to_string(static_cast<FailureType>(t));
          out += "\": ";
          out += fmt_u64(row.counts[t]);
        }
        out += " }, \"total\": " + fmt_u64(row.total) + " }";
      }
      close_rows(!result.breakdown.empty());
      break;
    }
    case AggKind::kCdf: {
      open_rows();
      for (const auto& row : result.cdf) {
        begin_row();
        out += "{ \"key\": \"" + json_escape(row.key) + "\", \"id\": " + fmt_i64(row.id) +
               ", \"n\": " + fmt_u64(row.samples.size()) +
               ", \"mean\": " + fmt_double(row.samples.mean()) + ", \"quantiles\": [";
        for (std::size_t i = 0; i < row.quantiles.size(); ++i) {
          if (i) out += ", ";
          out += "{ \"q\": " + fmt_double(row.quantiles[i].first) +
                 ", \"value\": " + fmt_double(row.quantiles[i].second) + " }";
        }
        out += "] }";
      }
      close_rows(!result.cdf.empty());
      break;
    }
    case AggKind::kTopK: {
      open_rows();
      for (std::size_t i = 0; i < result.top.size(); ++i) {
        const auto& row = result.top[i];
        begin_row();
        out += "{ \"key\": \"" + json_escape(row.key) + "\", \"id\": " + fmt_i64(row.id) +
               ", \"rank\": " + fmt_u64(i + 1) + ", \"count\": " + fmt_u64(row.count) +
               ", \"percent\": " + fmt_double(row.percent) + " }";
      }
      close_rows(!result.top.empty());
      break;
    }
    case AggKind::kTransition: {
      out += ",\n  \"matrix\": {\n    \"from\": \"" +
             std::string(to_string(spec.from_rat)) + "\",\n    \"to\": \"" +
             std::string(to_string(spec.to_rat)) + "\",\n    \"cells\": [";
      for (std::size_t i = 0; i < kSignalLevelCount; ++i) {
        out += i ? ",\n      [" : "\n      [";
        for (std::size_t j = 0; j < kSignalLevelCount; ++j) {
          if (j) out += ", ";
          out += fmt_double(result.matrix[i][j]);
        }
        out += "]";
      }
      out += "\n    ]\n  }\n}\n";
      break;
    }
  }
  return out;
}

std::string query_result_to_csv(const QueryResult& result) {
  const QuerySpec& spec = result.spec;
  std::string out;
  switch (spec.agg) {
    case AggKind::kPrevalenceFrequency: {
      out += "key,id,devices,failing,failures,prevalence,frequency\n";
      for (const auto& row : result.pf) {
        out += row.key + "," + fmt_i64(row.id) + "," + fmt_u64(row.devices) + "," +
               fmt_u64(row.failing_devices) + "," + fmt_u64(row.failures) + "," +
               fmt_double(row.prevalence) + "," + fmt_double(row.frequency) + "\n";
      }
      break;
    }
    case AggKind::kTypeBreakdown: {
      out += "key,id";
      for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
        out += ',';
        out += to_string(static_cast<FailureType>(t));
      }
      out += ",total\n";
      for (const auto& row : result.breakdown) {
        out += row.key + "," + fmt_i64(row.id);
        for (std::uint64_t c : row.counts) {
          out += ',';
          out += fmt_u64(c);
        }
        out += ',';
        out += fmt_u64(row.total);
        out += '\n';
      }
      break;
    }
    case AggKind::kCdf: {
      out += "key,id,stat,value\n";
      for (const auto& row : result.cdf) {
        for (const auto& [q, value] : row.quantiles) {
          out += row.key + "," + fmt_i64(row.id) + ",q" + fmt_double(q) + "," +
                 fmt_double(value) + "\n";
        }
        out += row.key + "," + fmt_i64(row.id) + ",mean," + fmt_double(row.samples.mean()) +
               "\n";
        out += row.key + "," + fmt_i64(row.id) + ",n," + fmt_u64(row.samples.size()) + "\n";
      }
      break;
    }
    case AggKind::kTopK: {
      out += "rank,key,id,count,percent\n";
      for (std::size_t i = 0; i < result.top.size(); ++i) {
        const auto& row = result.top[i];
        out += fmt_u64(i + 1) + "," + row.key + "," + fmt_i64(row.id) + "," +
               fmt_u64(row.count) + "," + fmt_double(row.percent) + "\n";
      }
      break;
    }
    case AggKind::kTransition: {
      out += "from,to,i,j,value\n";
      for (std::size_t i = 0; i < kSignalLevelCount; ++i) {
        for (std::size_t j = 0; j < kSignalLevelCount; ++j) {
          out += std::string(to_string(spec.from_rat)) + "," +
                 std::string(to_string(spec.to_rat)) + "," + std::to_string(i) + "," +
                 std::to_string(j) + "," + fmt_double(result.matrix[i][j]) + "\n";
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace cellrel::query

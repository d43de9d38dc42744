// QuerySpec: the declarative description of one trace query.
//
// A query is (filter, group-by, aggregation): filter predicates over
// model / ISP / RAT / signal level / BS / failure type / time window, a
// group-by key, and one of four aggregations (prevalence-frequency, failure
// type breakdown, duration CDF quantiles, top-k counts) plus the Fig. 17
// transition-increase matrix. Specs round-trip through a canonical
// "key=value ..." string form, which is what the CLI parses and what the
// JSON export echoes, so a result document fully describes the question it
// answers.

#ifndef CELLREL_QUERY_SPEC_H
#define CELLREL_QUERY_SPEC_H

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/report.h"
#include "bs/base_station.h"
#include "bs/isp.h"
#include "common/names.h"
#include "radio/signal.h"

namespace cellrel::query {

/// Group-by key. Model, ISP, and the two device-cohort keys (5G capability,
/// Android version) are device-keyed (the prevalence denominator counts
/// devices per group); the rest are record-keyed (every eligible device is
/// the denominator of every row).
enum class GroupBy : std::uint8_t {
  kNone = 0,
  kModel,
  kIsp,
  kRat,
  kLevel,
  kBs,
  kType,
  kCause,
  kFiveG,    // device cohort: non-5G vs 5G-capable models (Figs. 6/7)
  kAndroid,  // device cohort: Android 9 vs Android 10 (Figs. 8/9)
};

enum class AggKind : std::uint8_t {
  kPrevalenceFrequency = 0,  // "pf"
  kTypeBreakdown,            // "breakdown"
  kCdf,                      // "cdf" (kept-failure durations, seconds)
  kTopK,                     // "topk" (record counts per group, ranked)
  kTransition,               // "transition" (Fig. 17 matrix; no filter or group)
};

/// Which prevalence-frequency column a pf query renders as its text series.
enum class SeriesKind : std::uint8_t {
  kPrevalence = 0,
  kFrequency,
};

/// Conjunction of optional predicates; an unset field matches everything.
/// Model/ISP constrain devices (and thereby prevalence denominators); the
/// rest constrain records only.
struct QueryFilter {
  std::optional<int> model_id;
  std::optional<IspId> isp;
  std::optional<Rat> rat;
  std::optional<SignalLevel> level;
  std::optional<BsIndex> bs;
  std::optional<FailureType> type;
  /// Time window over the record timestamp in canonical seconds:
  /// since <= at_s < until.
  std::optional<double> since_s;
  std::optional<double> until_s;
};

struct QuerySpec {
  std::string name = "query";
  AggKind agg = AggKind::kPrevalenceFrequency;
  GroupBy group = GroupBy::kNone;
  QueryFilter filter;
  /// pf only: the column the text series renders.
  SeriesKind series = SeriesKind::kPrevalence;
  /// topk only.
  std::size_t top_k = 10;
  /// transition only: the Fig. 17 panel.
  Rat from_rat = Rat::k4G;
  Rat to_rat = Rat::k5G;
  /// Text-format knob (precision / bars), shared with the figure renderers.
  RenderOptions render;
};

std::string_view to_string(GroupBy g);
std::string_view to_string(AggKind a);
std::string_view to_string(SeriesKind s);
std::optional<GroupBy> parse_group_by(std::string_view s);
std::optional<AggKind> parse_agg_kind(std::string_view s);
std::optional<SeriesKind> parse_series_kind(std::string_view s);

/// Canonical one-line form: fixed key order, defaulted fields omitted
/// (except agg/group, always present). Example:
///   "agg=pf group=model series=frequency type=Data_Stall precision=1"
std::string to_string(const QuerySpec& spec);

/// Parses whitespace-separated "key=value" tokens (the canonical form plus
/// "name=..."). Returns nullopt and sets *error (if non-null) on unknown
/// keys, unparsable values, and — for agg=transition — any filter key or a
/// group other than none, naming the key.
std::optional<QuerySpec> parse_query_spec(std::string_view text, std::string* error);

}  // namespace cellrel::query

#endif  // CELLREL_QUERY_SPEC_H

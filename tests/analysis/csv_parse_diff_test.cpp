// Differential test of the dataset row parsers.
//
// The field-cursor parsers in analysis/csv_io.cpp replaced a set of
// split()-based parsers, which are kept below verbatim as the reference.
// A seeded, deterministic mutation corpus over real rows of all seven row
// formats (records, spill, devices, base stations, connected time,
// transitions, dwells) and both cell-identity shapes must parse to equal
// values under both, or be rejected by both. The only differences allowed
// are the named changes in `Change`; the reference can apply each one, a
// difference must be explained by exactly one of them, and every change
// must show up in the corpus at least once. The header check is file-level
// and has its own case at the end.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/csv_io.h"
#include "common/names.h"
#include "common/rng.h"
#include "workload/campaign.h"

namespace cellrel {
namespace {

namespace fs = std::filesystem;

/// What the cursor parsers accept differently from the reference.
enum Change : unsigned {
  kUnknownCause = 1u << 0,   // records: a non-catalogue cause name read as kNone
  kEnumRange = 1u << 1,      // devices android 9/10; base_stations rat_mask < 16, location < 6
  kSecondsSyntax = 1u << 2,  // strtod spellings std::from_chars rejects (+, spaces, hex, ...)
  kSecondsLength = 1u << 3,  // seconds of 64+ characters overflowed strtod's bounded copy
};
constexpr Change kChanges[] = {kUnknownCause, kEnumRange, kSecondsSyntax, kSecondsLength};
constexpr unsigned kAllChanges = kUnknownCause | kEnumRange | kSecondsSyntax | kSecondsLength;

const char* change_name(Change c) {
  switch (c) {
    case kUnknownCause: return "unknown cause";
    case kEnumRange: return "enum code range";
    case kSecondsSyntax: return "seconds syntax";
    case kSecondsLength: return "seconds length";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Reference: the split()-based parsers, with each change switchable.
// ---------------------------------------------------------------------------

namespace ref {

std::vector<std::string_view> split(std::string_view line, char sep = ',') {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T value{};
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_seconds(std::string_view s, unsigned changes) {
  if (!(changes & kSecondsLength) && s.size() >= 64) return std::nullopt;
  double v = 0.0;
  if (changes & kSecondsSyntax) {
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  } else {
    const std::string buf(s);
    char* end = nullptr;
    v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size()) return std::nullopt;
  }
  if (!(v >= 0.0 && v * 1e6 < 0x1p63)) return std::nullopt;
  return v;
}

bool flag_ok(std::string_view s) { return s == "0" || s == "1"; }

std::optional<CellIdentity> cell(std::string_view s) {
  if (s.starts_with("cdma:")) {
    const auto parts = split(s.substr(5), '-');
    if (parts.size() != 3) return std::nullopt;
    const auto sid = parse_number<std::uint16_t>(parts[0]);
    const auto nid = parse_number<std::uint16_t>(parts[1]);
    const auto bid = parse_number<std::uint32_t>(parts[2]);
    if (!sid || !nid || !bid) return std::nullopt;
    return CellIdentity{CdmaCellId{*sid, *nid, *bid}};
  }
  const auto parts = split(s, '-');
  if (parts.size() != 4) return std::nullopt;
  const auto mcc = parse_number<std::uint16_t>(parts[0]);
  const auto mnc = parse_number<std::uint16_t>(parts[1]);
  const auto lac = parse_number<std::uint32_t>(parts[2]);
  const auto cid = parse_number<std::uint32_t>(parts[3]);
  if (!mcc || !mnc || !lac || !cid) return std::nullopt;
  return CellIdentity{CellGlobalId{*mcc, *mnc, *lac, *cid}};
}

std::optional<TraceRecord> record(std::string_view line, unsigned changes) {
  const auto f = split(line);
  if (f.size() != 15) return std::nullopt;
  TraceRecord r;
  const auto device = parse_number<std::uint64_t>(f[0]);
  const auto model = parse_number<int>(f[1]);
  const auto isp = isp_from_string(f[2]);
  const auto type = parse_failure_type(f[3]);
  const auto at = parse_seconds(f[4], changes);
  const auto duration = parse_seconds(f[5], changes);
  const auto method = duration_method_from_string(f[6]);
  const auto rat = parse_rat(f[7]);
  const auto level = parse_number<std::size_t>(f[8]);
  const auto bs = parse_number<BsIndex>(f[9]);
  const auto cell_id = cell(f[10]);
  const auto cause = FailCauseCatalog::instance().by_name(f[12]);
  const auto probe_rounds = parse_number<std::uint32_t>(f[14]);
  if (!device || !model || !isp || !type || !at || !duration || !method || !rat ||
      !level || *level >= kSignalLevelCount || !bs || !cell_id || !probe_rounds) {
    return std::nullopt;
  }
  if ((changes & kUnknownCause) && !cause) return std::nullopt;
  r.device = *device;
  r.model_id = *model;
  r.isp = *isp;
  r.type = *type;
  r.at = SimTime::from_seconds(*at);
  r.duration = SimDuration::seconds(*duration);
  r.duration_method = *method;
  r.rat = *rat;
  r.level = signal_level_from_index(*level);
  r.bs = *bs;
  r.cell = *cell_id;
  r.apn = std::string(f[11]);
  r.cause = cause.value_or(FailCause::kNone);
  if (!flag_ok(f[13])) return std::nullopt;
  r.filtered_false_positive = f[13] == "1";
  r.probe_rounds = *probe_rounds;
  return r;
}

std::optional<DeviceMeta> device(std::string_view line, unsigned changes) {
  const auto f = split(line);
  if (f.size() != 5) return std::nullopt;
  const auto id = parse_number<std::uint64_t>(f[0]);
  const auto model = parse_number<int>(f[1]);
  const auto isp = isp_from_string(f[2]);
  const auto android = parse_number<int>(f[4]);
  if (!id || !model || !isp || !android || !flag_ok(f[3])) return std::nullopt;
  if ((changes & kEnumRange) && *android != 9 && *android != 10) return std::nullopt;
  return DeviceMeta{*id, *model, *isp, f[3] == "1", static_cast<AndroidVersion>(*android)};
}

std::optional<BsMeta> base_station(std::string_view line, unsigned changes) {
  const auto f = split(line);
  if (f.size() != 5) return std::nullopt;
  const auto index = parse_number<BsIndex>(f[0]);
  const auto isp = isp_from_string(f[1]);
  const auto mask = parse_number<int>(f[2]);
  const auto location = parse_number<int>(f[3]);
  const auto count = parse_number<std::uint64_t>(f[4]);
  if (!index || !isp || !mask || !location.has_value() || !count) return std::nullopt;
  if (changes & kEnumRange) {
    const auto code_mask = parse_number<unsigned>(f[2]);
    const auto code_location = parse_number<unsigned>(f[3]);
    if (!code_mask || *code_mask >= 16 || !code_location || *code_location >= 6) {
      return std::nullopt;
    }
  }
  return BsMeta{*index, *isp, static_cast<std::uint8_t>(*mask),
                static_cast<LocationClass>(*location), *count};
}

std::optional<ConnectedTimeRow> connected_time(std::string_view line, unsigned changes) {
  const auto f = split(line);
  if (f.size() != 3) return std::nullopt;
  const auto rat = parse_rat(f[0]);
  const auto level = parse_number<std::size_t>(f[1]);
  const auto seconds = parse_seconds(f[2], changes);
  if (!rat || !level || *level >= kSignalLevelCount || !seconds) return std::nullopt;
  return ConnectedTimeRow{*rat, signal_level_from_index(*level), *seconds};
}

std::optional<TransitionRecord> transition(std::string_view line, unsigned /*changes*/) {
  const auto f = split(line);
  if (f.size() != 6) return std::nullopt;
  const auto device = parse_number<std::uint64_t>(f[0]);
  const auto from_rat = parse_rat(f[1]);
  const auto from_level = parse_number<std::size_t>(f[2]);
  const auto to_rat = parse_rat(f[3]);
  const auto to_level = parse_number<std::size_t>(f[4]);
  if (!device || !from_rat || !from_level || !to_rat || !to_level ||
      *from_level >= kSignalLevelCount || *to_level >= kSignalLevelCount || !flag_ok(f[5])) {
    return std::nullopt;
  }
  return TransitionRecord{*device, *from_rat, signal_level_from_index(*from_level), *to_rat,
                          signal_level_from_index(*to_level), f[5] == "1"};
}

std::optional<DwellRecord> dwell(std::string_view line, unsigned /*changes*/) {
  const auto f = split(line);
  if (f.size() != 4) return std::nullopt;
  const auto device = parse_number<std::uint64_t>(f[0]);
  const auto rat = parse_rat(f[1]);
  const auto level = parse_number<std::size_t>(f[2]);
  if (!device || !rat || !level || *level >= kSignalLevelCount || !flag_ok(f[3])) {
    return std::nullopt;
  }
  return DwellRecord{*device, *rat, signal_level_from_index(*level), f[3] == "1"};
}

std::optional<RecordBatch::RowView> spill(std::string_view line, StringPool& apns) {
  const auto f = split(line);
  if (f.size() != 13) return std::nullopt;
  const auto device = parse_number<std::uint64_t>(f[0]);
  const auto type = parse_number<unsigned>(f[1]);
  const auto at_us = parse_number<std::int64_t>(f[2]);
  const auto duration_us = parse_number<std::int64_t>(f[3]);
  const auto method = parse_number<unsigned>(f[4]);
  const auto rat = parse_number<unsigned>(f[5]);
  const auto level = parse_number<unsigned>(f[6]);
  const auto bs = parse_number<BsIndex>(f[7]);
  const auto cause = parse_number<std::int32_t>(f[9]);
  const auto probe_rounds = parse_number<std::uint32_t>(f[11]);
  const auto gt = parse_number<unsigned>(f[12]);
  if (!device || !type || *type >= kFailureTypeCount || !at_us || *at_us < 0 ||
      !duration_us || *duration_us < 0 ||
      !method || *method > static_cast<unsigned>(DurationMethod::kStateTracking) ||
      !rat || *rat >= kRatCount || !level || *level >= kSignalLevelCount || !bs ||
      !cause || !probe_rounds || !gt || *gt >= kFalsePositiveKindCount || !flag_ok(f[10])) {
    return std::nullopt;
  }
  RecordBatch::RowView r;
  r.device = *device;
  r.type = static_cast<FailureType>(*type);
  r.at_us = *at_us;
  r.duration_us = *duration_us;
  r.duration_method = static_cast<DurationMethod>(*method);
  r.rat = static_cast<Rat>(*rat);
  r.level = static_cast<SignalLevel>(*level);
  r.bs = *bs;
  r.apn = apns.intern(f[8]);
  r.cause = static_cast<FailCause>(*cause);
  r.filtered_false_positive = f[10] == "1";
  r.probe_rounds = *probe_rounds;
  r.ground_truth_fp = static_cast<FalsePositiveKind>(*gt);
  return r;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Value equality per row type (every field, doubles bit for bit)
// ---------------------------------------------------------------------------

bool same(const TraceRecord& a, const TraceRecord& b) {
  return a.device == b.device && a.model_id == b.model_id && a.isp == b.isp &&
         a.type == b.type && a.at == b.at && a.duration == b.duration &&
         a.duration_method == b.duration_method && a.rat == b.rat && a.level == b.level &&
         a.bs == b.bs && a.cell == b.cell && a.apn == b.apn && a.cause == b.cause &&
         a.filtered_false_positive == b.filtered_false_positive &&
         a.probe_rounds == b.probe_rounds && a.ground_truth_fp == b.ground_truth_fp;
}
bool same(const DeviceMeta& a, const DeviceMeta& b) {
  return a.id == b.id && a.model_id == b.model_id && a.isp == b.isp &&
         a.has_5g == b.has_5g && a.android == b.android;
}
bool same(const BsMeta& a, const BsMeta& b) {
  return a.index == b.index && a.isp == b.isp && a.rat_mask == b.rat_mask &&
         a.location == b.location && a.failure_count == b.failure_count;
}
bool same(const ConnectedTimeRow& a, const ConnectedTimeRow& b) {
  return a.rat == b.rat && a.level == b.level &&
         std::bit_cast<std::uint64_t>(a.seconds) == std::bit_cast<std::uint64_t>(b.seconds);
}
bool same(const TransitionRecord& a, const TransitionRecord& b) {
  return a.device == b.device && a.from_rat == b.from_rat && a.from_level == b.from_level &&
         a.to_rat == b.to_rat && a.to_level == b.to_level &&
         a.failure_within_window == b.failure_within_window;
}
bool same(const DwellRecord& a, const DwellRecord& b) {
  return a.device == b.device && a.rat == b.rat && a.level == b.level &&
         a.failure_within_window == b.failure_within_window;
}
bool same(const CellIdentity& a, const CellIdentity& b) { return a == b; }

/// A spill row with its APN text (the pools of the two parsers differ).
struct SpillRow {
  RecordBatch::RowView row;
  std::string apn;
};
bool same(const SpillRow& a, const SpillRow& b) {
  const auto& x = a.row;
  const auto& y = b.row;
  return x.device == y.device && x.at_us == y.at_us && x.duration_us == y.duration_us &&
         x.bs == y.bs && x.cause == y.cause && x.probe_rounds == y.probe_rounds &&
         x.type == y.type && x.duration_method == y.duration_method && x.rat == y.rat &&
         x.level == y.level && x.filtered_false_positive == y.filtered_false_positive &&
         x.ground_truth_fp == y.ground_truth_fp && a.apn == b.apn;
}

template <typename T>
bool same(const std::optional<T>& a, const std::optional<T>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || same(*a, *b);
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

/// Field replacements: sign, whitespace, hex, inf/nan, out-of-range and
/// boundary numerics, plus names from the neighbouring catalogues.
const std::vector<std::string>& replacement_tokens() {
  static const std::vector<std::string> kTokens = {
      "+1", " 1", "1 ", "\t1", "+0.5", " 2.5", "0x10", "0x1p3", "0X1P-2", "inf", "-inf",
      "INF", "infinity", "+inf", "nan", "NaN", "-nan", "nan(0x1)", "1e300", "-1e300", "1e-400",
      "4e-320", "1e13", "9.2e12", "-1", "-0", "-0.0", "0", "1", "2", "5", "6", "7", "9", "10",
      "11", "15", "16", "17", "255", "256", "65535", "65536", "4294967295", "4294967296",
      "18446744073709551615", "18446744073709551616", "99999999999999999999", "1.5", ".5",
      "5.", "1e", "1e+2", "1E2", "0.000001", "00010", "1,5", "1-5", "",
      "NONE", "SIGNAL_LOST", "UNKNOWN_DATA_CALL_FAILURE", "signal_lost", "5G", "4G", "ISP-A",
      "ISP-D", "probing", "Data_Stall", "cdma:1-2-3", "cdma:1-2", "460-0-1-1", "460-0-1"};
  return kTokens;
}

std::vector<std::string> split_fields(const std::string& row, char sep) {
  std::vector<std::string> out;
  for (std::string_view f : ref::split(row, sep)) out.emplace_back(f);
  return out;
}

std::string join(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += sep;
    out += fields[i];
  }
  return out;
}

/// The seeded mutation corpus of one real row: every structural and field
/// mutation at every position, then random byte edits.
std::vector<std::string> mutations(const std::string& row, char sep, Rng& rng) {
  std::vector<std::string> out = {row};
  const std::vector<std::string> fields = split_fields(row, sep);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    auto with = [&](const std::string& value) {
      auto f = fields;
      f[i] = value;
      out.push_back(join(f, sep));
    };
    auto dropped = fields;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(i));
    out.push_back(join(dropped, sep));
    auto duplicated = fields;
    duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(i), fields[i]);
    out.push_back(join(duplicated, sep));
    for (const std::string& token : replacement_tokens()) with(token);
    with("+" + fields[i]);
    with(" " + fields[i]);
    with(fields[i] + " ");
    with(std::string(70, '0') + fields[i]);  // long numerics
    with(fields[i] + fields[i]);
    // Extra separator inside and after the field.
    if (!fields[i].empty()) {
      with(fields[i].substr(0, 1) + sep + fields[i].substr(1));
    }
    with(fields[i] + sep);
  }
  out.push_back(sep + row);
  out.push_back(row + sep);
  out.push_back(std::string());
  out.push_back(std::string(1, sep));

  // Random byte edits: flip a bit, substitute a byte from an alphabet of
  // separators and number syntax, delete or insert a byte.
  static constexpr std::string_view kAlphabet = "0123456789,-+. eExXaAnNiIfF\t:_";
  for (int k = 0; k < 60 && !row.empty(); ++k) {
    std::string m = row;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m.size()) - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0: m[pos] = static_cast<char>(m[pos] ^ (1 << rng.uniform_int(0, 7))); break;
      case 1:
        m[pos] = kAlphabet[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
        break;
      case 2: m.erase(pos, 1); break;
      default:
        m.insert(pos, 1,
                 kAlphabet[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(kAlphabet.size()) - 1))]);
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<std::string> data_rows(const fs::path& file) {
  std::ifstream in(file);
  std::string line;
  std::getline(in, line);  // header
  std::vector<std::string> rows;
  while (std::getline(in, line)) rows.push_back(line);
  return rows;
}

/// Up to `n` rows spread evenly over `rows`, always including the first
/// row that contains `must` (when given and present).
std::vector<std::string> sample(const std::vector<std::string>& rows, std::size_t n,
                                std::string_view must = {}) {
  std::vector<std::string> out;
  if (!must.empty()) {
    for (const std::string& r : rows) {
      if (r.find(must) != std::string::npos) {
        out.push_back(r);
        break;
      }
    }
  }
  const std::size_t step = std::max<std::size_t>(1, rows.size() / n);
  for (std::size_t i = 0; i < rows.size() && out.size() < n; i += step) out.push_back(rows[i]);
  return out;
}

/// One real campaign written out as a dataset directory and a spill
/// directory (built once for the suite).
class CsvParseDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One directory per process: ctest runs each case in its own process.
    base_ = fs::temp_directory_path() /
            ("cellrel_csv_diff_test_" + std::to_string(::getpid()));
    fs::remove_all(base_);
    Scenario sc;
    sc.device_count = 150;
    sc.deployment.bs_count = 600;
    sc.campaign_days = 30.0;
    sc.seed = 2024;
    sc.out_dir = (base_ / "dataset").string();
    sc.mobility.enabled = true;
    const CampaignResult materialized = Campaign(sc).run();
    ASSERT_FALSE(materialized.dataset.records.empty());
    sc.out_dir.clear();
    sc.stream = true;
    sc.spill_dir = (base_ / "spill").string();
    Campaign(sc).run();
  }
  static void TearDownTestSuite() { fs::remove_all(base_); }

  static fs::path dataset(const char* file) { return base_ / "dataset" / file; }
  static fs::path spill_file() { return base_ / "spill" / spill_shard_file(0); }

  static fs::path base_;
};
fs::path CsvParseDifferential::base_;

/// Outcome of one format's run.
struct Tally {
  std::size_t inputs = 0;
  std::size_t accepted = 0;
  std::map<std::string, std::size_t> explained;  // change name -> inputs

  std::size_t count(const char* change) const {
    const auto it = explained.find(change);
    return it == explained.end() ? 0 : it->second;
  }
};

/// Runs the corpus of `rows` through the cursor parser `cursor(line)` and
/// the reference `reference(line, changes)`. With every change applied
/// the reference must agree on every input; against the plain reference,
/// each difference must be explained by one change in `allowed`.
template <typename Cursor, typename Reference>
Tally differential(const std::vector<std::string>& rows, char sep, std::uint64_t seed,
                   unsigned allowed, Cursor cursor, Reference reference) {
  Tally tally;
  Rng rng(seed);
  for (const std::string& row : rows) {
    const auto parsed = cursor(row);
    EXPECT_TRUE(parsed.has_value()) << "real row rejected: " << row;
    for (const std::string& line : mutations(row, sep, rng)) {
      ++tally.inputs;
      const auto got = cursor(line);
      if (got) ++tally.accepted;
      EXPECT_TRUE(same(got, reference(line, kAllChanges)))
          << "cursor and fully-changed reference differ on '" << line << "'";
      if (same(got, reference(line, 0u))) continue;
      bool explained = false;
      for (Change c : kChanges) {
        if ((allowed & c) && same(got, reference(line, c))) {
          ++tally.explained[change_name(c)];
          explained = true;
          break;
        }
      }
      EXPECT_TRUE(explained) << "unexplained difference on '" << line << "': cursor "
                             << (got ? "accepts" : "rejects");
    }
  }
  return tally;
}

void expect_mixed(const Tally& t, const char* format) {
  SCOPED_TRACE(format);
  EXPECT_GT(t.inputs, 1000u);
  EXPECT_GT(t.accepted, 0u);
  EXPECT_LT(t.accepted, t.inputs);
}

TEST_F(CsvParseDifferential, RecordsAgreeUpToCauseAndSecondsChanges) {
  const auto rows = sample(data_rows(dataset(DatasetFiles::kRecords)), 12, ",cdma:");
  const Tally t = differential(
      rows, ',', 101, kUnknownCause | kSecondsSyntax | kSecondsLength,
      [](std::string_view l) { return trace_record_from_csv(l); }, ref::record);
  expect_mixed(t, "records");
  EXPECT_GT(t.count("unknown cause"), 0u);
  EXPECT_GT(t.count("seconds syntax"), 0u);
  EXPECT_GT(t.count("seconds length"), 0u);
}

TEST_F(CsvParseDifferential, SpillRowsAgreeExactly) {
  const auto rows = sample(data_rows(spill_file()), 12);
  const auto cursor = [](std::string_view l) -> std::optional<SpillRow> {
    StringPool apns;
    const auto r = spill_row_from_csv(l, apns);
    // A rejected row interns nothing.
    EXPECT_EQ(apns.size(), r ? 1u : 0u) << l;
    if (!r) return std::nullopt;
    return SpillRow{*r, std::string(apns.view(r->apn))};
  };
  const auto reference = [](std::string_view l, unsigned) -> std::optional<SpillRow> {
    StringPool apns;
    const auto r = ref::spill(l, apns);
    if (!r) return std::nullopt;
    return SpillRow{*r, std::string(apns.view(r->apn))};
  };
  const Tally t = differential(rows, ',', 102, 0u, cursor, reference);
  expect_mixed(t, "spill");
  EXPECT_TRUE(t.explained.empty());
}

TEST_F(CsvParseDifferential, DevicesAgreeUpToAndroidRange) {
  const auto rows = sample(data_rows(dataset(DatasetFiles::kDevices)), 12);
  const Tally t = differential(rows, ',', 103, kEnumRange, device_from_csv, ref::device);
  expect_mixed(t, "devices");
  EXPECT_GT(t.count("enum code range"), 0u);
}

TEST_F(CsvParseDifferential, BaseStationsAgreeUpToCodeRanges) {
  const auto rows = sample(data_rows(dataset(DatasetFiles::kBaseStations)), 12);
  const Tally t =
      differential(rows, ',', 104, kEnumRange, base_station_from_csv, ref::base_station);
  expect_mixed(t, "base_stations");
  EXPECT_GT(t.count("enum code range"), 0u);
}

TEST_F(CsvParseDifferential, ConnectedTimeAgreesUpToSecondsChanges) {
  const auto rows = sample(data_rows(dataset(DatasetFiles::kConnectedTime)), 24);
  const Tally t = differential(rows, ',', 105, kSecondsSyntax | kSecondsLength,
                               connected_time_from_csv, ref::connected_time);
  expect_mixed(t, "connected_time");
  EXPECT_GT(t.count("seconds syntax"), 0u);
  EXPECT_GT(t.count("seconds length"), 0u);
}

TEST_F(CsvParseDifferential, TransitionsAndDwellsAgreeExactly) {
  const Tally tt =
      differential(sample(data_rows(dataset(DatasetFiles::kTransitions)), 12), ',', 106, 0u,
                   transition_from_csv, ref::transition);
  expect_mixed(tt, "transitions");
  EXPECT_TRUE(tt.explained.empty());
  const Tally td = differential(sample(data_rows(dataset(DatasetFiles::kDwells)), 12), ',',
                                107, 0u, dwell_from_csv, ref::dwell);
  expect_mixed(td, "dwells");
  EXPECT_TRUE(td.explained.empty());
}

TEST_F(CsvParseDifferential, CellIdentitiesAgreeExactly) {
  // Both shapes: the cell field of real records, CDMA ones included.
  std::vector<std::string> cells;
  for (const std::string& row : sample(data_rows(dataset(DatasetFiles::kRecords)), 200)) {
    const std::string cell = split_fields(row, ',').at(10);
    if (std::find(cells.begin(), cells.end(), cell) == cells.end()) cells.push_back(cell);
  }
  const bool has_cdma = std::any_of(cells.begin(), cells.end(),
                                    [](const std::string& c) { return c.starts_with("cdma:"); });
  if (!has_cdma) cells.push_back(to_string(CellIdentity{CdmaCellId{13600, 5, 7}}));
  cells.resize(std::min<std::size_t>(cells.size(), 24));
  const auto reference = [](std::string_view s, unsigned) { return ref::cell(s); };
  // The "cdma:" prefix is not a field, so mutate the part after it too.
  std::vector<std::string> cdma_tails;
  for (const std::string& c : cells) {
    if (c.starts_with("cdma:")) cdma_tails.push_back(c.substr(5));
  }
  const Tally t =
      differential(cells, '-', 108, 0u, cell_identity_from_string, reference);
  expect_mixed(t, "cell identity");
  EXPECT_TRUE(t.explained.empty());
  const Tally tc = differential(
      cdma_tails, '-', 109, 0u,
      [](std::string_view s) { return cell_identity_from_string("cdma:" + std::string(s)); },
      [](std::string_view s, unsigned) { return ref::cell("cdma:" + std::string(s)); });
  EXPECT_GT(tc.inputs, 0u);
  EXPECT_TRUE(tc.explained.empty());
}

// The one file-level change: every reader requires its writer's header,
// where the reference skipped line 1 unread.
TEST_F(CsvParseDifferential, HeaderIsCheckedOnEveryFile) {
  const fs::path copy = base_ / "header";
  const std::vector<std::string> header_mutations = {
      "", "device", "x,y,z", "DEVICE", " ", "#"};
  const char* const sidecar_files[] = {DatasetFiles::kRecords, DatasetFiles::kDevices,
                                       DatasetFiles::kBaseStations,
                                       DatasetFiles::kConnectedTime, DatasetFiles::kTransitions,
                                       DatasetFiles::kDwells};
  for (const char* file : sidecar_files) {
    for (const std::string& header : header_mutations) {
      SCOPED_TRACE(std::string(file) + " header '" + header + "'");
      fs::remove_all(copy);
      fs::copy(base_ / "dataset", copy);
      std::vector<std::string> rows = data_rows(copy / file);
      {
        std::ofstream out(copy / file, std::ios::trunc);
        out << header << '\n';
        for (const std::string& r : rows) out << r << '\n';
      }
      std::string error;
      try {
        read_dataset_csv(copy);
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
      EXPECT_NE(error.find("malformed header in"), std::string::npos) << error;
      EXPECT_NE(error.find(file), std::string::npos) << error;
    }
  }
  // The spill reader too.
  const fs::path spill = base_ / "header-spill.csv";
  const std::vector<std::string> rows = data_rows(spill_file());
  for (const std::string& header : header_mutations) {
    {
      std::ofstream out(spill, std::ios::trunc);
      out << header << '\n';
      for (const std::string& r : rows) out << r << '\n';
    }
    StringPool apns;
    EXPECT_THROW(read_spill_batches(spill, 64, apns, [](const RecordBatch&) {}),
                 std::runtime_error)
        << "header '" << header << "'";
  }
  // The reference skipped line 1 unread, so it accepted every one of these
  // files: their data rows all parse.
  for (const std::string& r : rows) {
    StringPool apns;
    EXPECT_TRUE(ref::spill(r, apns).has_value());
  }
}

}  // namespace
}  // namespace cellrel

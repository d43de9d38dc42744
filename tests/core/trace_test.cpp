#include "core/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "radio/fail_cause.h"

namespace cellrel {
namespace {

// The snprintf record formatter the to_chars one replaced (to_csv and
// compressed_record_bytes, renamed csv_row and storage_bytes), kept verbatim
// with the cell identity's two snprintf formats as the reference the
// formatter must match byte for byte.
namespace reference {

std::string cell_text(const CellIdentity& id) {
  char buf[64];
  if (const auto* g = std::get_if<CellGlobalId>(&id)) {
    std::snprintf(buf, sizeof(buf), "%03u-%02u-%u-%u", g->mcc, g->mnc, g->lac, g->cid);
  } else {
    const auto& c = std::get<CdmaCellId>(id);
    std::snprintf(buf, sizeof(buf), "cdma:%u-%u-%u", c.sid, c.nid, c.bid);
  }
  return buf;
}

std::string csv_row(const TraceRecord& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu,%d,%s,%s,%.3f,%.3f,%s,%s,%zu,%u,",
                static_cast<unsigned long long>(r.device), r.model_id,
                std::string(to_string(r.isp)).c_str(), std::string(to_string(r.type)).c_str(),
                r.at.to_seconds(), r.duration.to_seconds(),
                std::string(to_string(r.duration_method)).c_str(),
                std::string(to_string(r.rat)).c_str(), index_of(r.level), r.bs);
  std::string line = buf;
  line += cell_text(r.cell);
  line += ',';
  line += r.apn;
  line += ',';
  line += to_string(r.cause);
  line += ',';
  line += r.filtered_false_positive ? '1' : '0';
  line += ',';
  line += std::to_string(r.probe_rounds);
  return line;
}

std::size_t storage_bytes(const TraceRecord& record) {
  const std::size_t text = csv_row(record).size();
  return 30 + (text > 90 ? (text - 90) / 3 : 0);
}

}  // namespace reference

TraceRecord sample_record() {
  TraceRecord r;
  r.device = 42;
  r.model_id = 23;
  r.isp = IspId::kIspB;
  r.type = FailureType::kDataStall;
  r.at = SimTime::from_seconds(120.5);
  r.duration = SimDuration::seconds(33.25);
  r.duration_method = DurationMethod::kProbing;
  r.rat = Rat::k5G;
  r.level = SignalLevel::kLevel1;
  r.bs = 7;
  r.cell = CellGlobalId{460, 11, 0x2222, 99};
  r.apn = "cmnet";
  r.probe_rounds = 6;
  return r;
}

TEST(Trace, CsvContainsEveryField) {
  const std::string line = to_csv(sample_record());
  for (const char* token : {"42", "23", "ISP-B", "Data_Stall", "120.500", "33.250",
                            "probing", "5G", "cmnet", "460-11-8738-99", "6"}) {
    EXPECT_NE(line.find(token), std::string::npos) << token << " missing in: " << line;
  }
}

TEST(Trace, HeaderFieldCountMatchesRows) {
  const std::string header = trace_csv_header();
  const std::string line = to_csv(sample_record());
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(line));
}

TEST(Trace, FilteredFlagSerialized) {
  TraceRecord r = sample_record();
  r.filtered_false_positive = true;
  EXPECT_NE(to_csv(r).find(",1,"), std::string::npos);
}

TEST(Trace, CompressedSizeIsPlausible) {
  const TraceRecord r = sample_record();
  const std::size_t bytes = compressed_record_bytes(r);
  EXPECT_GE(bytes, 30u);
  EXPECT_LT(bytes, to_csv(r).size());  // compression helps
}

TEST(Trace, CdmaCellSerializes) {
  TraceRecord r = sample_record();
  r.cell = CdmaCellId{13600, 12, 345};
  EXPECT_NE(to_csv(r).find("cdma:13600-12-345"), std::string::npos);
}

TEST(Trace, DurationMethodNames) {
  EXPECT_EQ(to_string(DurationMethod::kProbing), "probing");
  EXPECT_EQ(to_string(DurationMethod::kAndroidFallback), "android-fallback");
  EXPECT_EQ(to_string(DurationMethod::kStateTracking), "state-tracking");
  EXPECT_EQ(to_string(DurationMethod::kNone), "none");
}

/// A time in µs drawn to stress "%.3f": exact binary ties (k/16 s, k odd,
/// printed half to even), decimal ties (xxx.xxx500 s, not exactly
/// representable), values near the ms grid, every magnitude up to the
/// largest time FieldCursor::seconds reads back, and plain random ones.
std::int64_t stress_us(Rng& rng) {
  const auto pick = [&](std::int64_t lo, std::int64_t hi) { return rng.uniform_int(lo, hi); };
  const std::int64_t whole_s = pick(0, 1) ? pick(0, 1000) : pick(0, std::int64_t{1} << 40);
  switch (pick(0, 7)) {
    case 0: return 62'500 * (2 * pick(0, std::int64_t{1} << 40) + 1);  // k/16 s, k odd
    case 1: return whole_s * 1'000'000 + pick(0, 999) * 1'000 + 500;  // decimal tie
    case 2: return whole_s * 1'000'000 + pick(0, 999) * 1'000 + pick(-2, 2);  // ms grid
    case 3: return pick(std::int64_t{1} << 52, std::int64_t{1} << 62);
    case 4: return pick(std::int64_t{1} << 62, INT64_MAX);
    case 5: return pick(0, 1'000);
    default: return pick(0, std::int64_t{86'400} * 240 * 1'000'000);  // a 240-day campaign
  }
}

std::vector<TraceRecord> formatter_corpus() {
  const auto& causes = FailCauseCatalog::instance().all();
  // The largest seconds value FieldCursor::seconds accepts: v * 1e6 < 2^63.
  double max_seconds = 0x1p63 / 1e6;
  while (!(max_seconds * 1e6 < 0x1p63)) max_seconds = std::nextafter(max_seconds, 0.0);

  Rng rng(20260420);
  const auto pick = [&](std::int64_t lo, std::int64_t hi) { return rng.uniform_int(lo, hi); };
  std::vector<TraceRecord> corpus;
  for (int i = 0; i < 120'000; ++i) {
    TraceRecord r;
    r.device = pick(0, 9) == 0 ? UINT64_MAX - static_cast<std::uint64_t>(pick(0, 3))
                               : static_cast<DeviceId>(pick(0, 1'000'000));
    r.model_id = pick(0, 19) == 0 ? static_cast<int>(pick(0, 1) ? INT_MIN : INT_MAX)
                                  : static_cast<int>(pick(-5, 40));
    r.isp = static_cast<IspId>(pick(0, kIspCount - 1));
    r.type = static_cast<FailureType>(pick(0, kFailureTypeCount - 1));
    r.at = SimTime::from_seconds(0.0) + SimDuration::microseconds(stress_us(rng));
    r.duration = SimDuration::microseconds(stress_us(rng));
    if (i % 997 == 0) r.at = SimTime::from_seconds(max_seconds);
    if (i % 991 == 0) r.duration = SimDuration::seconds(max_seconds);
    r.duration_method = static_cast<DurationMethod>(pick(0, 3));
    r.rat = static_cast<Rat>(pick(0, kRatCount - 1));
    r.level = static_cast<SignalLevel>(pick(0, kSignalLevelCount - 1));
    r.bs = pick(0, 9) == 0 ? kInvalidBs : static_cast<BsIndex>(pick(0, UINT32_MAX - 1));
    const auto u16 = [&](std::int64_t small) {
      return static_cast<std::uint16_t>(pick(0, 1) ? pick(0, small) : pick(0, UINT16_MAX));
    };
    if (pick(0, 4) == 0) {
      r.cell = CdmaCellId{u16(99), u16(9), static_cast<std::uint32_t>(pick(0, UINT32_MAX))};
    } else {
      r.cell = CellGlobalId{u16(99), u16(9), static_cast<std::uint32_t>(pick(0, UINT32_MAX)),
                            static_cast<std::uint32_t>(pick(0, UINT32_MAX))};
    }
    switch (pick(0, 4)) {
      case 0: r.apn = ""; break;
      case 1: r.apn = std::string(40, static_cast<char>('a' + pick(0, 25))); break;
      case 2: r.apn = std::string(static_cast<std::size_t>(pick(41, 300)), 'x'); break;
      default: r.apn = pick(0, 1) ? "cmnet" : "3gnet"; break;
    }
    const auto c = static_cast<std::size_t>(i) % (causes.size() + 1);
    r.cause = c < causes.size() ? causes[c].cause : static_cast<FailCause>(pick(-9, 9) * 7919);
    r.filtered_false_positive = pick(0, 1) == 1;
    r.probe_rounds = pick(0, 9) == 0 ? UINT32_MAX : static_cast<std::uint32_t>(pick(0, 12));
    corpus.push_back(std::move(r));
  }
  return corpus;
}

TEST(Trace, FormatterMatchesTheSnprintfReference) {
  const std::vector<TraceRecord> corpus = formatter_corpus();
  int mismatches = 0;
  for (const TraceRecord& r : corpus) {
    const std::string expected = reference::csv_row(r);
    const std::string actual = to_csv(r);
    if (actual != expected && ++mismatches <= 10) {
      ADD_FAILURE() << "expected: " << expected << "\nactual:   " << actual;
    }
    EXPECT_EQ(compressed_record_bytes(r), reference::storage_bytes(r)) << expected;
  }
  EXPECT_EQ(mismatches, 0);

  // The corpus reaches every edge it is drawn for.
  const auto any = [&](auto pred) { return std::any_of(corpus.begin(), corpus.end(), pred); };
  EXPECT_TRUE(any([](const TraceRecord& r) { return r.at.to_seconds() > 9.2e12; }));
  EXPECT_TRUE(any([](const TraceRecord& r) {  // an exact binary tie: k/16 s, k odd
    const std::int64_t us = r.duration.count_us();
    return us % 62'500 == 0 && (us / 62'500) % 2 == 1;
  }));
  EXPECT_TRUE(any([](const TraceRecord& r) { return r.bs == kInvalidBs; }));
  EXPECT_TRUE(any([](const TraceRecord& r) { return r.probe_rounds == UINT32_MAX; }));
  EXPECT_TRUE(any([](const TraceRecord& r) { return r.apn.empty(); }));
  EXPECT_TRUE(any([](const TraceRecord& r) { return r.apn.size() == 40; }));
  EXPECT_TRUE(any([](const TraceRecord& r) {
    return std::holds_alternative<CdmaCellId>(r.cell);
  }));
  EXPECT_TRUE(any([](const TraceRecord& r) {
    const auto* g = std::get_if<CellGlobalId>(&r.cell);
    return g != nullptr && g->mcc < 10 && g->mnc < 10;
  }));
  EXPECT_TRUE(any([](const TraceRecord& r) {
    return to_string(r.cause) == "UNKNOWN_DATA_CALL_FAILURE" && r.cause != FailCause::kUnknown;
  }));
}

}  // namespace
}  // namespace cellrel

#include "analysis/csv_io.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <vector>

namespace cellrel {

namespace {

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

/// A time or duration in seconds: finite, non-negative, and small enough
/// that SimDuration::seconds' int64 microsecond conversion is defined.
std::optional<double> parse_seconds(std::string_view s) {
  // std::from_chars for double is not universally available; strtod via a
  // bounded copy keeps this portable.
  char buf[64];
  if (s.size() >= sizeof(buf)) return std::nullopt;
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  // The negated range test also rejects nan; inf fails the upper bound.
  if (end != buf + s.size() || !(v >= 0.0 && v * 1e6 < 0x1p63)) return std::nullopt;
  return v;
}

std::ofstream open_out(const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("csv_io: cannot write " + path.string());
  return out;
}

std::ifstream open_in(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv_io: cannot read " + path.string());
  return in;
}

}  // namespace

std::optional<FailureType> failure_type_from_string(std::string_view s) {
  for (std::size_t i = 0; i < kFailureTypeCount; ++i) {
    const auto t = static_cast<FailureType>(i);
    if (to_string(t) == s) return t;
  }
  return std::nullopt;
}

std::optional<IspId> isp_from_string(std::string_view s) {
  for (IspId isp : kAllIsps) {
    if (to_string(isp) == s) return isp;
  }
  return std::nullopt;
}

std::optional<Rat> rat_from_string(std::string_view s) {
  for (Rat rat : kAllRats) {
    if (to_string(rat) == s) return rat;
  }
  return std::nullopt;
}

std::optional<DurationMethod> duration_method_from_string(std::string_view s) {
  for (auto m : {DurationMethod::kNone, DurationMethod::kProbing,
                 DurationMethod::kAndroidFallback, DurationMethod::kStateTracking}) {
    if (to_string(m) == s) return m;
  }
  return std::nullopt;
}

std::optional<CellIdentity> cell_identity_from_string(std::string_view s) {
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

std::optional<TraceRecord> trace_record_from_csv(std::string_view line) {
  // Format (trace_csv_header): device,model,isp,type,at_s,duration_s,method,
  // rat,level,bs,cell,apn,cause,filtered,probe_rounds
  const auto f = split(line);
  if (f.size() != 15) return std::nullopt;
  TraceRecord r;
  const auto device = parse_number<std::uint64_t>(f[0]);
  const auto model = parse_number<int>(f[1]);
  const auto isp = isp_from_string(f[2]);
  const auto type = failure_type_from_string(f[3]);
  const auto at = parse_seconds(f[4]);
  const auto duration = parse_seconds(f[5]);
  const auto method = duration_method_from_string(f[6]);
  const auto rat = rat_from_string(f[7]);
  const auto level = parse_number<std::size_t>(f[8]);
  const auto bs = parse_number<BsIndex>(f[9]);
  const auto cell = cell_identity_from_string(f[10]);
  const auto cause = FailCauseCatalog::instance().by_name(f[12]);
  const auto probe_rounds = parse_number<std::uint32_t>(f[14]);
  if (!device || !model || !isp || !type || !at || !duration || !method || !rat ||
      !level || *level >= kSignalLevelCount || !bs || !cell || !probe_rounds) {
    return std::nullopt;
  }
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
  r.cell = *cell;
  r.apn = std::string(f[11]);
  r.cause = cause.value_or(FailCause::kNone);
  if (f[13] != "0" && f[13] != "1") return std::nullopt;
  r.filtered_false_positive = f[13] == "1";
  r.probe_rounds = *probe_rounds;
  return r;
}

namespace {

// Section writers shared by the materialized exporter and the streaming
// sidecar exporter, so the two paths cannot drift format-wise.

void write_devices_csv(std::span<const DeviceMeta> devices,
                       const std::filesystem::path& dir) {
  auto out = open_out(dir / DatasetFiles::kDevices);
  out << "device,model,isp,has_5g,android\n";
  for (const auto& d : devices) {
    out << d.id << ',' << d.model_id << ',' << to_string(d.isp) << ','
        << (d.has_5g ? 1 : 0) << ',' << static_cast<int>(d.android) << '\n';
  }
}

void write_base_stations_csv(std::span<const BsMeta> base_stations,
                             const std::filesystem::path& dir) {
  auto out = open_out(dir / DatasetFiles::kBaseStations);
  out << "index,isp,rat_mask,location,failure_count\n";
  for (const auto& bs : base_stations) {
    out << bs.index << ',' << to_string(bs.isp) << ',' << static_cast<int>(bs.rat_mask)
        << ',' << static_cast<int>(bs.location) << ',' << bs.failure_count << '\n';
  }
}

void write_connected_time_csv(const ConnectedTimeTable& table,
                              const std::filesystem::path& dir) {
  auto out = open_out(dir / DatasetFiles::kConnectedTime);
  out << "rat,level,seconds\n";
  for (Rat rat : kAllRats) {
    for (SignalLevel level : kAllSignalLevels) {
      out << to_string(rat) << ',' << index_of(level) << ',' << table.at(rat, level)
          << '\n';
    }
  }
}

}  // namespace

void write_dataset_csv(const TraceDataset& dataset, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);

  {
    auto out = open_out(dir / DatasetFiles::kRecords);
    out << trace_csv_header() << '\n';
    for (const auto& r : dataset.records) out << to_csv(r) << '\n';
  }
  write_devices_csv(dataset.devices, dir);
  write_base_stations_csv(dataset.base_stations, dir);
  write_connected_time_csv(dataset.connected_time, dir);
  {
    auto out = open_out(dir / DatasetFiles::kTransitions);
    out << "device,from_rat,from_level,to_rat,to_level,failure\n";
    for (const auto& t : dataset.transitions) {
      out << t.device << ',' << to_string(t.from_rat) << ',' << index_of(t.from_level)
          << ',' << to_string(t.to_rat) << ',' << index_of(t.to_level) << ','
          << (t.failure_within_window ? 1 : 0) << '\n';
    }
  }
  {
    auto out = open_out(dir / DatasetFiles::kDwells);
    out << "device,rat,level,failure\n";
    for (const auto& d : dataset.dwells) {
      out << d.device << ',' << to_string(d.rat) << ',' << index_of(d.level) << ','
          << (d.failure_within_window ? 1 : 0) << '\n';
    }
  }
}

namespace {

void for_each_row(std::ifstream& in, const std::filesystem::path& file,
                  const std::function<void(std::string_view, int)>& fn) {
  std::string line;
  int line_no = 0;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    fn(line, line_no);
  }
  (void)file;
}

[[noreturn]] void malformed(const std::filesystem::path& file, int line_no) {
  throw std::runtime_error("csv_io: malformed row " + std::to_string(line_no) + " in " +
                           file.string());
}

}  // namespace

TraceDataset read_dataset_csv(const std::filesystem::path& dir) {
  TraceDataset data = read_dataset_sidecars_csv(dir);
  const auto file = dir / DatasetFiles::kRecords;
  auto in = open_in(file);
  for_each_row(in, file, [&](std::string_view line, int n) {
    auto record = trace_record_from_csv(line);
    if (!record) malformed(file, n);
    data.records.push_back(std::move(*record));
  });
  return data;
}

TraceDataset read_dataset_sidecars_csv(const std::filesystem::path& dir) {
  TraceDataset data;
  {
    const auto file = dir / DatasetFiles::kDevices;
    auto in = open_in(file);
    for_each_row(in, file, [&](std::string_view line, int n) {
      const auto f = split(line);
      if (f.size() != 5) malformed(file, n);
      const auto id = parse_number<std::uint64_t>(f[0]);
      const auto model = parse_number<int>(f[1]);
      const auto isp = isp_from_string(f[2]);
      const auto android = parse_number<int>(f[4]);
      if (!id || !model || !isp || !android || (f[3] != "0" && f[3] != "1")) {
        malformed(file, n);
      }
      data.devices.push_back(DeviceMeta{*id, *model, *isp, f[3] == "1",
                                        static_cast<AndroidVersion>(*android)});
    });
  }
  {
    const auto file = dir / DatasetFiles::kBaseStations;
    auto in = open_in(file);
    for_each_row(in, file, [&](std::string_view line, int n) {
      const auto f = split(line);
      if (f.size() != 5) malformed(file, n);
      const auto index = parse_number<BsIndex>(f[0]);
      const auto isp = isp_from_string(f[1]);
      const auto mask = parse_number<int>(f[2]);
      const auto location = parse_number<int>(f[3]);
      const auto count = parse_number<std::uint64_t>(f[4]);
      if (!index || !isp || !mask || !location.has_value() || !count) malformed(file, n);
      data.base_stations.push_back(BsMeta{*index, *isp, static_cast<std::uint8_t>(*mask),
                                          static_cast<LocationClass>(*location), *count});
    });
  }
  {
    const auto file = dir / DatasetFiles::kConnectedTime;
    auto in = open_in(file);
    for_each_row(in, file, [&](std::string_view line, int n) {
      const auto f = split(line);
      if (f.size() != 3) malformed(file, n);
      const auto rat = rat_from_string(f[0]);
      const auto level = parse_number<std::size_t>(f[1]);
      const auto seconds = parse_seconds(f[2]);
      if (!rat || !level || *level >= kSignalLevelCount || !seconds) malformed(file, n);
      data.connected_time.add(*rat, signal_level_from_index(*level), *seconds);
    });
  }
  {
    const auto file = dir / DatasetFiles::kTransitions;
    auto in = open_in(file);
    for_each_row(in, file, [&](std::string_view line, int n) {
      const auto f = split(line);
      if (f.size() != 6) malformed(file, n);
      const auto device = parse_number<std::uint64_t>(f[0]);
      const auto from_rat = rat_from_string(f[1]);
      const auto from_level = parse_number<std::size_t>(f[2]);
      const auto to_rat = rat_from_string(f[3]);
      const auto to_level = parse_number<std::size_t>(f[4]);
      if (!device || !from_rat || !from_level || !to_rat || !to_level ||
          *from_level >= kSignalLevelCount || *to_level >= kSignalLevelCount ||
          (f[5] != "0" && f[5] != "1")) {
        malformed(file, n);
      }
      data.transitions.push_back(TransitionRecord{
          *device, *from_rat, signal_level_from_index(*from_level), *to_rat,
          signal_level_from_index(*to_level), f[5] == "1"});
    });
  }
  {
    const auto file = dir / DatasetFiles::kDwells;
    auto in = open_in(file);
    for_each_row(in, file, [&](std::string_view line, int n) {
      const auto f = split(line);
      if (f.size() != 4) malformed(file, n);
      const auto device = parse_number<std::uint64_t>(f[0]);
      const auto rat = rat_from_string(f[1]);
      const auto level = parse_number<std::size_t>(f[2]);
      if (!device || !rat || !level || *level >= kSignalLevelCount ||
          (f[3] != "0" && f[3] != "1")) {
        malformed(file, n);
      }
      data.dwells.push_back(
          DwellRecord{*device, *rat, signal_level_from_index(*level), f[3] == "1"});
    });
  }
  return data;
}

// ---------------------------------------------------------------------------
// Batch spill files
// ---------------------------------------------------------------------------

std::string spill_shard_file(std::size_t shard_index) {
  return "shard-" + std::to_string(shard_index) + ".csv";
}

std::string spill_csv_header() {
  return "device,type,at_us,duration_us,method,rat,level,bs,apn,cause,filtered,"
         "probe_rounds,ground_truth_fp";
}

BatchSpillWriter::BatchSpillWriter(const std::filesystem::path& file)
    : file_(file), out_(file, std::ios::binary) {
  if (!out_) throw std::runtime_error("csv_io: cannot write spill file " + file.string());
  const std::string header = spill_csv_header() + '\n';
  out_ << header;
  bytes_ += header.size();
}

void BatchSpillWriter::write(const RecordBatch& batch, const StringPool& apns) {
  std::string line;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const RecordBatch::RowView r = batch.row(i);
    line.clear();
    line += std::to_string(r.device);
    line += ',';
    line += std::to_string(static_cast<unsigned>(r.type));
    line += ',';
    line += std::to_string(r.at_us);
    line += ',';
    line += std::to_string(r.duration_us);
    line += ',';
    line += std::to_string(static_cast<unsigned>(r.duration_method));
    line += ',';
    line += std::to_string(static_cast<unsigned>(r.rat));
    line += ',';
    line += std::to_string(static_cast<unsigned>(r.level));
    line += ',';
    line += std::to_string(r.bs);
    line += ',';
    line += apns.view(r.apn);
    line += ',';
    line += std::to_string(static_cast<std::int32_t>(r.cause));
    line += ',';
    line += r.filtered_false_positive ? '1' : '0';
    line += ',';
    line += std::to_string(r.probe_rounds);
    line += ',';
    line += std::to_string(static_cast<unsigned>(r.ground_truth_fp));
    line += '\n';
    out_ << line;
    bytes_ += line.size();
    ++records_;
  }
}

void BatchSpillWriter::close() {
  if (!out_.is_open()) return;
  out_.flush();
  if (!out_) throw std::runtime_error("csv_io: spill write failed for " + file_.string());
  out_.close();
}

std::optional<RecordBatch::RowView> spill_row_from_csv(std::string_view line,
                                                       StringPool& apns) {
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
      !cause || !probe_rounds || !gt || *gt >= kFalsePositiveKindCount ||
      (f[10] != "0" && f[10] != "1")) {
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

void read_spill_batches(const std::filesystem::path& file, std::size_t capacity,
                        StringPool& apns,
                        const std::function<void(const RecordBatch&)>& fn) {
  auto in = open_in(file);
  RecordBatch batch(capacity);
  for_each_row(in, file, [&](std::string_view line, int n) {
    const auto row = spill_row_from_csv(line, apns);
    if (!row) malformed(file, n);
    batch.push_row(*row);
    if (batch.full()) {
      fn(batch);
      batch.clear();
    }
  });
  if (!batch.empty()) fn(batch);
}

// ---------------------------------------------------------------------------
// Streaming dataset export
// ---------------------------------------------------------------------------

TraceCsvStreamWriter::TraceCsvStreamWriter(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  file_ = dir / DatasetFiles::kRecords;
  out_.open(file_);
  if (!out_) {
    throw std::runtime_error("csv_io: cannot write " + file_.string());
  }
  out_ << trace_csv_header() << '\n';
}

void TraceCsvStreamWriter::append(const RecordBatch& batch, const MaterializeContext& ctx) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out_ << to_csv(batch.materialize_row(i, ctx)) << '\n';
    ++records_;
  }
}

void TraceCsvStreamWriter::close() {
  if (!out_.is_open()) return;
  out_.flush();
  if (!out_) {
    throw std::runtime_error("csv_io: streaming record export failed for " + file_.string());
  }
  out_.close();
}

void write_streaming_sidecars_csv(const Aggregator& agg,
                                  const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  write_devices_csv(agg.devices(), dir);
  write_base_stations_csv(agg.base_stations(), dir);
  write_connected_time_csv(agg.connected_time(), dir);
  // Streaming shards fold transition/dwell samples into count tables at
  // emission time; the per-sample rows intentionally no longer exist, so the
  // export carries the headers only (read_dataset_csv accepts empty tables).
  {
    auto out = open_out(dir / DatasetFiles::kTransitions);
    out << "device,from_rat,from_level,to_rat,to_level,failure\n";
  }
  {
    auto out = open_out(dir / DatasetFiles::kDwells);
    out << "device,rat,level,failure\n";
  }
}

}  // namespace cellrel

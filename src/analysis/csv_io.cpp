#include "analysis/csv_io.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <vector>

#include "common/names.h"

namespace cellrel {

namespace {

/// Reads the delimited fields of one row left to right. Each typed read
/// takes the next field; a read past the last field, or a field that does
/// not parse, latches the first failure and yields a zero value, so a row
/// parser reads straight through and asks done() once at the end.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line, char sep = ',') : rest_(line), sep_(sep) {}

  /// The next field's raw text.
  std::string_view text() {
    ++fields_;
    if (!more_) {
      fail();
      return {};
    }
    const std::size_t pos = rest_.find(sep_);
    const std::string_view field = rest_.substr(0, pos);
    if (pos == std::string_view::npos) {
      more_ = false;
    } else {
      rest_.remove_prefix(pos + 1);
    }
    return field;
  }

  /// A decimal integer in std::from_chars syntax (no sign on unsigned
  /// types, no '+', no whitespace).
  template <typename T>
  T integer() {
    const std::string_view s = text();
    T value{};
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec != std::errc{} || ptr != s.data() + s.size()) fail();
    return value;
  }

  /// An enum stored as its integer code, which must be below `count`.
  template <typename E>
  E code(std::uint64_t count) {
    const auto v = integer<std::uint64_t>();
    if (v >= count) {
      fail();
      return E{};
    }
    return static_cast<E>(v);
  }

  /// "0" or "1".
  bool flag() {
    const std::string_view s = text();
    if (s != "0" && s != "1") fail();
    return s == "1";
  }

  /// A time or duration in seconds: finite, non-negative, and small enough
  /// that SimDuration::seconds' int64 microsecond conversion is defined.
  double seconds() {
    const std::string_view s = text();
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    // The negated range test also rejects nan; inf fails the upper bound.
    if (ec != std::errc{} || ptr != s.data() + s.size() || !(v >= 0.0 && v * 1e6 < 0x1p63)) {
      fail();
      return 0.0;
    }
    return v;
  }

  /// The next field through `parse`, a text -> std::optional<T> function.
  template <typename Parse>
  auto parsed(Parse parse) {
    auto value = parse(text());
    if (!value) fail();
    return value.value_or(typename decltype(value)::value_type{});
  }

  /// Latches a failure on the field just read unless `ok`.
  void require(bool ok) {
    if (!ok) fail();
  }

  /// Every read succeeded and no field is left over.
  bool done() const { return failed_ < 0 && !more_; }

  /// 0-based index of the first field that failed (missing or malformed),
  /// or -1 when only fields were left over.
  int failed_field() const { return failed_; }

 private:
  void fail() {
    if (failed_ < 0) failed_ = fields_ - 1;
  }

  std::string_view rest_;
  char sep_;
  bool more_ = true;  // a line of n separators holds n + 1 fields
  int fields_ = 0;
  int failed_ = -1;
};

/// Parses a whole line with `read`, or nullopt if the row is malformed.
template <typename Read>
auto row_from_csv(std::string_view line, Read read)
    -> std::optional<decltype(read(std::declval<FieldCursor&>()))> {
  FieldCursor f(line);
  auto value = read(f);
  if (!f.done()) return std::nullopt;
  return value;
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

// Each table's header: its writer emits it, its reader requires it.
constexpr std::string_view kDevicesHeader = "device,model,isp,has_5g,android";
constexpr std::string_view kBaseStationsHeader = "index,isp,rat_mask,location,failure_count";
constexpr std::string_view kConnectedTimeHeader = "rat,level,seconds";
constexpr std::string_view kTransitionsHeader =
    "device,from_rat,from_level,to_rat,to_level,failure";
constexpr std::string_view kDwellsHeader = "device,rat,level,failure";

/// The `index`-th comma-separated name of `header`.
std::string_view field_name(std::string_view header, int index) {
  FieldCursor names(header);
  std::string_view name;
  for (int i = 0; i <= index; ++i) name = names.text();
  return name;
}

/// Opens `file`, requires its first line to equal `header`, and hands each
/// non-empty data row through `read` (FieldCursor& -> T) to `sink(T&&, row)`.
/// A row `read` leaves unfinished throws, naming the file, the 1-based data
/// row and the first failing field.
template <typename Read, typename Sink>
void for_each_row(const std::filesystem::path& file, std::string_view header, Read read,
                  Sink&& sink) {
  auto in = open_in(file);
  std::string line;
  if (!std::getline(in, line) || line != header) {
    throw std::runtime_error("csv_io: malformed header in " + file.string() +
                             ": expected '" + std::string(header) + "'");
  }
  int row = 0;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    FieldCursor f(line);
    auto value = read(f);
    if (!f.done()) {
      const int bad = f.failed_field();
      const std::string what =
          bad < 0 ? std::string("extra fields")
                  : "field '" + std::string(field_name(header, bad)) + "'";
      throw std::runtime_error("csv_io: malformed row " + std::to_string(row) + " in " +
                               file.string() + ": " + what);
    }
    sink(std::move(value), row);
  }
}

std::optional<FailCause> cause_from_string(std::string_view s) {
  return FailCauseCatalog::instance().by_name(s);
}

TraceRecord read_record(FieldCursor& f) {
  // Format (trace_csv_header): device,model,isp,type,at_s,duration_s,method,
  // rat,level,bs,cell,apn,cause,filtered,probe_rounds
  TraceRecord r;
  r.device = f.integer<DeviceId>();
  r.model_id = f.integer<int>();
  r.isp = f.parsed(isp_from_string);
  r.type = f.parsed(parse_failure_type);
  r.at = SimTime::from_seconds(f.seconds());
  r.duration = SimDuration::seconds(f.seconds());
  r.duration_method = f.parsed(duration_method_from_string);
  r.rat = f.parsed(parse_rat);
  r.level = f.code<SignalLevel>(kSignalLevelCount);
  r.bs = f.integer<BsIndex>();
  r.cell = f.parsed(cell_identity_from_string);
  r.apn = std::string(f.text());
  r.cause = f.parsed(cause_from_string);
  r.filtered_false_positive = f.flag();
  r.probe_rounds = f.integer<std::uint32_t>();
  return r;
}

DeviceMeta read_device(FieldCursor& f) {
  DeviceMeta d;
  d.id = f.integer<DeviceId>();
  d.model_id = f.integer<int>();
  d.isp = f.parsed(isp_from_string);
  d.has_5g = f.flag();
  const int android = f.integer<int>();
  f.require(android == 9 || android == 10);
  d.android = static_cast<AndroidVersion>(android);
  return d;
}

BsMeta read_base_station(FieldCursor& f) {
  BsMeta bs;
  bs.index = f.integer<BsIndex>();
  bs.isp = f.parsed(isp_from_string);
  bs.rat_mask = f.code<std::uint8_t>(1u << kRatCount);
  bs.location = f.code<LocationClass>(kAllLocationClasses.size());
  bs.failure_count = f.integer<std::uint64_t>();
  return bs;
}

ConnectedTimeRow read_connected_time(FieldCursor& f) {
  ConnectedTimeRow row;
  row.rat = f.parsed(parse_rat);
  row.level = f.code<SignalLevel>(kSignalLevelCount);
  row.seconds = f.seconds();
  return row;
}

TransitionRecord read_transition(FieldCursor& f) {
  TransitionRecord t;
  t.device = f.integer<DeviceId>();
  t.from_rat = f.parsed(parse_rat);
  t.from_level = f.code<SignalLevel>(kSignalLevelCount);
  t.to_rat = f.parsed(parse_rat);
  t.to_level = f.code<SignalLevel>(kSignalLevelCount);
  t.failure_within_window = f.flag();
  return t;
}

DwellRecord read_dwell(FieldCursor& f) {
  DwellRecord d;
  d.device = f.integer<DeviceId>();
  d.rat = f.parsed(parse_rat);
  d.level = f.code<SignalLevel>(kSignalLevelCount);
  d.failure_within_window = f.flag();
  return d;
}

/// A spill row; the APN is interned only once the whole row has parsed.
RecordBatch::RowView read_spill_row(FieldCursor& f, StringPool& apns) {
  RecordBatch::RowView r;
  r.device = f.integer<DeviceId>();
  r.type = f.code<FailureType>(kFailureTypeCount);
  r.at_us = f.integer<std::int64_t>();
  f.require(r.at_us >= 0);
  r.duration_us = f.integer<std::int64_t>();
  f.require(r.duration_us >= 0);
  r.duration_method =
      f.code<DurationMethod>(static_cast<unsigned>(DurationMethod::kStateTracking) + 1);
  r.rat = f.code<Rat>(kRatCount);
  r.level = f.code<SignalLevel>(kSignalLevelCount);
  r.bs = f.integer<BsIndex>();
  const std::string_view apn = f.text();
  r.cause = static_cast<FailCause>(f.integer<std::int32_t>());
  r.filtered_false_positive = f.flag();
  r.probe_rounds = f.integer<std::uint32_t>();
  r.ground_truth_fp = f.code<FalsePositiveKind>(kFalsePositiveKindCount);
  if (f.done()) r.apn = apns.intern(apn);
  return r;
}

}  // namespace

std::optional<IspId> isp_from_string(std::string_view s) {
  for (IspId isp : kAllIsps) {
    if (to_string(isp) == s) return isp;
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
  const bool cdma = s.starts_with("cdma:");
  FieldCursor f(cdma ? s.substr(5) : s, '-');
  CellIdentity cell;
  if (cdma) {
    cell = CdmaCellId{f.integer<std::uint16_t>(), f.integer<std::uint16_t>(),
                      f.integer<std::uint32_t>()};
  } else {
    cell = CellGlobalId{f.integer<std::uint16_t>(), f.integer<std::uint16_t>(),
                        f.integer<std::uint32_t>(), f.integer<std::uint32_t>()};
  }
  if (!f.done()) return std::nullopt;
  return cell;
}

std::optional<TraceRecord> trace_record_from_csv(std::string_view line) {
  return row_from_csv(line, read_record);
}

std::optional<DeviceMeta> device_from_csv(std::string_view line) {
  return row_from_csv(line, read_device);
}

std::optional<BsMeta> base_station_from_csv(std::string_view line) {
  return row_from_csv(line, read_base_station);
}

std::optional<ConnectedTimeRow> connected_time_from_csv(std::string_view line) {
  return row_from_csv(line, read_connected_time);
}

std::optional<TransitionRecord> transition_from_csv(std::string_view line) {
  return row_from_csv(line, read_transition);
}

std::optional<DwellRecord> dwell_from_csv(std::string_view line) {
  return row_from_csv(line, read_dwell);
}

// ---------------------------------------------------------------------------
// The dataset writer
// ---------------------------------------------------------------------------

DatasetCsvWriter::DatasetCsvWriter(const std::filesystem::path& dir) : dir_(dir) {
  std::filesystem::create_directories(dir_);
  records_ = open_out(dir_ / DatasetFiles::kRecords);
  records_ << trace_csv_header() << '\n';
}

void DatasetCsvWriter::append(const TraceRecord& record) {
  records_ << to_csv(record) << '\n';
}

void DatasetCsvWriter::append(const RecordBatch& batch, const MaterializeContext& ctx) {
  for (std::size_t i = 0; i < batch.size(); ++i) append(batch.materialize_row(i, ctx));
}

void DatasetCsvWriter::close(std::span<const DeviceMeta> devices,
                             std::span<const BsMeta> base_stations,
                             const ConnectedTimeTable& connected_time,
                             std::span<const TransitionRecord> transitions,
                             std::span<const DwellRecord> dwells) {
  records_.flush();
  if (!records_) {
    throw std::runtime_error("csv_io: record export failed for " +
                             (dir_ / DatasetFiles::kRecords).string());
  }
  records_.close();
  {
    auto out = open_out(dir_ / DatasetFiles::kDevices);
    out << kDevicesHeader << '\n';
    for (const auto& d : devices) {
      out << d.id << ',' << d.model_id << ',' << to_string(d.isp) << ','
          << (d.has_5g ? 1 : 0) << ',' << static_cast<int>(d.android) << '\n';
    }
  }
  {
    auto out = open_out(dir_ / DatasetFiles::kBaseStations);
    out << kBaseStationsHeader << '\n';
    for (const auto& bs : base_stations) {
      out << bs.index << ',' << to_string(bs.isp) << ',' << static_cast<int>(bs.rat_mask)
          << ',' << static_cast<int>(bs.location) << ',' << bs.failure_count << '\n';
    }
  }
  {
    auto out = open_out(dir_ / DatasetFiles::kConnectedTime);
    out << kConnectedTimeHeader << '\n';
    for (Rat rat : kAllRats) {
      for (SignalLevel level : kAllSignalLevels) {
        out << to_string(rat) << ',' << index_of(level) << ','
            << connected_time.at(rat, level) << '\n';
      }
    }
  }
  {
    auto out = open_out(dir_ / DatasetFiles::kTransitions);
    out << kTransitionsHeader << '\n';
    for (const auto& t : transitions) {
      out << t.device << ',' << to_string(t.from_rat) << ',' << index_of(t.from_level)
          << ',' << to_string(t.to_rat) << ',' << index_of(t.to_level) << ','
          << (t.failure_within_window ? 1 : 0) << '\n';
    }
  }
  {
    auto out = open_out(dir_ / DatasetFiles::kDwells);
    out << kDwellsHeader << '\n';
    for (const auto& d : dwells) {
      out << d.device << ',' << to_string(d.rat) << ',' << index_of(d.level) << ','
          << (d.failure_within_window ? 1 : 0) << '\n';
    }
  }
}

void write_dataset_csv(const TraceDataset& dataset, const std::filesystem::path& dir) {
  DatasetCsvWriter out(dir);
  for (const TraceRecord& r : dataset.records) out.append(r);
  out.close(dataset.devices, dataset.base_stations, dataset.connected_time,
            dataset.transitions, dataset.dwells);
}

// ---------------------------------------------------------------------------
// The dataset readers
// ---------------------------------------------------------------------------

RecordReferences::RecordReferences(const TraceDataset& sidecars)
    : bs_count_(sidecars.base_stations.size()) {
  devices_.reserve(sidecars.devices.size());
  for (const DeviceMeta& d : sidecars.devices) devices_.push_back(d.id);
  std::sort(devices_.begin(), devices_.end());
}

void RecordReferences::check(DeviceId device, BsIndex bs, const std::filesystem::path& file,
                             int row) const {
  std::string reason;
  if (!std::binary_search(devices_.begin(), devices_.end(), device)) {
    reason = std::string("device ") + std::to_string(device) + " has no row in " +
             DatasetFiles::kDevices;
  } else if (bs != kInvalidBs && bs >= bs_count_) {
    reason = std::string("bs ") + std::to_string(bs) + " is outside the " +
             std::to_string(bs_count_) + " rows of " + DatasetFiles::kBaseStations;
  }
  if (reason.empty()) return;
  throw std::runtime_error(std::string("csv_io: row ") + std::to_string(row) + " in " +
                           file.string() + ": " + reason);
}

TraceDataset read_dataset_csv(const std::filesystem::path& dir) {
  TraceDataset data = read_dataset_sidecars_csv(dir);
  const RecordReferences refs(data);
  const auto file = dir / DatasetFiles::kRecords;
  for_each_row(file, trace_csv_header(), read_record, [&](TraceRecord&& r, int row) {
    refs.check(r.device, r.bs, file, row);
    data.records.push_back(std::move(r));
  });
  return data;
}

TraceDataset read_dataset_sidecars_csv(const std::filesystem::path& dir) {
  TraceDataset data;
  for_each_row(dir / DatasetFiles::kDevices, kDevicesHeader, read_device,
               [&](DeviceMeta&& d, int) { data.devices.push_back(d); });
  for_each_row(dir / DatasetFiles::kBaseStations, kBaseStationsHeader, read_base_station,
               [&](BsMeta&& bs, int) { data.base_stations.push_back(bs); });
  for_each_row(dir / DatasetFiles::kConnectedTime, kConnectedTimeHeader, read_connected_time,
               [&](ConnectedTimeRow&& c, int) {
                 data.connected_time.add(c.rat, c.level, c.seconds);
               });
  for_each_row(dir / DatasetFiles::kTransitions, kTransitionsHeader, read_transition,
               [&](TransitionRecord&& t, int) { data.transitions.push_back(t); });
  for_each_row(dir / DatasetFiles::kDwells, kDwellsHeader, read_dwell,
               [&](DwellRecord&& d, int) { data.dwells.push_back(d); });
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
  return row_from_csv(line, [&apns](FieldCursor& f) { return read_spill_row(f, apns); });
}

void read_spill_batches(const std::filesystem::path& file, std::size_t capacity,
                        StringPool& apns,
                        const std::function<void(const RecordBatch&)>& fn) {
  RecordBatch batch(capacity);
  for_each_row(
      file, spill_csv_header(), [&apns](FieldCursor& f) { return read_spill_row(f, apns); },
      [&](RecordBatch::RowView&& row, int) {
        batch.push_row(row);
        if (batch.full()) {
          fn(batch);
          batch.clear();
        }
      });
  if (!batch.empty()) fn(batch);
}

}  // namespace cellrel

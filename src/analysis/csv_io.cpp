#include "analysis/csv_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/names.h"
#include "common/row_writer.h"

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
    const char* const begin = rest_.data();
    const char* const end = begin + rest_.size();
    const char* sep = begin;
    while (sep != end && *sep != sep_) ++sep;
    const std::string_view field(begin, static_cast<std::size_t>(sep - begin));
    if (sep == end) {
      more_ = false;
    } else {
      rest_ = std::string_view(sep + 1, static_cast<std::size_t>(end - sep - 1));
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

/// Room for the widest devices, base_stations, transitions or dwells row.
constexpr std::size_t kSidecarRowBytes = 96;

std::ofstream open_out(const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("csv_io: cannot write " + path.string());
  return out;
}

/// The lines of one file, in order, without their '\n'. The file is read
/// in kCsvReadBlockBytes blocks into one buffer; the partial line at the
/// end of a block moves to the front before the next block is read, and the
/// buffer doubles only for a line longer than itself. A last line without a
/// trailing newline is still a line; a '\r' stays part of its line.
class LineReader {
 public:
  explicit LineReader(const std::filesystem::path& file)
      : in_(file, std::ios::binary), buf_(kCsvReadBlockBytes) {
    if (!in_) throw std::runtime_error("csv_io: cannot read " + file.string());
  }

  /// The next line, valid until the next call, or nullopt at end of file.
  std::optional<std::string_view> next() {
    for (;;) {
      char* const begin = buf_.data() + begin_;
      const std::size_t left = end_ - begin_;
      if (const void* nl = std::memchr(begin, '\n', left)) {
        const auto len = static_cast<std::size_t>(static_cast<const char*>(nl) - begin);
        begin_ += len + 1;
        return std::string_view(begin, len);
      }
      if (eof_) {
        if (left == 0) return std::nullopt;
        begin_ = end_;
        return std::string_view(begin, left);
      }
      read_block();
    }
  }

 private:
  void read_block() {
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    in_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
    const auto got = static_cast<std::size_t>(in_.gcount());
    end_ += got;
    eof_ = got == 0;
  }

  std::ifstream in_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  // unread bytes are buf_[begin_, end_)
  std::size_t end_ = 0;
  bool eof_ = false;
};

/// Writes `header` and one row per element of `rows`, each formatted by
/// `format(RowWriter&, const T&)` into a stack buffer.
template <typename T, typename Format>
void write_table(const std::filesystem::path& path, std::string_view header,
                 std::span<const T> rows, Format format) {
  auto out = open_out(path);
  out << header << '\n';
  for (const T& value : rows) {
    char buf[kSidecarRowBytes];
    RowWriter row(buf);
    format(row, value);
    row.put('\n');
    out.write(buf, static_cast<std::streamsize>(row.size()));
  }
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
  LineReader lines(file);
  if (lines.next() != header) {
    throw std::runtime_error("csv_io: malformed header in " + file.string() +
                             ": expected '" + std::string(header) + "'");
  }
  int row = 0;
  while (const std::optional<std::string_view> line = lines.next()) {
    ++row;
    if (line->empty()) continue;
    FieldCursor f(*line);
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
  r.apn = f.text();
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
  row_.resize(std::max(row_.size(), kRecordRowFixedBytes + record.apn.size() + 1));
  RowWriter row(row_);
  append_record_row(row, record);
  row.put('\n');
  records_.write(row_.data(), static_cast<std::streamsize>(row.size()));
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
  write_table(dir_ / DatasetFiles::kDevices, kDevicesHeader, devices,
              [](RowWriter& row, const DeviceMeta& d) {
                row.integer(d.id).put(',').integer(d.model_id).put(',');
                row.text(to_string(d.isp)).put(',').put(d.has_5g ? '1' : '0').put(',');
                row.integer(static_cast<int>(d.android));
              });
  write_table(dir_ / DatasetFiles::kBaseStations, kBaseStationsHeader, base_stations,
              [](RowWriter& row, const BsMeta& bs) {
                row.integer(bs.index).put(',').text(to_string(bs.isp)).put(',');
                row.integer(static_cast<int>(bs.rat_mask)).put(',');
                row.integer(static_cast<int>(bs.location)).put(',').integer(bs.failure_count);
              });
  {
    // Seconds at the stream's default 6 significant digits (see ROADMAP
    // item 2 for the integer format that replaces them).
    auto out = open_out(dir_ / DatasetFiles::kConnectedTime);
    out << kConnectedTimeHeader << '\n';
    for (Rat rat : kAllRats) {
      for (SignalLevel level : kAllSignalLevels) {
        out << to_string(rat) << ',' << index_of(level) << ','
            << connected_time.at(rat, level) << '\n';
      }
    }
  }
  write_table(dir_ / DatasetFiles::kTransitions, kTransitionsHeader, transitions,
              [](RowWriter& row, const TransitionRecord& t) {
                row.integer(t.device).put(',').text(to_string(t.from_rat)).put(',');
                row.integer(index_of(t.from_level)).put(',').text(to_string(t.to_rat));
                row.put(',').integer(index_of(t.to_level)).put(',');
                row.put(t.failure_within_window ? '1' : '0');
              });
  write_table(dir_ / DatasetFiles::kDwells, kDwellsHeader, dwells,
              [](RowWriter& row, const DwellRecord& d) {
                row.integer(d.device).put(',').text(to_string(d.rat)).put(',');
                row.integer(index_of(d.level)).put(',');
                row.put(d.failure_within_window ? '1' : '0');
              });
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
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const RecordBatch::RowView r = batch.row(i);
    const std::string_view apn = apns.view(r.apn);
    // A spill row's numbers are never wider than a record row's.
    row_.resize(std::max(row_.size(), kRecordRowFixedBytes + apn.size() + 1));
    RowWriter row(row_);
    row.integer(r.device).put(',').integer(static_cast<unsigned>(r.type)).put(',');
    row.integer(r.at_us).put(',').integer(r.duration_us).put(',');
    row.integer(static_cast<unsigned>(r.duration_method)).put(',');
    row.integer(static_cast<unsigned>(r.rat)).put(',');
    row.integer(static_cast<unsigned>(r.level)).put(',').integer(r.bs).put(',');
    row.text(apn).put(',').integer(static_cast<std::int32_t>(r.cause)).put(',');
    row.put(r.filtered_false_positive ? '1' : '0').put(',').integer(r.probe_rounds).put(',');
    row.integer(static_cast<unsigned>(r.ground_truth_fp)).put('\n');
    out_.write(row_.data(), static_cast<std::streamsize>(row.size()));
    bytes_ += row.size();
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

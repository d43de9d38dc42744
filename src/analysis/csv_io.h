// CSV import/export for the backend dataset.
//
// The study's backend receives compressed trace uploads and analyzes them
// centrally (§2.3). This module persists a TraceDataset as a directory of
// CSV files (records, devices, base stations, connected time, transitions,
// dwells) and loads it back, so campaigns can be generated once and
// re-analyzed offline — the workflow the cellrel_campaign CLI tool exposes.
//
// One writer (DatasetCsvWriter) produces every dataset directory: the
// materialized write_dataset_csv and the campaign merge's --out export, in
// both merge modes. Every writer formats its rows into a reused char
// buffer with std::to_chars; the record rows come from core/trace.h's
// append_record_row, the one record-row formatter (to_csv and the monitor's
// storage estimate use it too).
//
// Every reader reads its file in kCsvReadBlockBytes blocks and hands each
// line to one field cursor as a string_view: records, spill shards, the
// five sidecar tables and the cell identities. No file is held whole and
// no row is copied into a std::string. Every reader checks its file's
// header line against the writer's.
//
// Ground-truth annotations are intentionally NOT exported to records.csv
// (the real backend never had them), so analyses over an imported dataset
// reflect exactly what the monitor uploaded.

#ifndef CELLREL_ANALYSIS_CSV_IO_H
#define CELLREL_ANALYSIS_CSV_IO_H

#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/batch.h"
#include "analysis/dataset.h"

namespace cellrel {

/// Every reader reads its file in blocks of this many bytes. A line that
/// straddles two blocks is carried over to the next; a line longer than a
/// block grows the reader's buffer.
inline constexpr std::size_t kCsvReadBlockBytes = 64 * 1024;

/// File names written/read inside the dataset directory.
struct DatasetFiles {
  static constexpr const char* kRecords = "records.csv";
  static constexpr const char* kDevices = "devices.csv";
  static constexpr const char* kBaseStations = "base_stations.csv";
  static constexpr const char* kConnectedTime = "connected_time.csv";
  static constexpr const char* kTransitions = "transitions.csv";
  static constexpr const char* kDwells = "dwells.csv";
};

/// Writes one dataset directory: records.csv row by row as the rows arrive,
/// then the five sidecar tables on close(). Throws std::runtime_error on
/// I/O failure.
class DatasetCsvWriter {
 public:
  /// Creates `dir` if missing and opens records.csv with its header.
  explicit DatasetCsvWriter(const std::filesystem::path& dir);

  void append(const TraceRecord& record);
  /// Appends every row of `batch`, expanded through `ctx`.
  void append(const RecordBatch& batch, const MaterializeContext& ctx);

  /// Closes records.csv, throwing if its stream failed, then writes
  /// devices, base_stations, connected_time, transitions and dwells.
  void close(std::span<const DeviceMeta> devices, std::span<const BsMeta> base_stations,
             const ConnectedTimeTable& connected_time,
             std::span<const TransitionRecord> transitions,
             std::span<const DwellRecord> dwells);

 private:
  std::filesystem::path dir_;
  std::ofstream records_;
  std::vector<char> row_;  // grows to the longest row, then is reused
};

/// Writes the dataset under `dir` (created if missing) through
/// DatasetCsvWriter. Throws std::runtime_error on I/O failure.
void write_dataset_csv(const TraceDataset& dataset, const std::filesystem::path& dir);

/// Reads a dataset previously written by write_dataset_csv. Throws
/// std::runtime_error on missing files, a header line that is not the
/// writer's, malformed rows (the message names the file, the 1-based data
/// row and the field), or a record that points outside the dataset (see
/// RecordReferences).
TraceDataset read_dataset_csv(const std::filesystem::path& dir);

/// Reads every table EXCEPT records.csv (devices, base stations, connected
/// time, transitions, dwells). Spill-directory queries use this: the spill
/// files hold the lossless record rows while the device/BS sidecars come
/// from a dataset directory. Throws like read_dataset_csv.
TraceDataset read_dataset_sidecars_csv(const std::filesystem::path& dir);

/// The referential rule every record row must meet against its dataset's
/// sidecars: its device has a devices.csv row, and its bs indexes a
/// base_stations.csv row (kInvalidBs, "no serving cell", stays legal).
class RecordReferences {
 public:
  explicit RecordReferences(const TraceDataset& sidecars);

  /// Throws std::runtime_error naming `file`, the 1-based data `row` and
  /// the offending field when the record breaks the rule.
  void check(DeviceId device, BsIndex bs, const std::filesystem::path& file, int row) const;

 private:
  std::vector<DeviceId> devices_;  // sorted
  std::size_t bs_count_ = 0;
};

// --- row parsers (the readers' own; exposed for tests) ---
//
// Each returns nullopt unless the row holds exactly its format's fields,
// each well-formed: integers in std::from_chars syntax, enum codes in
// range, flags "0"/"1", names from their catalogue, and seconds that are
// finite, non-negative and inside the SimTime range.
std::optional<IspId> isp_from_string(std::string_view s);
std::optional<DurationMethod> duration_method_from_string(std::string_view s);
std::optional<CellIdentity> cell_identity_from_string(std::string_view s);

/// One records.csv row (the to_csv() format); the cause must be a
/// FailCauseCatalog name.
std::optional<TraceRecord> trace_record_from_csv(std::string_view line);

/// One devices.csv row; android is 9 or 10.
std::optional<DeviceMeta> device_from_csv(std::string_view line);

/// One base_stations.csv row; rat_mask < 16 and location < 6.
std::optional<BsMeta> base_station_from_csv(std::string_view line);

/// One connected_time.csv row.
struct ConnectedTimeRow {
  Rat rat = Rat::k4G;
  SignalLevel level = SignalLevel::kLevel0;
  double seconds = 0.0;
};
std::optional<ConnectedTimeRow> connected_time_from_csv(std::string_view line);

std::optional<TransitionRecord> transition_from_csv(std::string_view line);
std::optional<DwellRecord> dwell_from_csv(std::string_view line);

// ---------------------------------------------------------------------------
// Batch spill files (streaming campaigns, --spill-dir)
// ---------------------------------------------------------------------------
//
// One file per shard, written as batches fill and re-read in shard-index
// order at merge time, so peak batch residency is O(shards x capacity)
// instead of O(records). Unlike records.csv (which renders timestamps with
// %.3f), spill rows are LOSSLESS: integer microsecond counts, the raw
// FailCause code, and the ground-truth label ride along, so a spilled
// record round-trips bit-exactly — the property the streaming-vs-
// materialized equivalence contract rests on.

/// Spill file name for shard `shard_index`: "shard-<k>.csv".
std::string spill_shard_file(std::size_t shard_index);

/// Header of the spill row format: device,type,at_us,duration_us,method,
/// rat,level,bs,apn,cause,filtered,probe_rounds,ground_truth_fp (enums as
/// integer indices).
std::string spill_csv_header();

/// Appends whole RecordBatches to one shard's spill file.
class BatchSpillWriter {
 public:
  /// Opens `file` for writing and emits the header. Throws
  /// std::runtime_error on I/O failure.
  explicit BatchSpillWriter(const std::filesystem::path& file);

  /// Writes every row of `batch` (APN ids resolved against `apns`).
  void write(const RecordBatch& batch, const StringPool& apns);

  /// Flushes and closes; throws std::runtime_error if the stream failed.
  void close();

  std::uint64_t records_written() const { return records_; }
  std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::filesystem::path file_;
  std::ofstream out_;
  std::vector<char> row_;  // grows to the longest row, then is reused
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Parses one spill row into a batch row view; `apns` receives the APN
/// text (interned, first-appearance order) of a well-formed row. Returns
/// nullopt on malformed input, including a negative at_us or duration_us.
std::optional<RecordBatch::RowView> spill_row_from_csv(std::string_view line,
                                                       StringPool& apns);

/// Streams a spill file back as RecordBatches of at most `capacity` rows,
/// in file order, interning APNs into `apns`. The same batch buffer is
/// reused across calls to `fn`. Throws std::runtime_error on missing file
/// or malformed rows.
void read_spill_batches(const std::filesystem::path& file, std::size_t capacity,
                        StringPool& apns,
                        const std::function<void(const RecordBatch&)>& fn);

}  // namespace cellrel

#endif  // CELLREL_ANALYSIS_CSV_IO_H

// CSV import/export for the backend dataset.
//
// The study's backend receives compressed trace uploads and analyzes them
// centrally (§2.3). This module persists a TraceDataset as a directory of
// CSV files (records, devices, base stations, connected time, transitions,
// dwells) and loads it back, so campaigns can be generated once and
// re-analyzed offline — the workflow the cellrel_campaign CLI tool exposes.
//
// The record rows use the same serialization as core/trace.h's to_csv();
// ground-truth annotations are intentionally NOT exported (the real backend
// never had them), so analyses over an imported dataset reflect exactly
// what the monitor uploaded.

#ifndef CELLREL_ANALYSIS_CSV_IO_H
#define CELLREL_ANALYSIS_CSV_IO_H

#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>

#include "analysis/aggregate.h"
#include "analysis/batch.h"
#include "analysis/dataset.h"

namespace cellrel {

/// File names written/read inside the dataset directory.
struct DatasetFiles {
  static constexpr const char* kRecords = "records.csv";
  static constexpr const char* kDevices = "devices.csv";
  static constexpr const char* kBaseStations = "base_stations.csv";
  static constexpr const char* kConnectedTime = "connected_time.csv";
  static constexpr const char* kTransitions = "transitions.csv";
  static constexpr const char* kDwells = "dwells.csv";
};

/// Writes the dataset under `dir` (created if missing). Throws
/// std::runtime_error on I/O failure.
void write_dataset_csv(const TraceDataset& dataset, const std::filesystem::path& dir);

/// Reads a dataset previously written by write_dataset_csv. Throws
/// std::runtime_error on missing files or malformed rows.
TraceDataset read_dataset_csv(const std::filesystem::path& dir);

/// Reads every table EXCEPT records.csv (devices, base stations, connected
/// time, transitions, dwells). Spill-directory queries use this: the spill
/// files hold the lossless record rows while the device/BS sidecars come
/// from a dataset directory. Throws like read_dataset_csv.
TraceDataset read_dataset_sidecars_csv(const std::filesystem::path& dir);

// --- parsing helpers (exposed for tests) ---
std::optional<FailureType> failure_type_from_string(std::string_view s);
std::optional<IspId> isp_from_string(std::string_view s);
std::optional<Rat> rat_from_string(std::string_view s);
std::optional<DurationMethod> duration_method_from_string(std::string_view s);
std::optional<CellIdentity> cell_identity_from_string(std::string_view s);

/// Parses one records.csv row (the to_csv() format). Returns nullopt on a
/// malformed row, including an at_s/duration_s that is not finite, is
/// negative, or lies outside the SimTime range.
std::optional<TraceRecord> trace_record_from_csv(std::string_view line);

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
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Parses one spill row into a batch row view; `apns` receives the APN
/// text (interned, first-appearance order). Returns nullopt on malformed
/// input, including a negative at_us or duration_us.
std::optional<RecordBatch::RowView> spill_row_from_csv(std::string_view line,
                                                       StringPool& apns);

/// Streams a spill file back as RecordBatches of at most `capacity` rows,
/// in file order, interning APNs into `apns`. The same batch buffer is
/// reused across calls to `fn`. Throws std::runtime_error on missing file
/// or malformed rows.
void read_spill_batches(const std::filesystem::path& file, std::size_t capacity,
                        StringPool& apns,
                        const std::function<void(const RecordBatch&)>& fn);

// ---------------------------------------------------------------------------
// Streaming dataset export (--stream --out)
// ---------------------------------------------------------------------------
//
// Trace-level CSV export used to require the materialized merge: the writer
// took a whole TraceDataset. The streaming converter instead rides the
// streaming merge — each columnar batch is expanded row-by-row through the
// shard's MaterializeContext (the same re-derivation the materialized merge
// performs) and appended to records.csv as it is consumed, so the export
// runs in O(1) record memory and records.csv is byte-identical to
// write_dataset_csv()'s for the same scenario.

/// Appends materialized batch rows to "<dir>/records.csv" (dir created if
/// missing; header written on open). Throws std::runtime_error on I/O
/// failure.
class TraceCsvStreamWriter {
 public:
  explicit TraceCsvStreamWriter(const std::filesystem::path& dir);

  /// Writes every row of `batch`, expanded through `ctx` (to_csv format).
  void append(const RecordBatch& batch, const MaterializeContext& ctx);

  /// Flushes and closes; throws std::runtime_error if the stream failed.
  void close();

  std::uint64_t records_written() const { return records_; }

 private:
  std::filesystem::path file_;
  std::ofstream out_;
  std::uint64_t records_ = 0;
};

/// Writes the non-record tables of a streaming campaign under `dir`:
/// devices, base_stations and connected_time from the aggregator's retained
/// copies (byte-identical to the materialized export), transitions and
/// dwells header-only — streaming shards collapse those per-sample rows
/// into order-independent count tables, so the samples no longer exist.
void write_streaming_sidecars_csv(const Aggregator& agg,
                                  const std::filesystem::path& dir);

}  // namespace cellrel

#endif  // CELLREL_ANALYSIS_CSV_IO_H

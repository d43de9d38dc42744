// The query engine: compiles a QuerySpec into an accumulator and runs it
// over any of the campaign's record sources.
//
// QueryExecutor mirrors the Aggregator ingestion surface (add_devices /
// consume(RecordBatch) / ingest(RowView) / add_counts), so ONE engine serves
// all four sources: an in-memory dataset, a dataset directory's CSVs, the
// per-shard spill CSVs, and the live batch stream of every campaign merge
// (inline queries ride the merge's single fold pass in both merge modes).
// A materialized dataset reaches the same row path through
// RecordBatch::row_of, and its transition/dwell samples the same count
// tables through TransitionDwellCounts::add.
//
// Bit-identity contract (the PR 2/3/5 determinism contract, extended to
// query results): records are ingested in sequential record order on every
// path (shard-index order == file order == dataset order), every
// floating-point accumulation therefore runs over the same operands in the
// same order, and every timestamp/duration is quantized through
// canonical_seconds() — integer rounding of microseconds to the millisecond
// grid records.csv's %.3f text already holds — so the four sources produce
// byte-identical JSON/CSV for every thread count.

#ifndef CELLREL_QUERY_ENGINE_H
#define CELLREL_QUERY_ENGINE_H

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/batch.h"
#include "analysis/dataset.h"
#include "common/stats.h"
#include "core/trace.h"
#include "query/spec.h"

namespace cellrel::query {

/// Quantizes a timestamp/duration in microseconds onto the %.3f-seconds grid
/// of records.csv: rounds to the nearest millisecond in integers and returns
/// ms / 1000.0, bit-identical to parsing the "%.3f" text of us / 1e6. An
/// exact .500 ms tie, a negative value and a value from 2^52 us up take that
/// text path instead (printf rounds an exactly representable tie half to
/// even: 62,500 us gives 0.062). The 1 us shortfall a records.csv value can
/// read back with lies inside the 500 us rounding boundary, so every ingestion
/// path applying this to every time value is what makes CDF samples and
/// time-window predicates agree across lossless (spill, batch, in-memory) and
/// %.3f-rounded (records.csv) sources.
double canonical_seconds(std::int64_t us);

/// One executed query. Exactly one of the row vectors (or the matrix) is
/// populated, per spec.agg. Rows are ordered by ascending group id (top-k:
/// by count descending, id ascending) and carry no execution-source
/// information — the byte-identity contract covers the whole result.
struct QueryResult {
  QuerySpec spec;

  struct PfRow {
    std::int64_t id = 0;
    std::string key;
    std::uint64_t devices = 0;
    std::uint64_t failing_devices = 0;
    std::uint64_t failures = 0;
    double prevalence = 0.0;
    double frequency = 0.0;
  };
  struct BreakdownRow {
    std::int64_t id = 0;
    std::string key;
    std::array<std::uint64_t, kFailureTypeCount> counts{};
    std::uint64_t total = 0;
  };
  struct CdfRow {
    std::int64_t id = 0;
    std::string key;
    SampleSet samples;  // canonical seconds (text rendering re-runs render_cdf)
    std::vector<std::pair<double, double>> quantiles;  // (q, value)
  };
  struct TopRow {
    std::int64_t id = 0;
    std::string key;
    std::uint64_t count = 0;
    double percent = 0.0;
  };

  std::vector<PfRow> pf;
  std::vector<BreakdownRow> breakdown;
  std::vector<CdfRow> cdf;
  std::vector<TopRow> top;
  TransitionMatrix matrix{};
};

/// Accumulates one query over a record stream. Ingestion order must be the
/// sequential record order (the campaign merge order); see the contract
/// above.
class QueryExecutor {
 public:
  explicit QueryExecutor(QuerySpec spec) : spec_(std::move(spec)) {}

  // --- Ingestion ---
  /// Device metadata (whole table, or one shard at a time in shard order).
  void add_devices(std::span<const DeviceMeta> devices);
  /// One columnar batch, in emission order: ingest() on every row.
  void consume(const RecordBatch& batch);
  /// One record row. Filtered rows are skipped internally (the query
  /// surface, like the aggregators, sees kept failures only). Throws
  /// std::runtime_error on a kept row whose device has no metadata.
  void ingest(const RecordBatch::RowView& row);
  /// Order-independent transition/dwell count tables.
  void add_counts(const TransitionDwellCounts& counts);

  // --- Finalize ---
  QueryResult result() const;

  const QuerySpec& spec() const { return spec_; }

 private:
  /// Kept failures of one pf group and the distinct devices that had them.
  struct PfGroup {
    std::uint64_t failures = 0;
    std::vector<DeviceId> devices;  // sorted, distinct
  };

  /// The entry for `id`, or nullptr. O(1) when ids are dense, else a binary
  /// search; nothing is sized by the largest id.
  const DeviceMeta* find_device(DeviceId id) const;
  bool device_passes(const DeviceMeta& device) const;
  bool record_passes(const RecordBatch::RowView& row) const;
  std::int64_t group_id(const DeviceMeta& device, const RecordBatch::RowView& row) const;

  QuerySpec spec_;
  /// Device table sorted by id, first entry of a duplicated id kept: lookups
  /// during ingestion (model/isp are re-derived from metadata on EVERY path —
  /// batch rows don't carry them), group domains and prevalence denominators
  /// at finalize.
  std::vector<DeviceMeta> devices_;
  std::map<std::int64_t, PfGroup> pf_groups_;
  std::map<std::int64_t, std::array<std::uint64_t, kFailureTypeCount>> breakdown_;
  std::map<std::int64_t, SampleSet> cdf_;
  std::map<std::int64_t, std::uint64_t> top_counts_;
  std::uint64_t top_total_ = 0;
  TransitionDwellCounts td_;
};

/// Runs a query over a materialized dataset (in-memory or read back from a
/// dataset directory): devices, then records in order, then the
/// transition/dwell samples.
QueryResult execute_over_dataset(const TraceDataset& dataset, const QuerySpec& spec);

/// Runs a query over the per-shard spill CSVs under `spill_dir`
/// (shard-0.csv, shard-1.csv, ... read in shard-index order — the sequential
/// record order). `sidecars` supplies the device/BS/transition tables the
/// spill files do not carry (read_dataset_sidecars_csv of the campaign's
/// dataset directory). Throws std::runtime_error on missing shard-0,
/// malformed rows, or a row that points outside the sidecars
/// (RecordReferences).
QueryResult execute_over_spill(const std::filesystem::path& spill_dir,
                               const TraceDataset& sidecars, const QuerySpec& spec);

}  // namespace cellrel::query

#endif  // CELLREL_QUERY_ENGINE_H

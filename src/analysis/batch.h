// Columnar record batches: the campaign's hot-path record representation.
//
// The backend dataset's AoS `std::vector<TraceRecord>` carries a
// heap-allocated APN string and cold derived fields (model, ISP, cell
// identity) in every row, which caps campaign fleet size far below the
// paper's 70 M devices (§2.3). A RecordBatch stores the same information as
// structure-of-arrays columns:
//
//   - APN strings are interned into a per-shard StringPool (ApnId, 4 bytes);
//   - model_id / isp are dropped entirely — they are a pure function of the
//     record's device id, re-derived from DeviceMeta at materialization;
//   - the cell identity is dropped — the monitor fills it as
//     resolve_cell(bs) (see core/monitor_service.cpp), so it is re-derived
//     from the BS registry at materialization;
//   - timestamps/durations are stored as their exact int64 microsecond
//     counts (SimTime/SimDuration round-trip losslessly);
//   - the two monitor verdict fields share one flags byte.
//
// A row is 45 bytes of trivially-copyable column data versus ~100+ bytes
// (plus APN heap) for TraceRecord, and materializing a batch back into
// TraceRecords is bit-exact. Batches have a fixed capacity chosen from
// calibration (see workload/campaign.cpp); a spilling shard clears and
// refills its one batch in place, so the spill-to-disk path runs in bounded
// memory.
//
// cellrel-lint's `batch-hygiene` rule keeps raw std::string members and
// per-record heap allocation out of this file and batch.cpp; the only
// string storage lives in analysis/string_pool.h.

#ifndef CELLREL_ANALYSIS_BATCH_H
#define CELLREL_ANALYSIS_BATCH_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/string_pool.h"
#include "core/trace.h"

namespace cellrel {

/// Everything needed to expand batch rows back into full TraceRecords:
/// the shard's APN pool, the shard's device metadata (sorted by id), and
/// the campaign's BS-index -> cell-identity resolver (the same function the
/// monitor used when it wrote the record, so re-derivation is bit-exact).
struct MaterializeContext {
  const StringPool* apns = nullptr;
  std::span<const DeviceMeta> devices;
  std::function<CellIdentity(BsIndex)> resolve_cell;
};

/// Fixed-capacity structure-of-arrays batch of trace records.
class RecordBatch {
 public:
  /// One row, decoded from the columns. Trivially copyable; no ownership.
  struct RowView {
    DeviceId device = 0;
    std::int64_t at_us = 0;
    std::int64_t duration_us = 0;
    BsIndex bs = kInvalidBs;
    ApnId apn = 0;
    FailCause cause = FailCause::kNone;
    std::uint32_t probe_rounds = 0;
    FailureType type = FailureType::kDataSetupError;
    DurationMethod duration_method = DurationMethod::kNone;
    Rat rat = Rat::k4G;
    SignalLevel level = SignalLevel::kLevel0;
    bool filtered_false_positive = false;
    FalsePositiveKind ground_truth_fp = FalsePositiveKind::kNone;
  };

  /// Column bytes per row (the SoA footprint, excluding the amortized
  /// StringPool entry for each *distinct* APN).
  static constexpr std::size_t kBytesPerRow =
      sizeof(DeviceId) + 2 * sizeof(std::int64_t) + sizeof(BsIndex) + sizeof(ApnId) +
      sizeof(std::int32_t) + sizeof(std::uint32_t) + 5 * sizeof(std::uint8_t);

  RecordBatch() = default;
  explicit RecordBatch(std::size_t capacity) { reserve(capacity); }

  /// Sets the fixed capacity (reserving every column). Only grows.
  void reserve(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return device_.size(); }
  bool empty() const { return device_.empty(); }
  bool full() const { return size() >= capacity_; }

  /// Drops the rows but keeps the column buffers (spill reuse).
  void clear();

  /// Decodes one record into a row: the one TraceRecord -> row field list.
  /// The APN is not interned (`apn` stays 0); push() does that.
  static RowView row_of(const TraceRecord& record);

  /// Appends one record, interning its APN into `apns`. The caller checks
  /// full() first; pushing past capacity is a contract violation.
  void push(const TraceRecord& record, StringPool& apns);

  /// Appends one already-decoded row (spill reload path; `row.apn` must be
  /// an id of the pool the consumer will read the batch against).
  void push_row(const RowView& row);

  RowView row(std::size_t i) const;

  /// Expands row `i` into a full TraceRecord (bit-exact inverse of push()
  /// for records produced by the campaign monitor).
  TraceRecord materialize_row(std::size_t i, const MaterializeContext& ctx) const;

  /// Appends every row to `out` (which the caller has reserved from the
  /// batch manifest — no growth heuristics on this path).
  void materialize_into(std::vector<TraceRecord>& out, const MaterializeContext& ctx) const;

  /// Resident column footprint: capacity bytes actually allocated.
  std::size_t resident_bytes() const;

 private:
  std::size_t capacity_ = 0;
  std::vector<DeviceId> device_;
  std::vector<std::int64_t> at_us_;
  std::vector<std::int64_t> duration_us_;
  std::vector<BsIndex> bs_;
  std::vector<ApnId> apn_;
  std::vector<std::int32_t> cause_;
  std::vector<std::uint32_t> probe_rounds_;
  std::vector<std::uint8_t> type_;
  std::vector<std::uint8_t> method_;
  std::vector<std::uint8_t> rat_;
  std::vector<std::uint8_t> level_;
  /// bit 0: filtered_false_positive; bits 1..7: FalsePositiveKind.
  std::vector<std::uint8_t> flags_;
};

}  // namespace cellrel

#endif  // CELLREL_ANALYSIS_BATCH_H

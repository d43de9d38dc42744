#include "analysis/batch.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cellrel {

void RecordBatch::reserve(std::size_t capacity) {
  if (capacity <= capacity_) return;
  capacity_ = capacity;
  device_.reserve(capacity);
  at_us_.reserve(capacity);
  duration_us_.reserve(capacity);
  bs_.reserve(capacity);
  apn_.reserve(capacity);
  cause_.reserve(capacity);
  probe_rounds_.reserve(capacity);
  type_.reserve(capacity);
  method_.reserve(capacity);
  rat_.reserve(capacity);
  level_.reserve(capacity);
  flags_.reserve(capacity);
}

void RecordBatch::clear() {
  device_.clear();
  at_us_.clear();
  duration_us_.clear();
  bs_.clear();
  apn_.clear();
  cause_.clear();
  probe_rounds_.clear();
  type_.clear();
  method_.clear();
  rat_.clear();
  level_.clear();
  flags_.clear();
}

RecordBatch::RowView RecordBatch::row_of(const TraceRecord& record) {
  RowView v;
  v.device = record.device;
  v.at_us = record.at.since_origin().count_us();
  v.duration_us = record.duration.count_us();
  v.bs = record.bs;
  v.cause = record.cause;
  v.probe_rounds = record.probe_rounds;
  v.type = record.type;
  v.duration_method = record.duration_method;
  v.rat = record.rat;
  v.level = record.level;
  v.filtered_false_positive = record.filtered_false_positive;
  v.ground_truth_fp = record.ground_truth_fp;
  return v;
}

void RecordBatch::push(const TraceRecord& record, StringPool& apns) {
  RowView v = row_of(record);
  v.apn = apns.intern(record.apn);
  push_row(v);
}

void RecordBatch::push_row(const RowView& row) {
  CELLREL_DCHECK(!full()) << "RecordBatch::push_row past capacity";
  device_.push_back(row.device);
  at_us_.push_back(row.at_us);
  duration_us_.push_back(row.duration_us);
  bs_.push_back(row.bs);
  apn_.push_back(row.apn);
  cause_.push_back(static_cast<std::int32_t>(row.cause));
  probe_rounds_.push_back(row.probe_rounds);
  type_.push_back(static_cast<std::uint8_t>(row.type));
  method_.push_back(static_cast<std::uint8_t>(row.duration_method));
  rat_.push_back(static_cast<std::uint8_t>(row.rat));
  level_.push_back(static_cast<std::uint8_t>(row.level));
  const std::uint8_t flags =
      static_cast<std::uint8_t>(row.filtered_false_positive ? 1u : 0u) |
      static_cast<std::uint8_t>(static_cast<std::uint8_t>(row.ground_truth_fp) << 1u);
  flags_.push_back(flags);
}

RecordBatch::RowView RecordBatch::row(std::size_t i) const {
  CELLREL_DCHECK(i < size()) << "RecordBatch::row out of range";
  RowView v;
  v.device = device_[i];
  v.at_us = at_us_[i];
  v.duration_us = duration_us_[i];
  v.bs = bs_[i];
  v.apn = apn_[i];
  v.cause = static_cast<FailCause>(cause_[i]);
  v.probe_rounds = probe_rounds_[i];
  v.type = static_cast<FailureType>(type_[i]);
  v.duration_method = static_cast<DurationMethod>(method_[i]);
  v.rat = static_cast<Rat>(rat_[i]);
  v.level = static_cast<SignalLevel>(level_[i]);
  v.filtered_false_positive = (flags_[i] & 1u) != 0;
  v.ground_truth_fp = static_cast<FalsePositiveKind>(flags_[i] >> 1u);
  return v;
}

TraceRecord RecordBatch::materialize_row(std::size_t i, const MaterializeContext& ctx) const {
  const RowView v = row(i);
  TraceRecord r;
  r.device = v.device;
  r.type = v.type;
  r.at = SimTime::origin() + SimDuration::microseconds(v.at_us);
  r.duration = SimDuration::microseconds(v.duration_us);
  r.duration_method = v.duration_method;
  r.rat = v.rat;
  r.level = v.level;
  r.bs = v.bs;
  r.cause = v.cause;
  r.filtered_false_positive = v.filtered_false_positive;
  r.probe_rounds = v.probe_rounds;
  r.ground_truth_fp = v.ground_truth_fp;

  // Derived columns: model/ISP come from the device's metadata row and the
  // cell identity from the registry resolver — the exact sources the
  // monitor used when the record was emitted.
  const auto it = std::lower_bound(
      ctx.devices.begin(), ctx.devices.end(), v.device,
      [](const DeviceMeta& m, DeviceId id) { return m.id < id; });
  CELLREL_DCHECK(it != ctx.devices.end() && it->id == v.device)
      << "batch row references a device outside the materialize context";
  r.model_id = it->model_id;
  r.isp = it->isp;
  if (v.bs != kInvalidBs && ctx.resolve_cell) r.cell = ctx.resolve_cell(v.bs);

  if (ctx.apns) {
    const std::string_view apn = ctx.apns->view(v.apn);
    r.apn.assign(apn.data(), apn.size());
  }
  return r;
}

void RecordBatch::materialize_into(std::vector<TraceRecord>& out,
                                   const MaterializeContext& ctx) const {
  for (std::size_t i = 0; i < size(); ++i) out.push_back(materialize_row(i, ctx));
}

std::size_t RecordBatch::resident_bytes() const {
  return device_.capacity() * sizeof(DeviceId) +
         at_us_.capacity() * sizeof(std::int64_t) +
         duration_us_.capacity() * sizeof(std::int64_t) +
         bs_.capacity() * sizeof(BsIndex) + apn_.capacity() * sizeof(ApnId) +
         cause_.capacity() * sizeof(std::int32_t) +
         probe_rounds_.capacity() * sizeof(std::uint32_t) + type_.capacity() +
         method_.capacity() + rat_.capacity() + level_.capacity() + flags_.capacity();
}

}  // namespace cellrel

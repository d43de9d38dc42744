#include "core/trace.h"

namespace cellrel {

std::string_view to_string(DurationMethod m) {
  switch (m) {
    case DurationMethod::kNone: return "none";
    case DurationMethod::kProbing: return "probing";
    case DurationMethod::kAndroidFallback: return "android-fallback";
    case DurationMethod::kStateTracking: return "state-tracking";
  }
  return "?";
}

std::string trace_csv_header() {
  return "device,model,isp,type,at_s,duration_s,method,rat,level,bs,cell,apn,"
         "cause,filtered,probe_rounds";
}

namespace {

/// The record row of `r` with `apn` in its APN field.
void append_row(RowWriter& row, const TraceRecord& r, std::string_view apn) {
  row.integer(r.device).put(',').integer(r.model_id).put(',');
  row.text(to_string(r.isp)).put(',').text(to_string(r.type)).put(',');
  row.fixed3(r.at.to_seconds()).put(',').fixed3(r.duration.to_seconds()).put(',');
  row.text(to_string(r.duration_method)).put(',').text(to_string(r.rat)).put(',');
  row.integer(index_of(r.level)).put(',').integer(r.bs).put(',');
  append_cell(row, r.cell);
  row.put(',').text(apn).put(',').text(to_string(r.cause)).put(',');
  row.put(r.filtered_false_positive ? '1' : '0').put(',').integer(r.probe_rounds);
}

}  // namespace

void append_record_row(RowWriter& row, const TraceRecord& r) { append_row(row, r, r.apn); }

std::string to_csv(const TraceRecord& r) {
  std::string line(kRecordRowFixedBytes + r.apn.size(), '\0');
  RowWriter row(line);
  append_record_row(row, r);
  line.resize(row.size());
  return line;
}

std::size_t compressed_record_bytes(const TraceRecord& record) {
  // Empirically, the fixed fields compress to ~30 bytes and the variable
  // context (cell identity, APN, cause name) to about a third of its text.
  // The text's length without building it: every field but the APN is
  // formatted into a stack buffer, and the APN is copied verbatim.
  char buf[kRecordRowFixedBytes];
  RowWriter row(buf);
  append_row(row, record, {});
  const std::size_t text = row.size() + record.apn.size();
  return 30 + (text > 90 ? (text - 90) / 3 : 0);
}

}  // namespace cellrel

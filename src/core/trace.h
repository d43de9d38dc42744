// Trace records produced by the Android-MOD monitoring service.
//
// One record per (filtered or kept) failure event, carrying the in-situ
// information §2.2 enumerates: RAT, RSS, APN, BS identity (MCC/MNC/LAC/CID
// or SID/NID/BID), protocol error code, plus the monitor's own annotations
// (duration, measurement method, false-positive verdict).

#ifndef CELLREL_CORE_TRACE_H
#define CELLREL_CORE_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "bs/cell_id.h"
#include "bs/isp.h"
#include "common/row_writer.h"
#include "common/sim_time.h"
#include "device/device.h"
#include "telephony/events.h"

namespace cellrel {

/// How a record's duration was measured.
enum class DurationMethod : std::uint8_t {
  kNone = 0,         // instantaneous event (setup errors)
  kProbing,          // Android-MOD's active probing ladder (error <= 5 s)
  kAndroidFallback,  // vanilla fixed-interval detection (error <= 60 s)
  kStateTracking,    // exact state-transition timestamps (OOS, setup episodes)
};

std::string_view to_string(DurationMethod m);

/// One monitored failure, as uploaded for centralized analysis.
struct TraceRecord {
  DeviceId device = 0;
  int model_id = 0;
  IspId isp = IspId::kIspA;
  FailureType type = FailureType::kDataSetupError;
  SimTime at;
  SimDuration duration = SimDuration::zero();
  DurationMethod duration_method = DurationMethod::kNone;

  // In-situ radio / BS context.
  Rat rat = Rat::k4G;
  SignalLevel level = SignalLevel::kLevel0;
  BsIndex bs = kInvalidBs;
  CellIdentity cell{};
  std::string apn;
  FailCause cause = FailCause::kNone;

  // Monitor verdicts.
  bool filtered_false_positive = false;  // removed from the analysis set
  std::uint32_t probe_rounds = 0;

  // Ground truth (validation only; never used by analysis of "measured"
  // quantities, only by tests that score the filter).
  FalsePositiveKind ground_truth_fp = FalsePositiveKind::kNone;
};

/// Room for every field of a record row except the APN: every number at
/// its widest and the longest names.
inline constexpr std::size_t kRecordRowFixedBytes = 256;

/// Appends `record`'s CSV row (trace_csv_header's fields, no newline) to
/// `row`, which needs kRecordRowFixedBytes + record.apn.size() bytes of
/// room. The one record-row formatter: to_csv, the storage estimate and
/// records.csv all go through it.
void append_record_row(RowWriter& row, const TraceRecord& record);

/// CSV serialization (one line, no trailing newline).
std::string to_csv(const TraceRecord& record);
std::string trace_csv_header();

/// Approximate on-device storage footprint of a record, in bytes, after the
/// compression applied before upload (§2.3: "all data are compressed").
std::size_t compressed_record_bytes(const TraceRecord& record);

}  // namespace cellrel

#endif  // CELLREL_CORE_TRACE_H

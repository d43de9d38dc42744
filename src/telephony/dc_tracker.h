// DcTracker: the connection-setup driver (Android's DcTracker analogue).
//
// Owns the DataConnection state machine, issues SETUP_DATA_CALL through the
// RIL and schedules the response at the modem's latency, raises
// Data_Setup_Error events on the stack's FailureEventBus (with the protocol
// error code from the radio), and retries with a progressive backoff —
// reproducing the control flow of §2.1: "if a user device fails to
// establish a data connection ... a Data_Setup_Error failure event will be
// reported to relevant system services; then, a retry attempt will be
// initiated". The backoff follows Android's data-retry config, which starts
// short and grows: 1 s * 2^(n-1) after the n-th consecutive failure, capped
// at 45 s. The serving cell the events carry is the bus's, not the tracker's.
// Right after each transition to Active or Inactive the tracker clears
// Data_Setup_Error on the bus, which is where the monitoring service closes
// the open setup episode.

#ifndef CELLREL_TELEPHONY_DC_TRACKER_H
#define CELLREL_TELEPHONY_DC_TRACKER_H

#include <cstdint>
#include <string>
#include <string_view>

#include "bs/isp.h"
#include "obs/metrics.h"
#include "radio/ril.h"
#include "sim/event_queue.h"
#include "telephony/data_connection.h"
#include "telephony/events.h"

namespace cellrel {

/// The default-type APN of each carrier, the one every failure record names
/// (§2.2): cmnet for ISP-A, ctnet for ISP-B, 3gnet for ISP-C.
std::string_view default_apn(IspId isp);

class DcTracker {
 public:
  /// Raises on `events`; resolves its "dc_tracker.*" metric handles in
  /// `metrics` here, once. Setups use `isp`'s default APN.
  DcTracker(Simulator& sim, RadioInterfaceLayer& ril, FailureEventBus& events,
            obs::MetricSink& metrics, IspId isp = IspId::kIspA);

  DcTracker(const DcTracker&) = delete;
  DcTracker& operator=(const DcTracker&) = delete;

  const DataConnection& connection() const { return dc_; }
  const std::string& apn() const { return apn_; }

  /// Starts establishing a data connection (no-op unless Inactive).
  void request_data();

  /// Stops retrying and tears the connection down. `user_initiated` tags the
  /// resulting teardown as a manual disconnect for ground truth.
  void teardown(bool user_initiated = false);

  /// A voice call arrived on a device without concurrent voice+data; the
  /// data connection drops and the immediate re-setup failure is a false
  /// positive (§2.2).
  void disrupt_by_voice_call();

  /// The operator suspended service (insufficient balance). Setups fail
  /// with OPERATOR_DETERMINED_BARRING until `restore_service_account`.
  void suspend_for_balance();
  void restore_service_account();

  std::uint64_t setup_failures() const { return setup_failures_; }

 private:
  void attempt_setup();
  void on_setup_response(ModemResult r);
  /// Moves the connection to `to` (Active or Inactive) and ends the open
  /// Data_Setup_Error episode there.
  void settle(DcState to, SimTime at);
  FalsePositiveKind classify_ground_truth(const ModemResult& result) const;

  struct Metrics {
    obs::Counter& attempts;
    obs::Counter& failures;
    obs::Counter& retries;
    LinearHistogram& backoff_s;
  };

  Simulator& sim_;
  RadioInterfaceLayer& ril_;
  FailureEventBus& events_;
  Metrics metrics_;
  std::string apn_;
  DataConnection dc_;
  ScheduledEvent pending_retry_;
  std::uint32_t consecutive_failures_ = 0;
  std::uint64_t setup_attempts_ = 0;
  std::uint64_t setup_failures_ = 0;
  bool want_data_ = false;
  bool balance_suspended_ = false;
  bool voice_disruption_pending_ = false;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_DC_TRACKER_H

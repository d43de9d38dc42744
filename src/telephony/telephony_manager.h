// TelephonyManager: per-device facade over the cellular stack.
//
// Bundles the components a single device runs — RIL + modem, DcTracker,
// ServiceStateTracker, kernel TCP counters, network stack, Data_Stall
// detector and recoverer, SMS and voice services — around the one
// FailureEventBus they all raise on, and exposes that bus's registration
// surface, which is what Android-MOD instruments. RAT selection and 4G/5G
// dual connectivity are not modelled here: the campaign's session planner
// picks cells and applies EN-DC (§4.2). Out_of_Service transitions are
// converted into failure events here, the way Android's ServiceState
// notifications reach registered listeners. The recoverer's stage
// operation and episode sink come from the owner through Config (the
// campaign's `stage_fix`); the stall-persists check reads the network
// stack's fault state, and an offhook voice call calls the DcTracker
// directly.

#ifndef CELLREL_TELEPHONY_TELEPHONY_MANAGER_H
#define CELLREL_TELEPHONY_TELEPHONY_MANAGER_H

#include "net/network_stack.h"
#include "net/tcp_stats.h"
#include "obs/metrics.h"
#include "radio/ril.h"
#include "telephony/data_stall.h"
#include "telephony/dc_tracker.h"
#include "telephony/events.h"
#include "telephony/recovery.h"
#include "telephony/service_state.h"
#include "telephony/sms_service.h"

namespace cellrel {

class TelephonyManager {
 public:
  struct Config {
    ProbationSchedule recovery_schedule = vanilla_probation_schedule();
    /// Carrier subscription: selects the default APN (cmnet / ctnet / 3gnet).
    IspId isp = IspId::kIspA;
    /// The recoverer's stage operation (DataStallRecoverer::Hooks::
    /// execute_stage). Empty: no operation fixes a stall.
    std::function<bool(RecoveryStage)> execute_recovery_stage;
    /// Receives every finished recovery episode. May be empty.
    std::function<void(const RecoveryEpisode&)> on_recovery_episode;
  };

  /// The instrumented components resolve their metric handles in `metrics`
  /// while they are constructed here.
  TelephonyManager(Simulator& sim, Rng rng, obs::MetricSink& metrics, Config config);

  TelephonyManager(const TelephonyManager&) = delete;
  TelephonyManager& operator=(const TelephonyManager&) = delete;

  // Component access.
  Simulator& simulator() { return sim_; }
  RadioInterfaceLayer& ril() { return ril_; }
  DcTracker& dc_tracker() { return dc_tracker_; }
  ServiceStateTracker& service_state() { return service_state_; }
  TcpSegmentCounters& tcp() { return tcp_; }
  NetworkStack& network() { return network_; }
  DataStallDetector& stall_detector() { return stall_detector_; }
  DataStallRecoverer& recoverer() { return recoverer_; }
  SmsService& sms() { return sms_; }
  VoiceCallManager& voice() { return voice_; }

  /// Registers a listener for ALL failure-event sources (setup errors,
  /// stalls, service state, SMS and voice). This is the hook Android-MOD
  /// uses (§2.2); registration order is dispatch order.
  void register_failure_listener(FailureEventListener* l) { events_.add_listener(l); }
  void unregister_failure_listener(FailureEventListener* l) { events_.remove_listener(l); }

  /// Marks the device out of / back in service (driven by the campaign
  /// environment); emits the corresponding events.
  void enter_out_of_service(FalsePositiveKind ground_truth = FalsePositiveKind::kNone);
  void exit_out_of_service();

  /// Reports a legacy (SMS / voice) service failure to listeners; these form
  /// the <1% tail of the event mix (§3.1).
  void report_legacy_failure(FailureType type,
                             FalsePositiveKind ground_truth = FalsePositiveKind::kNone);

  /// The serving cell every failure event is stamped with (kept fresh by
  /// the connectivity engine).
  void set_cell_context(const CellContext& ctx) { events_.set_cell_context(ctx); }

 private:
  Simulator& sim_;
  FailureEventBus events_;
  RadioInterfaceLayer ril_;
  DcTracker dc_tracker_;
  ServiceStateTracker service_state_;
  TcpSegmentCounters tcp_;
  NetworkStack network_;
  DataStallDetector stall_detector_;
  DataStallRecoverer recoverer_;
  SmsService sms_;
  VoiceCallManager voice_;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_TELEPHONY_MANAGER_H

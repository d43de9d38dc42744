// TelephonyManager: per-device facade over the cellular stack.
//
// Bundles the components a single device runs — RIL + modem, DcTracker,
// ServiceStateTracker, kernel TCP counters, network stack, Data_Stall
// detector and recoverer, SMS and voice services — and exposes the
// listener-registration surface that Android-MOD instruments. RAT
// selection and 4G/5G dual connectivity are not modelled here: the
// campaign's session planner picks cells and applies EN-DC (§4.2).
// Out_of_Service transitions are converted into failure events here, the
// way Android's ServiceState notifications reach registered listeners.

#ifndef CELLREL_TELEPHONY_TELEPHONY_MANAGER_H
#define CELLREL_TELEPHONY_TELEPHONY_MANAGER_H

#include <array>
#include <vector>

#include "net/network_stack.h"
#include "net/tcp_stats.h"
#include "radio/ril.h"
#include "telephony/apn.h"
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
    DcTracker::Config dc;
    DataStallDetector::Config stall;
    ProbationSchedule recovery_schedule = vanilla_probation_schedule();
    /// Carrier subscription: selects the APN list (cmnet / ctnet / 3gnet).
    IspId isp = IspId::kIspA;
    /// Default stage effectiveness when no campaign overrides the hooks:
    /// "even the first-stage lightweight operation can fix the problem in
    /// 75% cases" (§3.2).
    std::array<double, kRecoveryStageCount> stage_fix_prob = {0.75, 0.90, 0.99};
  };

  TelephonyManager(Simulator& sim, Rng rng);
  TelephonyManager(Simulator& sim, Rng rng, Config config);

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
  const ApnManager& apn_manager() const { return apn_manager_; }
  SmsService& sms() { return sms_; }
  VoiceCallManager& voice() { return voice_; }
  const Config& config() const { return config_; }

  /// Registers a listener for ALL failure-event sources (setup errors,
  /// stalls, service state). This is the hook Android-MOD uses (§2.2).
  void register_failure_listener(FailureEventListener* l);
  void unregister_failure_listener(FailureEventListener* l);

  /// Marks the device out of / back in service (driven by the campaign
  /// environment); emits the corresponding events.
  void enter_out_of_service(FalsePositiveKind ground_truth = FalsePositiveKind::kNone);
  void exit_out_of_service();

  /// Reports a legacy (SMS / voice) service failure to listeners; these form
  /// the <1% tail of the event mix (§3.1).
  void report_legacy_failure(FailureType type,
                             FalsePositiveKind ground_truth = FalsePositiveKind::kNone);

  /// Current cell context mirror (kept fresh by the connectivity engine).
  void set_cell_context(const CellContext& ctx);
  const CellContext& cell_context() const { return dc_tracker_.cell_context(); }

  /// Fans a metric sink out to every instrumented component of the stack
  /// (RIL, DcTracker, stall detector, recoverer). Pass nullptr to detach.
  void set_metrics(obs::MetricSink* sink);

 private:
  bool default_execute_stage(RecoveryStage stage);

  Simulator& sim_;
  Rng rng_;
  Config config_;
  ApnManager apn_manager_;
  RadioInterfaceLayer ril_;
  DcTracker dc_tracker_;
  ServiceStateTracker service_state_;
  TcpSegmentCounters tcp_;
  NetworkStack network_;
  DataStallDetector stall_detector_;
  DataStallRecoverer recoverer_;
  SmsService sms_;
  VoiceCallManager voice_;
  std::vector<FailureEventListener*> listeners_;
  FalsePositiveKind oos_ground_truth_ = FalsePositiveKind::kNone;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_TELEPHONY_MANAGER_H

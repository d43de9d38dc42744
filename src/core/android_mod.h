// AndroidMod: one device's customized system image.
//
// Bundles the telephony stack with the monitoring service and wires the
// pieces vanilla Android keeps separate: the Data_Stall detector drives both
// the recovery manager (framework behaviour) and the monitor (Android-MOD
// instrumentation). This is the object a campaign instantiates per opt-in
// device, and the one place that fixes the order of the stack's failure-event
// listeners: the monitor first, then the recovery bridge, then whatever the
// owner registers (the campaign's DeviceRun). Same-time follow-up events are
// scheduled in that order, so it is part of the determinism contract. The
// metric sink is handed to every instrumented component at construction, the
// upload sink (the backend) to the monitor, which the owner asks to
// `upload()` whenever the device is on WiFi.

#ifndef CELLREL_CORE_ANDROID_MOD_H
#define CELLREL_CORE_ANDROID_MOD_H

#include <memory>

#include "core/monitor_service.h"
#include "telephony/telephony_manager.h"

namespace cellrel {

class AndroidMod {
 public:
  /// Everything the owner supplies, including the callbacks into it (the
  /// recovery stage operation and episode sink, the monitor's cell
  /// resolver, observables and record observer); no component is rewired
  /// after construction.
  struct Config {
    TelephonyManager::Config telephony;
    MonitorService::Config monitor;
    MonitorService::Identity identity;
  };

  /// `metrics` receives the whole stack's metrics (campaigns hand every
  /// device of a shard the shard's sink); `sink` receives the monitor's
  /// uploads (the backend server).
  AndroidMod(Simulator& sim, Rng rng, obs::MetricSink& metrics, Config config,
             MonitorService::Sink sink);

  AndroidMod(const AndroidMod&) = delete;
  AndroidMod& operator=(const AndroidMod&) = delete;

  TelephonyManager& telephony() { return telephony_; }
  MonitorService& monitor() { return monitor_; }

  /// Ends monitoring: stops the Data_Stall detector, unregisters the
  /// recovery bridge, then uploads what the monitor still buffers. A record
  /// that a still-open episode writes after this stays buffered, never
  /// uploaded.
  void shutdown();

 private:
  class StallRecoveryBridge final : public FailureEventListener {
   public:
    explicit StallRecoveryBridge(TelephonyManager& telephony) : telephony_(telephony) {}
    void on_failure_event(const FailureEvent& event) override {
      if (event.type == FailureType::kDataStall) {
        telephony_.recoverer().on_stall_detected();
      }
    }
    void on_failure_cleared(FailureType type, SimTime /*at*/) override {
      if (type == FailureType::kDataStall) telephony_.recoverer().on_stall_cleared();
    }

   private:
    TelephonyManager& telephony_;
  };

  TelephonyManager telephony_;
  StallRecoveryBridge recovery_bridge_;
  MonitorService monitor_;
};

}  // namespace cellrel

#endif  // CELLREL_CORE_ANDROID_MOD_H

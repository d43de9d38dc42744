// Radio Interface Layer (RIL) simulator.
//
// In Android, the framework talks to the baseband through the RIL, an async
// command/response channel. The modem's answer (outcome, DataFailCause,
// latency) is fixed when a command is issued, so each command returns it at
// once and the caller schedules the response at `latency`. The telephony
// layer (DcTracker etc.) is written against this interface exactly as the
// framework is written against the real RIL.

#ifndef CELLREL_RADIO_RIL_H
#define CELLREL_RADIO_RIL_H

#include "obs/metrics.h"
#include "radio/modem.h"

namespace cellrel {

/// Command interface to the (simulated) baseband.
class RadioInterfaceLayer {
 public:
  /// Each command records its (simulated) modem latency under
  /// "ril.<command>.latency" and failures under "ril.<command>.failures" in
  /// `metrics` when it is issued; the handles are resolved here, once.
  RadioInterfaceLayer(Rng rng, obs::MetricSink& metrics);

  RadioInterfaceLayer(const RadioInterfaceLayer&) = delete;
  RadioInterfaceLayer& operator=(const RadioInterfaceLayer&) = delete;

  /// Supplies the channel conditions used by subsequent commands. The
  /// environment (BS/registry model) refreshes this as the device moves.
  void update_channel(const ChannelConditions& cond) { channel_ = cond; }
  const ChannelConditions& channel() const { return channel_; }

  /// Issues SETUP_DATA_CALL; the response is due `latency` from now.
  [[nodiscard]] ModemResult setup_data_call();
  [[nodiscard]] ModemResult deactivate_data_call();
  [[nodiscard]] ModemResult reregister();
  [[nodiscard]] ModemResult restart_radio();

 private:
  /// Per-command metric handles, resolved at construction.
  struct CommandMetrics {
    obs::SimTimerStat& latency;
    obs::Counter& failures;
  };
  static CommandMetrics resolve(obs::MetricSink& sink, const char* command);
  static ModemResult record(const ModemResult& result, const CommandMetrics& metrics);

  ModemSimulator modem_;
  ChannelConditions channel_;
  CommandMetrics setup_metrics_;
  CommandMetrics deactivate_metrics_;
  CommandMetrics reregister_metrics_;
  CommandMetrics restart_metrics_;
};

}  // namespace cellrel

#endif  // CELLREL_RADIO_RIL_H

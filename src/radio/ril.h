// Radio Interface Layer (RIL) simulator.
//
// In Android, the framework talks to the baseband through the RIL, an async
// command/response channel. This class reproduces that channel on top of
// the discrete-event simulator: commands complete after the modem's latency
// and responses arrive via callbacks. The telephony layer (DcTracker etc.)
// is written against this interface exactly as the framework is written
// against the real RIL.

#ifndef CELLREL_RADIO_RIL_H
#define CELLREL_RADIO_RIL_H

#include <functional>
#include <utility>

#include "obs/metrics.h"
#include "radio/modem.h"
#include "sim/event_queue.h"

namespace cellrel {

/// Asynchronous command interface to the (simulated) baseband.
class RadioInterfaceLayer {
 public:
  using ResponseCallback = std::function<void(const ModemResult&)>;

  /// Each command records its (simulated) modem latency under
  /// "ril.<command>.latency" and failures under "ril.<command>.failures" in
  /// `metrics`; the handles are resolved here, once.
  RadioInterfaceLayer(Simulator& sim, Rng rng, obs::MetricSink& metrics);

  RadioInterfaceLayer(const RadioInterfaceLayer&) = delete;
  RadioInterfaceLayer& operator=(const RadioInterfaceLayer&) = delete;

  /// Supplies the channel conditions used by subsequent commands. The
  /// environment (BS/registry model) refreshes this as the device moves.
  void update_channel(const ChannelConditions& cond) { channel_ = cond; }
  const ChannelConditions& channel() const { return channel_; }

  /// Issues SETUP_DATA_CALL; `cb` runs when the modem responds.
  void setup_data_call(ResponseCallback cb);
  void deactivate_data_call(ResponseCallback cb);
  void reregister(ResponseCallback cb);
  void restart_radio(ResponseCallback cb);

 private:
  /// Per-command metric handles, resolved at construction.
  struct CommandMetrics {
    obs::SimTimerStat& latency;
    obs::Counter& failures;
  };
  static CommandMetrics resolve(obs::MetricSink& sink, const char* command);

  void dispatch(ModemResult result, ResponseCallback cb, const CommandMetrics& metrics);

  Simulator& sim_;
  ModemSimulator modem_;
  ChannelConditions channel_;
  CommandMetrics setup_metrics_;
  CommandMetrics deactivate_metrics_;
  CommandMetrics reregister_metrics_;
  CommandMetrics restart_metrics_;
};

}  // namespace cellrel

#endif  // CELLREL_RADIO_RIL_H

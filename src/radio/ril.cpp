#include "radio/ril.h"

namespace cellrel {

RadioInterfaceLayer::CommandMetrics RadioInterfaceLayer::resolve(obs::MetricSink& sink,
                                                                 const char* command) {
  const std::string base = std::string("ril.") + command;
  return {sink.sim_timer(base + ".latency"), sink.counter(base + ".failures")};
}

RadioInterfaceLayer::RadioInterfaceLayer(Rng rng, obs::MetricSink& metrics)
    : modem_(rng),
      setup_metrics_(resolve(metrics, "setup_data_call")),
      deactivate_metrics_(resolve(metrics, "deactivate_data_call")),
      reregister_metrics_(resolve(metrics, "reregister")),
      restart_metrics_(resolve(metrics, "restart_radio")) {}

ModemResult RadioInterfaceLayer::record(const ModemResult& result,
                                        const CommandMetrics& metrics) {
  metrics.latency.record(result.latency);
  if (!result.success) metrics.failures.add();
  return result;
}

ModemResult RadioInterfaceLayer::setup_data_call() {
  return record(modem_.setup_data_call(channel_), setup_metrics_);
}

ModemResult RadioInterfaceLayer::deactivate_data_call() {
  return record(modem_.deactivate_data_call(), deactivate_metrics_);
}

ModemResult RadioInterfaceLayer::reregister() {
  return record(modem_.reregister(channel_), reregister_metrics_);
}

ModemResult RadioInterfaceLayer::restart_radio() {
  return record(modem_.restart_radio(), restart_metrics_);
}

}  // namespace cellrel

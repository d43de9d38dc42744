#include "radio/ril.h"

namespace cellrel {

RadioInterfaceLayer::CommandMetrics RadioInterfaceLayer::resolve(obs::MetricSink& sink,
                                                                 const char* command) {
  const std::string base = std::string("ril.") + command;
  return {sink.sim_timer(base + ".latency"), sink.counter(base + ".failures")};
}

RadioInterfaceLayer::RadioInterfaceLayer(Simulator& sim, Rng rng, obs::MetricSink& metrics)
    : sim_(sim),
      modem_(rng),
      setup_metrics_(resolve(metrics, "setup_data_call")),
      deactivate_metrics_(resolve(metrics, "deactivate_data_call")),
      reregister_metrics_(resolve(metrics, "reregister")),
      restart_metrics_(resolve(metrics, "restart_radio")) {}

void RadioInterfaceLayer::dispatch(ModemResult result, ResponseCallback cb,
                                   const CommandMetrics& metrics) {
  metrics.latency.record(result.latency);
  if (!result.success) metrics.failures.add();
  sim_.schedule_after(result.latency, [result, cb = std::move(cb)] { cb(result); });
}

void RadioInterfaceLayer::setup_data_call(ResponseCallback cb) {
  dispatch(modem_.setup_data_call(channel_), std::move(cb), setup_metrics_);
}

void RadioInterfaceLayer::deactivate_data_call(ResponseCallback cb) {
  dispatch(modem_.deactivate_data_call(), std::move(cb), deactivate_metrics_);
}

void RadioInterfaceLayer::reregister(ResponseCallback cb) {
  dispatch(modem_.reregister(channel_), std::move(cb), reregister_metrics_);
}

void RadioInterfaceLayer::restart_radio(ResponseCallback cb) {
  dispatch(modem_.restart_radio(), std::move(cb), restart_metrics_);
}

}  // namespace cellrel

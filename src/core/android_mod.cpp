#include "core/android_mod.h"

namespace cellrel {

AndroidMod::AndroidMod(Simulator& sim, Rng rng, obs::MetricSink& metrics, Config config,
                       MonitorService::Sink sink)
    : telephony_(sim, rng, metrics, std::move(config.telephony)),
      recovery_bridge_(telephony_),
      monitor_(telephony_, metrics, config.identity, std::move(sink),
               std::move(config.monitor)) {
  // Framework-side recovery reacts to the same detector the monitor
  // instruments; register the bridge after the monitor so records open
  // before recovery mutates state.
  telephony_.register_failure_listener(&recovery_bridge_);
}

void AndroidMod::shutdown() {
  telephony_.stall_detector().stop();
  telephony_.unregister_failure_listener(&recovery_bridge_);
  monitor_.upload();
}

}  // namespace cellrel

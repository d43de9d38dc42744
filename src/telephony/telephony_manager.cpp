#include "telephony/telephony_manager.h"

namespace cellrel {

TelephonyManager::TelephonyManager(Simulator& sim, Rng rng, obs::MetricSink& metrics,
                                   Config config)
    : sim_(sim),
      ril_(rng.fork(0x7261646921ULL), metrics),
      dc_tracker_(sim, ril_, events_, metrics, config.isp),
      network_(rng.fork(0x6e657421ULL)),
      stall_detector_(sim, tcp_, network_, events_, metrics),
      recoverer_(sim, network_, metrics, config.recovery_schedule,
                 DataStallRecoverer::Hooks{std::move(config.execute_recovery_stage),
                                           std::move(config.on_recovery_episode)}),
      sms_(sim, ril_, events_, rng.fork(0x736d73ULL)),
      voice_(sim, events_, dc_tracker_, rng.fork(0x766f6963ULL)) {}

void TelephonyManager::enter_out_of_service(FalsePositiveKind ground_truth) {
  if (service_state_.out_of_service()) return;
  service_state_.set_state(ServiceState::kOutOfService);
  events_.raise(FailureType::kOutOfService, sim_.now(), FailCause::kNone, ground_truth);
}

void TelephonyManager::exit_out_of_service() {
  if (!service_state_.out_of_service()) return;
  service_state_.set_state(ServiceState::kInService);
  events_.clear(FailureType::kOutOfService, sim_.now());
}

void TelephonyManager::report_legacy_failure(FailureType type, FalsePositiveKind ground_truth) {
  events_.raise(type, sim_.now(), FailCause::kNone, ground_truth);
}

}  // namespace cellrel

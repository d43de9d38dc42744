#include "telephony/telephony_manager.h"

#include <algorithm>

namespace cellrel {

TelephonyManager::TelephonyManager(Simulator& sim, Rng rng)
    : TelephonyManager(sim, rng, Config{}) {}

namespace {

DcTracker::Config with_carrier_apn(DcTracker::Config dc, const ApnManager& apns) {
  if (const auto apn = apns.select(ApnType::kDefault)) dc.apn = apn->name;
  return dc;
}

}  // namespace

TelephonyManager::TelephonyManager(Simulator& sim, Rng rng, Config config)
    : sim_(sim),
      rng_(rng),
      config_(config),
      apn_manager_(ApnManager::for_isp(config.isp)),
      ril_(sim, rng.fork(0x7261646921ULL)),
      dc_tracker_(sim, ril_, with_carrier_apn(config.dc, apn_manager_)),
      tcp_(SimDuration::minutes(1)),
      network_(sim, rng.fork(0x6e657421ULL)),
      stall_detector_(sim, tcp_, network_, config.stall),
      recoverer_(sim, config.recovery_schedule,
                 DataStallRecoverer::Hooks{
                     [this](RecoveryStage s) { return default_execute_stage(s); },
                     [this] { return network_.fault() != NetworkFault::kNone; },
                     nullptr}),
      sms_(sim, ril_, rng.fork(0x736d73ULL)),
      voice_(sim, rng.fork(0x766f6963ULL)) {
  stall_detector_.set_cell_context_source([this] { return dc_tracker_.cell_context(); });
  // An offhook voice call on a non-DSDA device disrupts the data connection
  // (one of the false-positive sources §2.2 filters).
  voice_.set_call_state_hook([this](CallState state) {
    if (state == CallState::kOffhook) dc_tracker_.disrupt_by_voice_call();
  });
}

void TelephonyManager::register_failure_listener(FailureEventListener* l) {
  if (!l || std::find(listeners_.begin(), listeners_.end(), l) != listeners_.end()) return;
  listeners_.push_back(l);
  dc_tracker_.add_listener(l);
  stall_detector_.add_listener(l);
  sms_.add_listener(l);
  voice_.add_listener(l);
}

void TelephonyManager::unregister_failure_listener(FailureEventListener* l) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), l), listeners_.end());
  dc_tracker_.remove_listener(l);
  stall_detector_.remove_listener(l);
  sms_.remove_listener(l);
  voice_.remove_listener(l);
}

void TelephonyManager::enter_out_of_service(FalsePositiveKind ground_truth) {
  if (service_state_.out_of_service()) return;
  oos_ground_truth_ = ground_truth;
  service_state_.set_state(ServiceState::kOutOfService, sim_.now());
  FailureEvent event;
  event.type = FailureType::kOutOfService;
  event.at = sim_.now();
  const CellContext& ctx = dc_tracker_.cell_context();
  event.rat = ctx.rat;
  event.level = ctx.level;
  event.bs = ctx.bs;
  event.ground_truth_fp = ground_truth;
  for (auto* l : listeners_) l->on_failure_event(event);
}

void TelephonyManager::exit_out_of_service() {
  if (!service_state_.out_of_service()) return;
  service_state_.set_state(ServiceState::kInService, sim_.now());
  for (auto* l : listeners_) l->on_failure_cleared(FailureType::kOutOfService, sim_.now());
  oos_ground_truth_ = FalsePositiveKind::kNone;
}

void TelephonyManager::report_legacy_failure(FailureType type, FalsePositiveKind ground_truth) {
  FailureEvent event;
  event.type = type;
  event.at = sim_.now();
  const CellContext& ctx = dc_tracker_.cell_context();
  event.rat = ctx.rat;
  event.level = ctx.level;
  event.bs = ctx.bs;
  event.ground_truth_fp = ground_truth;
  for (auto* l : listeners_) l->on_failure_event(event);
}

void TelephonyManager::set_cell_context(const CellContext& ctx) {
  dc_tracker_.set_cell_context(ctx);
  sms_.set_cell_context(ctx);
  voice_.set_cell_context(ctx);
}

void TelephonyManager::set_metrics(obs::MetricSink* sink) {
  ril_.set_metrics(sink);
  dc_tracker_.set_metrics(sink);
  stall_detector_.set_metrics(sink);
  recoverer_.set_metrics(sink);
}

bool TelephonyManager::default_execute_stage(RecoveryStage stage) {
  // Execute the operation through the RIL (results are fire-and-forget at
  // this level; latency is the modem's) and decide effectiveness with the
  // configured per-stage probability. Campaign wiring usually replaces
  // this hook to tie effectiveness to the injected fault state.
  switch (stage) {
    case RecoveryStage::kCleanupConnection:
      ril_.deactivate_data_call([](const ModemResult&) {});
      break;
    case RecoveryStage::kReregister:
      ril_.reregister([](const ModemResult&) {});
      break;
    case RecoveryStage::kRestartRadio:
      ril_.restart_radio([](const ModemResult&) {});
      break;
  }
  const double p = config_.stage_fix_prob[static_cast<std::size_t>(stage)];
  const bool fixed = rng_.bernoulli(p);
  if (fixed) network_.inject_fault(NetworkFault::kNone);
  return fixed;
}

}  // namespace cellrel

#include "telephony/dc_tracker.h"

#include <algorithm>

#include "common/check.h"

namespace cellrel {

namespace {

constexpr SimDuration kFirstRetryDelay = SimDuration::seconds(1.0);
constexpr SimDuration kMaxRetryDelay = SimDuration::seconds(45.0);

}  // namespace

std::string_view default_apn(IspId isp) {
  switch (isp) {
    case IspId::kIspA: return "cmnet";
    case IspId::kIspB: return "ctnet";
    case IspId::kIspC: return "3gnet";
  }
  return "internet";
}

DcTracker::DcTracker(Simulator& sim, RadioInterfaceLayer& ril, FailureEventBus& events,
                     obs::MetricSink& metrics, IspId isp)
    : sim_(sim),
      ril_(ril),
      events_(events),
      metrics_{metrics.counter("dc_tracker.setup.attempts"),
               metrics.counter("dc_tracker.setup.failures"),
               metrics.counter("dc_tracker.retry.scheduled"),
               // Backoff delays top out at kMaxRetryDelay; 12 bins of 5 s
               // resolve every doubling step of the 1s * 2^n ladder.
               metrics.histogram("dc_tracker.retry.backoff_s", 0.0, 60.0, 12)},
      apn_(default_apn(isp)) {}

void DcTracker::settle(DcState to, SimTime at) {
  dc_.transition(to, at);
  events_.clear(FailureType::kDataSetupError, at);
}

void DcTracker::request_data() {
  want_data_ = true;
  if (dc_.state() == DcState::kInactive) {
    consecutive_failures_ = 0;
    attempt_setup();
  }
}

void DcTracker::attempt_setup() {
  if (!want_data_) return;
  if (dc_.state() == DcState::kInactive || dc_.state() == DcState::kRetrying) {
    dc_.transition(DcState::kActivating, sim_.now());
  }
  CELLREL_CHECK(dc_.state() == DcState::kActivating)
      << "SETUP_DATA_CALL issued in state " << to_string(dc_.state());
  ++setup_attempts_;
  metrics_.attempts.add();
  const ModemResult result = ril_.setup_data_call();
  sim_.schedule_after(result.latency, [this, result] { on_setup_response(result); });
}

FalsePositiveKind DcTracker::classify_ground_truth(const ModemResult& result) const {
  if (result.rational_rejection) return FalsePositiveKind::kBsOverloadRejection;
  if (balance_suspended_) return FalsePositiveKind::kInsufficientBalance;
  if (voice_disruption_pending_) return FalsePositiveKind::kIncomingVoiceCall;
  return FalsePositiveKind::kNone;
}

void DcTracker::on_setup_response(ModemResult r) {
  if (dc_.state() != DcState::kActivating) return;  // torn down mid-flight
  // Account suspension overrides any radio-level outcome: the operator barrs
  // the subscriber regardless of channel health.
  if (balance_suspended_) {
    r.success = false;
    r.cause = FailCause::kOperatorDeterminedBarring;
  }
  if (r.success) {
    consecutive_failures_ = 0;
    voice_disruption_pending_ = false;
    settle(DcState::kActive, sim_.now());
    return;
  }

  ++setup_failures_;
  metrics_.failures.add();
  CELLREL_DCHECK(setup_failures_ <= setup_attempts_)
      << setup_failures_ << " failures vs " << setup_attempts_ << " attempts";
  events_.raise(FailureType::kDataSetupError, sim_.now(), r.cause, classify_ground_truth(r));
  voice_disruption_pending_ = false;

  ++consecutive_failures_;
  dc_.transition(DcState::kRetrying, sim_.now());
  // Progressive backoff: 2^(n-1) * first_delay, capped.
  double factor = 1.0;
  for (std::uint32_t i = 1; i < consecutive_failures_ && factor < 64.0; ++i) factor *= 2.0;
  const SimDuration delay = std::min(kFirstRetryDelay * factor, kMaxRetryDelay);
  metrics_.retries.add();
  metrics_.backoff_s.add(delay.to_seconds());
  pending_retry_ = sim_.schedule_after(delay, [this] { attempt_setup(); });
}

void DcTracker::teardown(bool user_initiated) {
  want_data_ = false;
  pending_retry_.cancel();
  const SimTime now = sim_.now();
  if (user_initiated && dc_.state() != DcState::kInactive) {
    // A manual disconnect surfaces as a (false positive) setup error if the
    // framework races a pending setup against the toggle; we report the
    // canonical local cause so the filter sees realistic codes. Reported
    // before the state transitions so the event lands inside the episode
    // that the Inactive clear then ends.
    events_.raise(FailureType::kDataSetupError, now, FailCause::kDataSettingsDisabled,
                  FalsePositiveKind::kManualDisconnect);
  }
  switch (dc_.state()) {
    case DcState::kActive:
    case DcState::kActivating:
      dc_.transition(DcState::kDisconnect, now);
      settle(DcState::kInactive, now);
      break;
    case DcState::kRetrying:
      settle(DcState::kInactive, now);
      break;
    default:
      break;
  }
  CELLREL_CHECK(dc_.state() == DcState::kInactive || dc_.state() == DcState::kDisconnect)
      << "teardown left the connection " << to_string(dc_.state());
}

void DcTracker::disrupt_by_voice_call() {
  if (dc_.state() != DcState::kActive) return;
  const SimTime now = sim_.now();
  dc_.transition(DcState::kDisconnect, now);
  settle(DcState::kInactive, now);
  voice_disruption_pending_ = true;
  // The framework immediately tries to re-establish data; on non-DSDA
  // devices that attempt fails while the voice call holds the radio.
  events_.raise(FailureType::kDataSetupError, now, FailCause::kCdmaIncomingCall,
                FalsePositiveKind::kIncomingVoiceCall);
  if (want_data_) {
    // Re-attempt once the (short) voice call would release the channel.
    pending_retry_ = sim_.schedule_after(SimDuration::seconds(2.0), [this] {
      voice_disruption_pending_ = false;
      if (dc_.state() == DcState::kInactive) attempt_setup();
    });
  }
}

void DcTracker::suspend_for_balance() { balance_suspended_ = true; }

void DcTracker::restore_service_account() { balance_suspended_ = false; }

}  // namespace cellrel

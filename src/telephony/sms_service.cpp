#include "telephony/sms_service.h"

#include <algorithm>

namespace cellrel {

std::string_view to_string(SmsResult r) {
  switch (r) {
    case SmsResult::kOk: return "OK";
    case SmsResult::kRetry: return "RIL_SMS_SEND_FAIL_RETRY";
    case SmsResult::kNetworkReject: return "NETWORK_REJECT";
  }
  return "?";
}

namespace {

constexpr int kMaxRetries = 3;
constexpr SimDuration kRetryDelay = SimDuration::seconds(5.0);
constexpr double kTransientFailureProb = 0.02;

}  // namespace

SmsService::SmsService(Simulator& sim, RadioInterfaceLayer& ril, FailureEventBus& events,
                       Rng rng)
    : sim_(sim), ril_(ril), events_(events), rng_(rng) {}

SmsResult SmsService::submit_once() {
  const auto& channel = ril_.channel();
  if (channel.driver_fault) return SmsResult::kRetry;
  // SMS rides the signalling channel: level-0 signal usually loses the
  // submission; otherwise transient failures happen at the base rate plus
  // whatever the channel's own failure mass adds.
  if (channel.level == SignalLevel::kLevel0 && rng_.bernoulli(0.6)) return SmsResult::kRetry;
  const double p = kTransientFailureProb + 0.9 * channel.base_failure_prob;
  if (rng_.bernoulli(std::min(0.95, p))) {
    return rng_.bernoulli(0.9) ? SmsResult::kRetry : SmsResult::kNetworkReject;
  }
  return SmsResult::kOk;
}

void SmsService::send() {
  ++in_flight_;
  attempt(1);
}

void SmsService::attempt(int n) {
  const SmsResult result = submit_once();
  if (result == SmsResult::kOk) {
    ++delivered_;
    --in_flight_;
    return;
  }
  if (result == SmsResult::kRetry && n <= kMaxRetries) {
    sim_.schedule_after(kRetryDelay, [this, n] { attempt(n + 1); });
    return;
  }
  // Retries exhausted (or a permanent rejection): report the failure.
  ++failed_;
  --in_flight_;
  events_.raise(FailureType::kSmsSendFail, sim_.now());
}

VoiceCallManager::VoiceCallManager(Simulator& sim, FailureEventBus& events, DcTracker& data,
                                   Rng rng)
    : VoiceCallManager(sim, events, data, rng, Config{}) {}

VoiceCallManager::VoiceCallManager(Simulator& sim, FailureEventBus& events, DcTracker& data,
                                   Rng rng, Config config)
    : sim_(sim), events_(events), data_(data), rng_(rng), config_(config) {}

void VoiceCallManager::set_state(CallState next) {
  if (state_ == next) return;
  state_ = next;
  if (next == CallState::kOffhook) data_.disrupt_by_voice_call();
}

void VoiceCallManager::incoming_call() {
  if (state_ != CallState::kIdle) return;  // busy: caller hears engaged tone
  set_state(CallState::kRinging);
  pending_ = sim_.schedule_after(config_.ring_time, [this] {
    if (!rng_.bernoulli(config_.answer_probability)) {
      set_state(CallState::kIdle);
      return;
    }
    set_state(CallState::kOffhook);
    const double duration = rng_.exponential(config_.mean_call_seconds);
    const bool drops = rng_.bernoulli(config_.drop_probability);
    const double until = drops ? duration * rng_.uniform(0.1, 0.9) : duration;
    pending_ = sim_.schedule_after(SimDuration::seconds(until),
                                   [this, drops] { end_call(drops); });
  });
}

void VoiceCallManager::end_call(bool dropped) {
  if (state_ != CallState::kOffhook) return;
  if (dropped) {
    ++dropped_;
    events_.raise(FailureType::kVoiceCallDrop, sim_.now());
  } else {
    ++completed_;
  }
  set_state(CallState::kIdle);
}

}  // namespace cellrel

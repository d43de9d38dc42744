// Legacy SMS and voice-call services.
//
// The remainder (<1%) of the study's failure events come from the
// traditional short-message and voice services (§3.1), e.g. send failures
// tagged RIL_SMS_SEND_FAIL_RETRY. We model Android's SmsManager-style send
// path — submit over the signalling channel, retry up to a limit with
// backoff, report a failure event when retries exhaust; a sender waits on
// in_flight() — and a voice-call
// manager whose calls, once offhook, disrupt the data connection through
// DcTracker::disrupt_by_voice_call on non-DSDA devices (one of the
// false-positive sources §2.2 filters). Both raise on the stack's
// FailureEventBus.

#ifndef CELLREL_TELEPHONY_SMS_SERVICE_H
#define CELLREL_TELEPHONY_SMS_SERVICE_H

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "radio/ril.h"
#include "sim/event_queue.h"
#include "telephony/dc_tracker.h"
#include "telephony/events.h"

namespace cellrel {

/// Outcome of one SMS submission attempt (RIL-level).
enum class SmsResult : std::uint8_t {
  kOk = 0,
  kRetry,          // RIL_SMS_SEND_FAIL_RETRY: transient, resubmit
  kNetworkReject,  // permanent network rejection
};

std::string_view to_string(SmsResult r);

/// Android-style SMS send path with bounded retries: up to 3 resubmissions
/// (Android's default) 5 s apart, with a 2% per-attempt transient-failure
/// rate on a healthy channel.
class SmsService {
 public:
  SmsService(Simulator& sim, RadioInterfaceLayer& ril, FailureEventBus& events, Rng rng);

  SmsService(const SmsService&) = delete;
  SmsService& operator=(const SmsService&) = delete;

  /// Submits one message. It stays in flight until delivery succeeds or the
  /// retry budget is exhausted (which raises a kSmsSendFail event).
  void send();

  std::uint64_t messages_sent() const { return delivered_; }
  std::uint64_t messages_failed() const { return failed_; }
  std::uint64_t in_flight() const { return in_flight_; }

 private:
  /// Submits the `n`-th attempt (1-based) of one in-flight message.
  void attempt(int n);
  SmsResult submit_once();

  Simulator& sim_;
  RadioInterfaceLayer& ril_;
  FailureEventBus& events_;
  Rng rng_;
  std::uint64_t delivered_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t in_flight_ = 0;
};

/// Voice-call state (Android TelephonyManager CALL_STATE_*).
enum class CallState : std::uint8_t { kIdle, kRinging, kOffhook };

/// Minimal voice-call manager: incoming calls ring, get answered with some
/// probability, and occupy the radio for their duration. On devices without
/// concurrent voice+data, a call going offhook disrupts `data`'s
/// connection; call drops raise kVoiceCallDrop failure events.
class VoiceCallManager {
 public:
  struct Config {
    double answer_probability = 0.8;
    SimDuration ring_time = SimDuration::seconds(6.0);
    double mean_call_seconds = 90.0;
    /// Probability a call drops mid-way on a healthy channel.
    double drop_probability = 0.01;
  };

  VoiceCallManager(Simulator& sim, FailureEventBus& events, DcTracker& data, Rng rng);
  VoiceCallManager(Simulator& sim, FailureEventBus& events, DcTracker& data, Rng rng,
                   Config config);

  VoiceCallManager(const VoiceCallManager&) = delete;
  VoiceCallManager& operator=(const VoiceCallManager&) = delete;

  CallState state() const { return state_; }

  /// An incoming call arrives now.
  void incoming_call();

  std::uint64_t calls_completed() const { return completed_; }
  std::uint64_t calls_dropped() const { return dropped_; }

 private:
  void set_state(CallState next);
  void end_call(bool dropped);

  Simulator& sim_;
  FailureEventBus& events_;
  DcTracker& data_;
  Rng rng_;
  Config config_;
  CallState state_ = CallState::kIdle;
  ScheduledEvent pending_;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_SMS_SERVICE_H

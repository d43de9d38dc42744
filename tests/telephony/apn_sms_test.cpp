#include <gtest/gtest.h>

#include "telephony/sms_service.h"
#include "telephony/telephony_manager.h"

namespace cellrel {
namespace {

// --- APN ---

TEST(Apn, CarrierListsUseRealNames) {
  EXPECT_EQ(default_apn(IspId::kIspA), "cmnet");
  EXPECT_EQ(default_apn(IspId::kIspB), "ctnet");
  EXPECT_EQ(default_apn(IspId::kIspC), "3gnet");
}

TEST(Apn, TelephonyManagerUsesCarrierApn) {
  Simulator sim;
  obs::MetricSink metrics;
  TelephonyManager::Config config;
  config.isp = IspId::kIspB;
  TelephonyManager tm(sim, Rng{1}, metrics, config);
  EXPECT_EQ(tm.dc_tracker().apn(), "ctnet");
}

// --- SMS service ---

class SmsRecorder final : public FailureEventListener {
 public:
  void on_failure_event(const FailureEvent& event) override {
    if (event.type == FailureType::kSmsSendFail) ++failures;
  }
  void on_failure_cleared(FailureType, SimTime) override {}
  int failures = 0;
};

struct SmsFixture {
  Simulator sim;
  obs::MetricSink metrics;
  FailureEventBus bus;
  RadioInterfaceLayer ril{Rng{3}, metrics};
  SmsService sms{sim, ril, bus, Rng{4}};
  SmsRecorder recorder;
  SmsFixture() {
    bus.add_listener(&recorder);
    bus.set_cell_context({7, Rat::k4G, SignalLevel::kLevel4});
    ChannelConditions healthy;
    healthy.level = SignalLevel::kLevel4;
    ril.update_channel(healthy);
  }
};

TEST(Sms, DeliversOnHealthyChannel) {
  SmsFixture f;
  for (int i = 0; i < 100; ++i) f.sms.send();
  f.sim.run();
  EXPECT_EQ(f.sms.in_flight(), 0u);
  EXPECT_GE(f.sms.messages_sent(), 95u);  // ~2% transient per attempt, retried
  EXPECT_EQ(f.sms.messages_sent() + f.sms.messages_failed(), 100u);
  EXPECT_EQ(f.recorder.failures, static_cast<int>(f.sms.messages_failed()));
}

TEST(Sms, ExhaustsRetriesOnDeadChannel) {
  SmsFixture f;
  ChannelConditions dead;
  dead.level = SignalLevel::kLevel0;
  dead.base_failure_prob = 1.0;
  f.ril.update_channel(dead);
  f.sms.send();
  f.sim.run();
  EXPECT_EQ(f.sms.in_flight(), 0u);
  if (f.sms.messages_failed() == 1u) {
    EXPECT_EQ(f.recorder.failures, 1);
    // Attempts are 5 s apart: retried before giving up, at most 3 times.
    EXPECT_GE(f.sim.now().to_seconds(), 5.0);
    EXPECT_LE(f.sim.now().to_seconds(), 15.0);
  }
}

TEST(Sms, RetriesAreSpacedInTime) {
  SmsFixture f;
  ChannelConditions dead;
  dead.level = SignalLevel::kLevel2;
  dead.base_failure_prob = 1.0;
  dead.driver_fault = true;  // deterministic kRetry path
  f.ril.update_channel(dead);
  for (int i = 0; i < 100; ++i) f.sms.send();
  EXPECT_EQ(f.sms.in_flight(), 100u);
  f.sim.run_until(SimTime::from_seconds(14.0));
  EXPECT_EQ(f.sms.in_flight(), 100u);
  f.sim.run();
  // 3 retries x 5 s spacing.
  EXPECT_DOUBLE_EQ(f.sim.now().to_seconds(), 15.0);
  EXPECT_EQ(f.sms.in_flight(), 0u);
  EXPECT_EQ(f.sms.messages_failed(), 100u);
  EXPECT_EQ(f.recorder.failures, 100);
}

TEST(Sms, ResultNames) {
  EXPECT_EQ(to_string(SmsResult::kRetry), "RIL_SMS_SEND_FAIL_RETRY");
  EXPECT_EQ(to_string(SmsResult::kOk), "OK");
}

// --- Voice calls ---

class VoiceRecorder final : public FailureEventListener {
 public:
  void on_failure_event(const FailureEvent& event) override {
    if (event.type == FailureType::kVoiceCallDrop) ++drops;
  }
  void on_failure_cleared(FailureType, SimTime) override {}
  int drops = 0;
};

/// A voice-call manager beside the data connection its calls disrupt.
struct VoiceFixture {
  Simulator sim;
  obs::MetricSink metrics;
  FailureEventBus bus;
  RadioInterfaceLayer ril{Rng{3}, metrics};
  DcTracker data{sim, ril, bus, metrics};
  VoiceCallManager voice;

  VoiceFixture(std::uint64_t seed, double answer_probability, double drop_probability)
      : voice(sim, bus, data, Rng{seed}, config(answer_probability, drop_probability)) {}

  static VoiceCallManager::Config config(double answer_probability, double drop_probability) {
    VoiceCallManager::Config c;
    c.answer_probability = answer_probability;
    c.drop_probability = drop_probability;
    return c;
  }
};

TEST(Voice, CallLifecycleAndHooks) {
  VoiceFixture f(5, 1.0, 0.0);
  f.voice.incoming_call();
  EXPECT_EQ(f.voice.state(), CallState::kRinging);
  while (f.voice.state() == CallState::kRinging && f.sim.step()) {
  }
  EXPECT_EQ(f.voice.state(), CallState::kOffhook);
  f.sim.run();
  EXPECT_EQ(f.voice.state(), CallState::kIdle);
  EXPECT_EQ(f.voice.calls_completed(), 1u);
  EXPECT_EQ(f.voice.calls_dropped(), 0u);
}

TEST(Voice, UnansweredCallReturnsToIdle) {
  VoiceFixture f(6, 0.0, 0.01);
  f.voice.incoming_call();
  f.sim.run();
  EXPECT_EQ(f.voice.state(), CallState::kIdle);
  EXPECT_EQ(f.voice.calls_completed(), 0u);
}

TEST(Voice, DropRaisesFailureEvent) {
  VoiceFixture f(7, 1.0, 1.0);
  VoiceRecorder recorder;
  f.bus.add_listener(&recorder);
  f.voice.incoming_call();
  f.sim.run();
  EXPECT_EQ(recorder.drops, 1);
  EXPECT_EQ(f.voice.calls_dropped(), 1u);
}

TEST(Voice, BusyLineIgnoresSecondCall) {
  VoiceFixture f(8, 1.0, 0.0);
  f.voice.incoming_call();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(10.0));
  ASSERT_EQ(f.voice.state(), CallState::kOffhook);
  f.voice.incoming_call();  // engaged: no state change
  EXPECT_EQ(f.voice.state(), CallState::kOffhook);
  f.sim.run();
}

TEST(Voice, OffhookDisruptsDataViaTelephonyManager) {
  Simulator sim;
  obs::MetricSink metrics;
  TelephonyManager tm(sim, Rng{9}, metrics, {});
  ChannelConditions healthy;
  healthy.level = SignalLevel::kLevel4;
  tm.ril().update_channel(healthy);
  tm.dc_tracker().request_data();
  sim.run_until(SimTime::origin() + SimDuration::seconds(5.0));
  ASSERT_TRUE(tm.dc_tracker().connection().is_active());
  tm.voice().incoming_call();
  while (tm.voice().state() == CallState::kRinging && sim.step()) {
  }
  // Once the call is answered, the data connection drops (non-DSDA).
  ASSERT_EQ(tm.voice().state(), CallState::kOffhook);
  EXPECT_EQ(tm.dc_tracker().connection().state(), DcState::kInactive);
  sim.run_until(SimTime::origin() + SimDuration::minutes(30.0));
  EXPECT_EQ(tm.voice().state(), CallState::kIdle);
  EXPECT_TRUE(tm.dc_tracker().connection().is_active());  // re-established after the call
}

}  // namespace
}  // namespace cellrel

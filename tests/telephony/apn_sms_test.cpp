#include <gtest/gtest.h>

#include "telephony/apn.h"
#include "telephony/sms_service.h"
#include "telephony/telephony_manager.h"

namespace cellrel {
namespace {

// --- APN management ---

TEST(Apn, CarrierListsUseRealNames) {
  EXPECT_EQ(ApnManager::for_isp(IspId::kIspA).select(ApnType::kDefault)->name, "cmnet");
  EXPECT_EQ(ApnManager::for_isp(IspId::kIspB).select(ApnType::kDefault)->name, "ctnet");
  EXPECT_EQ(ApnManager::for_isp(IspId::kIspC).select(ApnType::kDefault)->name, "3gnet");
}

TEST(Apn, TypeBasedSelection) {
  const ApnManager apns = ApnManager::for_isp(IspId::kIspA);
  EXPECT_EQ(apns.select(ApnType::kMms)->name, "cmwap");
  EXPECT_EQ(apns.select(ApnType::kIms)->name, "ims");
  EXPECT_EQ(apns.select(ApnType::kSupl)->name, "cmnet");
  EXPECT_FALSE(apns.select(ApnType::kEmergency).has_value());
}

TEST(Apn, PriorityOrderWins) {
  ApnManager apns({
      {"low", static_cast<std::uint8_t>(ApnType::kDefault), true, 5},
      {"high", static_cast<std::uint8_t>(ApnType::kDefault), true, 1},
  });
  EXPECT_EQ(apns.select(ApnType::kDefault)->name, "high");
}

TEST(Apn, RoamingRestriction) {
  ApnManager apns({
      {"home-only", static_cast<std::uint8_t>(ApnType::kDefault), false, 0},
      {"roam-ok", static_cast<std::uint8_t>(ApnType::kDefault), true, 1},
  });
  EXPECT_EQ(apns.select(ApnType::kDefault, /*roaming=*/false)->name, "home-only");
  EXPECT_EQ(apns.select(ApnType::kDefault, /*roaming=*/true)->name, "roam-ok");
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

TEST(Voice, CallLifecycleAndHooks) {
  Simulator sim;
  FailureEventBus bus;
  VoiceCallManager::Config config;
  config.answer_probability = 1.0;
  config.drop_probability = 0.0;
  VoiceCallManager voice(sim, bus, Rng{5}, config);
  std::vector<CallState> states;
  voice.set_call_state_hook([&](CallState s) { states.push_back(s); });
  voice.incoming_call();
  EXPECT_EQ(voice.state(), CallState::kRinging);
  sim.run();
  EXPECT_EQ(voice.state(), CallState::kIdle);
  ASSERT_GE(states.size(), 3u);
  EXPECT_EQ(states[0], CallState::kRinging);
  EXPECT_EQ(states[1], CallState::kOffhook);
  EXPECT_EQ(states.back(), CallState::kIdle);
  EXPECT_EQ(voice.calls_completed(), 1u);
  EXPECT_EQ(voice.calls_dropped(), 0u);
}

TEST(Voice, UnansweredCallReturnsToIdle) {
  Simulator sim;
  FailureEventBus bus;
  VoiceCallManager::Config config;
  config.answer_probability = 0.0;
  VoiceCallManager voice(sim, bus, Rng{6}, config);
  voice.incoming_call();
  sim.run();
  EXPECT_EQ(voice.state(), CallState::kIdle);
  EXPECT_EQ(voice.calls_completed(), 0u);
}

TEST(Voice, DropRaisesFailureEvent) {
  Simulator sim;
  FailureEventBus bus;
  VoiceCallManager::Config config;
  config.answer_probability = 1.0;
  config.drop_probability = 1.0;
  VoiceCallManager voice(sim, bus, Rng{7}, config);
  VoiceRecorder recorder;
  bus.add_listener(&recorder);
  voice.incoming_call();
  sim.run();
  EXPECT_EQ(recorder.drops, 1);
  EXPECT_EQ(voice.calls_dropped(), 1u);
}

TEST(Voice, BusyLineIgnoresSecondCall) {
  Simulator sim;
  FailureEventBus bus;
  VoiceCallManager::Config config;
  config.answer_probability = 1.0;
  config.drop_probability = 0.0;
  VoiceCallManager voice(sim, bus, Rng{8}, config);
  voice.incoming_call();
  sim.run_until(SimTime::origin() + SimDuration::seconds(10.0));
  ASSERT_EQ(voice.state(), CallState::kOffhook);
  voice.incoming_call();  // engaged: no state change
  EXPECT_EQ(voice.state(), CallState::kOffhook);
  sim.run();
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
  // Once the call is answered, the data connection drops (non-DSDA).
  sim.run_until(SimTime::origin() + SimDuration::seconds(12.0));
  if (tm.voice().state() == CallState::kOffhook) {
    EXPECT_NE(tm.dc_tracker().connection().state(), DcState::kActive);
  }
  sim.run_until(SimTime::origin() + SimDuration::minutes(30.0));
}

}  // namespace
}  // namespace cellrel

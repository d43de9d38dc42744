#include "telephony/dc_tracker.h"

#include <gtest/gtest.h>

#include <vector>

namespace cellrel {
namespace {

class EventRecorder final : public FailureEventListener {
 public:
  void on_failure_event(const FailureEvent& event) override { events.push_back(event); }
  void on_failure_cleared(FailureType, SimTime) override { ++cleared; }
  std::vector<FailureEvent> events;
  int cleared = 0;
};

struct Fixture {
  Simulator sim;
  obs::MetricSink metrics;
  FailureEventBus bus;
  RadioInterfaceLayer ril{Rng{7}, metrics};
  DcTracker tracker{sim, ril, bus, metrics};
  EventRecorder recorder;

  Fixture() {
    bus.add_listener(&recorder);
    ChannelConditions healthy;
    healthy.level = SignalLevel::kLevel4;
    ril.update_channel(healthy);
    bus.set_cell_context({3, Rat::k4G, SignalLevel::kLevel4});
  }

  void set_failing(double prob = 1.0) {
    ChannelConditions c;
    c.level = SignalLevel::kLevel3;
    c.base_failure_prob = prob;
    ril.update_channel(c);
  }
  void set_healthy() {
    ChannelConditions c;
    c.level = SignalLevel::kLevel4;
    ril.update_channel(c);
  }
};

TEST(DcTracker, HealthySetupActivates) {
  Fixture f;
  f.tracker.request_data();
  EXPECT_EQ(f.tracker.connection().state(), DcState::kActivating);
  f.sim.run();
  EXPECT_TRUE(f.tracker.connection().is_active());
  EXPECT_EQ(f.tracker.setup_failures(), 0u);
  EXPECT_TRUE(f.recorder.events.empty());
  // The setup reply fires at the modem latency the RIL recorded.
  const auto& latency = f.metrics.sim_timers().at("ril.setup_data_call.latency");
  ASSERT_EQ(latency.count, 1u);
  EXPECT_GT(latency.total_us, 0);
  EXPECT_EQ(f.sim.now().since_origin().count_us(), latency.total_us);
}

TEST(DcTracker, ClearsSetupErrorAtActiveAndInactive) {
  // Every transition to Active or Inactive clears Data_Setup_Error on the
  // bus, right where the setup episode ends; nothing else clears it.
  Fixture f;
  f.tracker.request_data();
  f.sim.run();
  ASSERT_TRUE(f.tracker.connection().is_active());
  EXPECT_EQ(f.recorder.cleared, 1);
  f.tracker.teardown();  // Active -> Disconnect -> Inactive
  EXPECT_EQ(f.recorder.cleared, 2);

  f.set_failing();
  f.tracker.request_data();
  while (f.tracker.setup_failures() < 2 && f.sim.step()) {
  }
  ASSERT_EQ(f.tracker.connection().state(), DcState::kRetrying);
  EXPECT_EQ(f.recorder.cleared, 2);  // failed attempts leave the episode open
  f.tracker.teardown();  // Retrying -> Inactive
  EXPECT_EQ(f.recorder.cleared, 3);
  f.tracker.teardown();  // already Inactive: no transition, no clear
  EXPECT_EQ(f.recorder.cleared, 3);
  f.sim.run();
}

TEST(DcTracker, FailureEmitsEventWithContext) {
  Fixture f;
  f.set_failing();
  f.tracker.request_data();
  // Run just past the first setup response.
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(3.0));
  ASSERT_FALSE(f.recorder.events.empty());
  const FailureEvent& e = f.recorder.events.front();
  EXPECT_EQ(e.type, FailureType::kDataSetupError);
  EXPECT_EQ(e.bs, 3u);
  EXPECT_EQ(e.rat, Rat::k4G);
  EXPECT_NE(e.cause, FailCause::kNone);
  EXPECT_EQ(e.ground_truth_fp, FalsePositiveKind::kNone);
  f.tracker.teardown();
  f.sim.run();
}

TEST(DcTracker, RetriesWithBackoffUntilChannelHeals) {
  Fixture f;
  f.set_failing();
  f.tracker.request_data();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(10.0));
  const auto failures = f.tracker.setup_failures();
  EXPECT_GE(failures, 2u);  // multiple retries happened
  f.set_healthy();
  f.sim.run_until(SimTime::origin() + SimDuration::minutes(2.0));
  EXPECT_TRUE(f.tracker.connection().is_active());
  // Retry cadence is progressive: attempts grow sparser over time.
  EXPECT_LE(f.tracker.setup_failures(), failures + 5);
}

TEST(DcTracker, RationalRejectionTaggedAsOverloadFp) {
  Fixture f;
  ChannelConditions c;
  c.level = SignalLevel::kLevel4;
  c.overload_rejection_prob = 1.0;
  f.ril.update_channel(c);
  f.tracker.request_data();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(3.0));
  ASSERT_FALSE(f.recorder.events.empty());
  EXPECT_EQ(f.recorder.events.front().ground_truth_fp,
            FalsePositiveKind::kBsOverloadRejection);
  f.tracker.teardown();
  f.sim.run();
}

TEST(DcTracker, BalanceSuspensionBarsSetups) {
  Fixture f;
  f.tracker.suspend_for_balance();
  f.tracker.request_data();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(5.0));
  ASSERT_FALSE(f.recorder.events.empty());
  EXPECT_EQ(f.recorder.events.front().cause, FailCause::kOperatorDeterminedBarring);
  EXPECT_EQ(f.recorder.events.front().ground_truth_fp,
            FalsePositiveKind::kInsufficientBalance);
  f.tracker.restore_service_account();
  f.sim.run_until(SimTime::origin() + SimDuration::minutes(2.0));
  EXPECT_TRUE(f.tracker.connection().is_active());
}

TEST(DcTracker, VoiceCallDisruptionDropsAndRecovers) {
  Fixture f;
  f.tracker.request_data();
  f.sim.run();
  ASSERT_TRUE(f.tracker.connection().is_active());
  f.tracker.disrupt_by_voice_call();
  EXPECT_EQ(f.tracker.connection().state(), DcState::kInactive);
  ASSERT_EQ(f.recorder.events.size(), 1u);
  EXPECT_EQ(f.recorder.events.front().ground_truth_fp,
            FalsePositiveKind::kIncomingVoiceCall);
  // After the call releases the radio, data comes back on its own.
  f.sim.run();
  EXPECT_TRUE(f.tracker.connection().is_active());
}

TEST(DcTracker, ManualDisconnectEmitsFpEventBeforeInactive) {
  Fixture f;
  f.tracker.request_data();
  f.sim.run();
  ASSERT_TRUE(f.tracker.connection().is_active());
  f.tracker.teardown(/*user_initiated=*/true);
  EXPECT_EQ(f.tracker.connection().state(), DcState::kInactive);
  ASSERT_EQ(f.recorder.events.size(), 1u);
  EXPECT_EQ(f.recorder.events.front().cause, FailCause::kDataSettingsDisabled);
  EXPECT_EQ(f.recorder.events.front().ground_truth_fp,
            FalsePositiveKind::kManualDisconnect);
  f.sim.run();
  EXPECT_EQ(f.tracker.connection().state(), DcState::kInactive);  // no auto-retry
}

TEST(DcTracker, TeardownWhileRetryingStopsRetries) {
  Fixture f;
  f.set_failing();
  f.tracker.request_data();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(2.0));
  f.tracker.teardown();
  const auto failures = f.tracker.setup_failures();
  f.sim.run();
  EXPECT_EQ(f.tracker.setup_failures(), failures);
  EXPECT_EQ(f.tracker.connection().state(), DcState::kInactive);
}

TEST(DcTracker, UserInitiatedTeardownWhenInactiveEmitsNothing) {
  Fixture f;
  f.tracker.teardown(/*user_initiated=*/true);
  EXPECT_TRUE(f.recorder.events.empty());
}

TEST(DcTracker, ListenerRemoval) {
  Fixture f;
  f.bus.remove_listener(&f.recorder);
  f.set_failing();
  f.tracker.request_data();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(3.0));
  EXPECT_TRUE(f.recorder.events.empty());
  f.tracker.teardown();
  f.sim.run();
}


TEST(DcTracker, VoiceDisruptionIgnoredUnlessActive) {
  // A call only drops an Active connection: on an Inactive or Retrying one
  // it raises nothing, clears nothing and leaves the state as it was.
  Fixture f;
  f.tracker.disrupt_by_voice_call();
  EXPECT_EQ(f.tracker.connection().state(), DcState::kInactive);
  EXPECT_TRUE(f.recorder.events.empty());
  EXPECT_EQ(f.recorder.cleared, 0);

  f.set_failing();
  f.tracker.request_data();
  while (f.tracker.setup_failures() < 1 && f.sim.step()) {
  }
  ASSERT_EQ(f.tracker.connection().state(), DcState::kRetrying);
  const std::size_t events = f.recorder.events.size();
  f.tracker.disrupt_by_voice_call();
  EXPECT_EQ(f.tracker.connection().state(), DcState::kRetrying);
  EXPECT_EQ(f.recorder.events.size(), events);
  EXPECT_EQ(f.recorder.cleared, 0);
  f.tracker.teardown();
  f.sim.run();
}

}  // namespace
}  // namespace cellrel

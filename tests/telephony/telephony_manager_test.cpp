#include "telephony/telephony_manager.h"

#include <gtest/gtest.h>

namespace cellrel {
namespace {

class Recorder final : public FailureEventListener {
 public:
  void on_failure_event(const FailureEvent& event) override { events.push_back(event); }
  void on_failure_cleared(FailureType type, SimTime) override { cleared.push_back(type); }
  std::vector<FailureEvent> events;
  std::vector<FailureType> cleared;
};

TEST(TelephonyManager, OosEpisodeEmitsEventAndClear) {
  Simulator sim;
  TelephonyManager tm(sim, Rng{1});
  Recorder recorder;
  tm.register_failure_listener(&recorder);
  tm.set_cell_context({5, Rat::k3G, SignalLevel::kLevel2});

  tm.enter_out_of_service();
  tm.enter_out_of_service();  // idempotent
  ASSERT_EQ(recorder.events.size(), 1u);
  EXPECT_EQ(recorder.events[0].type, FailureType::kOutOfService);
  EXPECT_EQ(recorder.events[0].bs, 5u);
  EXPECT_EQ(recorder.events[0].rat, Rat::k3G);
  EXPECT_TRUE(tm.service_state().out_of_service());

  tm.exit_out_of_service();
  tm.exit_out_of_service();  // idempotent
  ASSERT_EQ(recorder.cleared.size(), 1u);
  EXPECT_EQ(recorder.cleared[0], FailureType::kOutOfService);
  EXPECT_FALSE(tm.service_state().out_of_service());
}

TEST(TelephonyManager, OosGroundTruthPropagates) {
  Simulator sim;
  TelephonyManager tm(sim, Rng{2});
  Recorder recorder;
  tm.register_failure_listener(&recorder);
  tm.enter_out_of_service(FalsePositiveKind::kInsufficientBalance);
  ASSERT_EQ(recorder.events.size(), 1u);
  EXPECT_EQ(recorder.events[0].ground_truth_fp, FalsePositiveKind::kInsufficientBalance);
}

TEST(TelephonyManager, LegacyFailureReachesListeners) {
  Simulator sim;
  TelephonyManager tm(sim, Rng{3});
  Recorder recorder;
  tm.register_failure_listener(&recorder);
  tm.report_legacy_failure(FailureType::kVoiceCallDrop);
  ASSERT_EQ(recorder.events.size(), 1u);
  EXPECT_EQ(recorder.events[0].type, FailureType::kVoiceCallDrop);
}

TEST(TelephonyManager, UnregisterStopsDelivery) {
  Simulator sim;
  TelephonyManager tm(sim, Rng{4});
  Recorder recorder;
  tm.register_failure_listener(&recorder);
  tm.register_failure_listener(&recorder);  // duplicate ignored
  tm.unregister_failure_listener(&recorder);
  tm.report_legacy_failure(FailureType::kSmsSendFail);
  tm.enter_out_of_service();
  EXPECT_TRUE(recorder.events.empty());
}

TEST(TelephonyManager, DefaultRecoveryHooksFixViaStages) {
  Simulator sim;
  TelephonyManager::Config config;
  config.stage_fix_prob = {1.0, 1.0, 1.0};  // deterministic stage success
  TelephonyManager tm(sim, Rng{9}, config);
  tm.network().inject_fault(NetworkFault::kNetworkStall);
  tm.recoverer().on_stall_detected();
  sim.run_until(SimTime::origin() + SimDuration::minutes(2.0));
  // Stage 1 (after the 60 s probation) cleared the fault via the default
  // execute hook.
  EXPECT_EQ(tm.network().fault(), NetworkFault::kNone);
  EXPECT_FALSE(tm.recoverer().episode_active());
}

}  // namespace
}  // namespace cellrel

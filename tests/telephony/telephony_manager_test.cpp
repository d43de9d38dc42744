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
  obs::MetricSink metrics;
  TelephonyManager tm(sim, Rng{1}, metrics, {});
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
  obs::MetricSink metrics;
  TelephonyManager tm(sim, Rng{2}, metrics, {});
  Recorder recorder;
  tm.register_failure_listener(&recorder);
  tm.enter_out_of_service(FalsePositiveKind::kInsufficientBalance);
  ASSERT_EQ(recorder.events.size(), 1u);
  EXPECT_EQ(recorder.events[0].ground_truth_fp, FalsePositiveKind::kInsufficientBalance);
}

TEST(TelephonyManager, LegacyFailureReachesListeners) {
  Simulator sim;
  obs::MetricSink metrics;
  TelephonyManager tm(sim, Rng{3}, metrics, {});
  Recorder recorder;
  tm.register_failure_listener(&recorder);
  tm.report_legacy_failure(FailureType::kVoiceCallDrop);
  ASSERT_EQ(recorder.events.size(), 1u);
  EXPECT_EQ(recorder.events[0].type, FailureType::kVoiceCallDrop);
}

TEST(TelephonyManager, UnregisterStopsDelivery) {
  Simulator sim;
  obs::MetricSink metrics;
  TelephonyManager tm(sim, Rng{4}, metrics, {});
  Recorder recorder;
  tm.register_failure_listener(&recorder);
  tm.register_failure_listener(&recorder);  // duplicate ignored
  tm.unregister_failure_listener(&recorder);
  tm.report_legacy_failure(FailureType::kSmsSendFail);
  tm.enter_out_of_service();
  EXPECT_TRUE(recorder.events.empty());
}

/// Logs what it hears, tagged with its id, into a log shared across
/// listeners so the test sees the dispatch order between them.
struct Heard {
  int listener = 0;
  FailureType type = FailureType::kDataSetupError;
  bool cleared = false;
  FailureEvent event;
};

class OrderedRecorder final : public FailureEventListener {
 public:
  OrderedRecorder(int id, std::vector<Heard>& log) : id_(id), log_(log) {}
  void on_failure_event(const FailureEvent& event) override {
    log_.push_back({id_, event.type, false, event});
  }
  void on_failure_cleared(FailureType type, SimTime) override {
    log_.push_back({id_, type, true, {}});
  }

 private:
  int id_;
  std::vector<Heard>& log_;
};

/// Makes each of the stack's five event sources raise once: a setup error
/// (and the clear of its episode at teardown) from a failing channel, a
/// stall (and its clear) from the detector plus
/// traffic, an OOS episode, a legacy failure, and an SMS send failure from a
/// channel whose driver rejects every submission. Returns the log suffix.
std::vector<Heard> drive_every_source(Simulator& sim, TelephonyManager& tm,
                                      std::vector<Heard>& log) {
  const std::size_t before = log.size();
  // Let any earlier traffic age out of the one-minute TCP window.
  sim.run_until(sim.now() + SimDuration::minutes(2.0));

  ChannelConditions failing;
  failing.level = SignalLevel::kLevel3;
  failing.base_failure_prob = 1.0;
  tm.ril().update_channel(failing);
  const std::uint64_t failures = tm.dc_tracker().setup_failures();
  tm.dc_tracker().request_data();
  while (tm.dc_tracker().setup_failures() == failures && sim.step()) {
  }
  tm.dc_tracker().teardown();  // cancels the retry: one setup error

  for (int i = 0; i < 11; ++i) tm.tcp().on_segment_sent(sim.now());
  tm.stall_detector().poll_now();
  tm.tcp().on_segment_received(sim.now());
  tm.stall_detector().poll_now();

  tm.enter_out_of_service();
  tm.exit_out_of_service();

  tm.report_legacy_failure(FailureType::kVoiceCallDrop);

  ChannelConditions driver_fault;
  driver_fault.level = SignalLevel::kLevel3;
  driver_fault.driver_fault = true;
  tm.ril().update_channel(driver_fault);
  tm.sms().send();
  sim.run();
  return {log.begin() + static_cast<std::ptrdiff_t>(before), log.end()};
}

TEST(TelephonyManager, OneChannelStampsAndOrdersEverySource) {
  Simulator sim;
  obs::MetricSink metrics;
  TelephonyManager tm(sim, Rng{21}, metrics, {});
  std::vector<Heard> log;
  OrderedRecorder first(1, log);
  OrderedRecorder second(2, log);
  tm.register_failure_listener(&first);
  tm.register_failure_listener(&second);
  tm.register_failure_listener(&first);  // duplicate: heard once, order kept
  const CellContext cell{12, Rat::k5G, SignalLevel::kLevel2};
  tm.set_cell_context(cell);

  const std::vector<Heard> heard = drive_every_source(sim, tm, log);
  const std::vector<std::pair<FailureType, bool>> expected = {
      {FailureType::kDataSetupError, false}, {FailureType::kDataSetupError, true},
      {FailureType::kDataStall, false},
      {FailureType::kDataStall, true},       {FailureType::kOutOfService, false},
      {FailureType::kOutOfService, true},    {FailureType::kVoiceCallDrop, false},
      {FailureType::kSmsSendFail, false}};
  ASSERT_EQ(heard.size(), 2 * expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      const Heard& h = heard[2 * i + static_cast<std::size_t>(k)];
      SCOPED_TRACE(testing::Message() << "event " << i << " listener " << k + 1);
      EXPECT_EQ(h.listener, k + 1);  // registration order
      EXPECT_EQ(h.type, expected[i].first);
      EXPECT_EQ(h.cleared, expected[i].second);
      if (!h.cleared) {
        EXPECT_EQ(h.event.bs, cell.bs);
        EXPECT_EQ(h.event.rat, cell.rat);
        EXPECT_EQ(h.event.level, cell.level);
      }
    }
  }

  // Unregistering silences every source for that listener only.
  tm.unregister_failure_listener(&first);
  const std::vector<Heard> after = drive_every_source(sim, tm, log);
  ASSERT_EQ(after.size(), expected.size());
  for (const Heard& h : after) EXPECT_EQ(h.listener, 2);

  tm.unregister_failure_listener(&second);
  EXPECT_TRUE(drive_every_source(sim, tm, log).empty());
}

TEST(TelephonyManager, RecoveryStageAndEpisodeSinkComeFromConfig) {
  Simulator sim;
  obs::MetricSink metrics;
  std::vector<RecoveryStage> executed;
  std::vector<RecoveryEpisode> episodes;
  TelephonyManager* owner = nullptr;
  TelephonyManager::Config config;
  config.recovery_schedule = make_probation_schedule(10, 20, 30, "test");
  config.execute_recovery_stage = [&](RecoveryStage stage) {
    executed.push_back(stage);
    if (stage != RecoveryStage::kReregister) return false;
    owner->network().inject_fault(NetworkFault::kNone);
    return true;
  };
  config.on_recovery_episode = [&](const RecoveryEpisode& ep) { episodes.push_back(ep); };
  TelephonyManager tm(sim, Rng{31}, metrics, std::move(config));
  owner = &tm;

  tm.network().inject_fault(NetworkFault::kNetworkStall);
  tm.recoverer().on_stall_detected();
  sim.run();
  ASSERT_EQ(executed.size(), 2u);
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].outcome, RecoveryOutcome::kFixedByStage);
  EXPECT_EQ(episodes[0].fixed_by, RecoveryStage::kReregister);
  EXPECT_DOUBLE_EQ(episodes[0].duration().to_seconds(), 30.0);
}

TEST(TelephonyManager, RecoveryProbationChecksTheNetworkFault) {
  // Without a stage operation the recoverer still sees the network stack:
  // a fault cleared during the first probation ends the episode there.
  Simulator sim;
  obs::MetricSink metrics;
  std::vector<RecoveryEpisode> episodes;
  TelephonyManager::Config config;
  config.on_recovery_episode = [&](const RecoveryEpisode& ep) { episodes.push_back(ep); };
  TelephonyManager tm(sim, Rng{32}, metrics, std::move(config));
  tm.network().inject_fault(NetworkFault::kNetworkStall);
  tm.recoverer().on_stall_detected();
  sim.schedule_after(SimDuration::seconds(25.0),
                     [&tm] { tm.network().inject_fault(NetworkFault::kNone); });
  sim.run();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].outcome, RecoveryOutcome::kAutoRecovered);
  EXPECT_EQ(episodes[0].stages_executed, 0u);
  EXPECT_DOUBLE_EQ(episodes[0].duration().to_seconds(), 60.0);  // vanilla probation
}

}  // namespace
}  // namespace cellrel

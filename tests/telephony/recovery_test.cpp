#include "telephony/recovery.h"

#include <gtest/gtest.h>

#include <vector>

namespace cellrel {
namespace {

struct Harness {
  Simulator sim;
  obs::MetricSink metrics;
  NetworkStack stack{Rng{1}};
  std::vector<RecoveryStage> executed;
  std::vector<RecoveryEpisode> episodes;
  int fix_on_execution = -1;  // stage execution index (0-based) that fixes

  Harness() { stack.inject_fault(NetworkFault::kNetworkStall); }

  void heal() { stack.inject_fault(NetworkFault::kNone); }

  DataStallRecoverer make(ProbationSchedule schedule) {
    return DataStallRecoverer(
        sim, stack, metrics, std::move(schedule),
        DataStallRecoverer::Hooks{
            [this](RecoveryStage stage) {
              executed.push_back(stage);
              if (fix_on_execution >= 0 &&
                  static_cast<int>(executed.size()) - 1 == fix_on_execution) {
                heal();
                return true;
              }
              return false;
            },
            [this](const RecoveryEpisode& ep) { episodes.push_back(ep); }});
  }
};

TEST(Recovery, VanillaScheduleIs60Seconds) {
  const ProbationSchedule s = vanilla_probation_schedule();
  for (const auto& p : s.probation) EXPECT_EQ(p, SimDuration::minutes(1));
  EXPECT_EQ(s.name, "vanilla-60s");
}

TEST(Recovery, StageExecutionTimesFollowProbations) {
  Harness h;
  auto recoverer = h.make(make_probation_schedule(10, 20, 30, "test"));
  h.fix_on_execution = 2;  // third stage fixes
  recoverer.on_stall_detected();
  h.sim.run();
  ASSERT_EQ(h.executed.size(), 3u);
  EXPECT_EQ(h.executed[0], RecoveryStage::kCleanupConnection);
  EXPECT_EQ(h.executed[1], RecoveryStage::kReregister);
  EXPECT_EQ(h.executed[2], RecoveryStage::kRestartRadio);
  ASSERT_EQ(h.episodes.size(), 1u);
  EXPECT_EQ(h.episodes[0].outcome, RecoveryOutcome::kFixedByStage);
  EXPECT_EQ(h.episodes[0].fixed_by, RecoveryStage::kRestartRadio);
  // Stage 3 executes after 10 + 20 + 30 = 60 s of probations.
  EXPECT_DOUBLE_EQ(h.episodes[0].duration().to_seconds(), 60.0);
  EXPECT_EQ(h.episodes[0].stages_executed, 3u);
}

TEST(Recovery, AutoRecoveryDuringProbation) {
  Harness h;
  auto recoverer = h.make(make_probation_schedule(10, 10, 10, "test"));
  recoverer.on_stall_detected();
  h.sim.schedule_after(SimDuration::seconds(4), [&] {
    h.heal();
    recoverer.on_stall_cleared();
  });
  h.sim.run();
  EXPECT_TRUE(h.executed.empty());  // no stage ever ran
  ASSERT_EQ(h.episodes.size(), 1u);
  EXPECT_EQ(h.episodes[0].outcome, RecoveryOutcome::kAutoRecovered);
  EXPECT_DOUBLE_EQ(h.episodes[0].duration().to_seconds(), 4.0);
}

TEST(Recovery, ProbationCheckCatchesSilentClear) {
  // The stall clears but nobody tells the recoverer: the probation-expiry
  // check must notice from the network stack's fault state.
  Harness h;
  auto recoverer = h.make(make_probation_schedule(10, 10, 10, "test"));
  recoverer.on_stall_detected();
  h.sim.schedule_after(SimDuration::seconds(5), [&] { h.heal(); });
  h.sim.run();
  EXPECT_TRUE(h.executed.empty());
  ASSERT_EQ(h.episodes.size(), 1u);
  EXPECT_EQ(h.episodes[0].outcome, RecoveryOutcome::kAutoRecovered);
  EXPECT_DOUBLE_EQ(h.episodes[0].duration().to_seconds(), 10.0);
}

TEST(Recovery, LoopsThroughCyclesUntilFixed) {
  Harness h;
  auto recoverer = h.make(make_probation_schedule(1, 1, 1, "test"));
  h.fix_on_execution = 7;  // fixed mid-third-cycle (executions 0..7)
  recoverer.on_stall_detected();
  h.sim.run();
  EXPECT_EQ(h.executed.size(), 8u);
  ASSERT_EQ(h.episodes.size(), 1u);
  EXPECT_EQ(h.episodes[0].cycles, 2u);
  EXPECT_EQ(h.episodes[0].outcome, RecoveryOutcome::kFixedByStage);
  EXPECT_EQ(h.episodes[0].fixed_by, RecoveryStage::kReregister);
}

TEST(Recovery, CycleCapExhausts) {
  Harness h;
  auto recoverer = h.make(make_probation_schedule(1, 1, 1, "test"));
  recoverer.on_stall_detected();
  h.sim.run();
  ASSERT_EQ(kMaxRecoveryCycles, 100u);
  EXPECT_EQ(h.executed.size(), 300u);  // 100 cycles x 3 stages
  ASSERT_EQ(h.episodes.size(), 1u);
  EXPECT_EQ(h.episodes[0].outcome, RecoveryOutcome::kExhausted);
  EXPECT_EQ(h.episodes[0].cycles, 100u);
  EXPECT_EQ(h.episodes[0].stages_executed, 300u);
  EXPECT_DOUBLE_EQ(h.episodes[0].duration().to_seconds(), 300.0);
}

TEST(Recovery, EmptyHooksRunEveryStageUntilExhausted) {
  // No stage operation on a stack that stays stalled: every probation
  // expiry finds the stall persisting, no stage fixes it, and the cap ends
  // the episode.
  Simulator sim;
  obs::MetricSink metrics;
  NetworkStack stack(Rng{1});
  stack.inject_fault(NetworkFault::kNetworkStall);
  DataStallRecoverer recoverer(sim, stack, metrics, make_probation_schedule(7, 7, 7, "test"),
                               {});
  recoverer.on_stall_detected();
  sim.run();
  EXPECT_FALSE(recoverer.episode_active());
  EXPECT_EQ(metrics.counter("recovery.outcome.exhausted").value, 1u);
  EXPECT_EQ(metrics.counter("recovery.stage.cleanup-connection").value, kMaxRecoveryCycles);
  EXPECT_EQ(metrics.counter("recovery.stage.restart-radio").value, kMaxRecoveryCycles);
}

TEST(Recovery, UserResetEndsEpisode) {
  Harness h;
  auto recoverer = h.make(vanilla_probation_schedule());
  recoverer.on_stall_detected();
  h.sim.schedule_after(SimDuration::seconds(30), [&] { recoverer.on_user_reset(); });
  h.sim.run();
  ASSERT_EQ(h.episodes.size(), 1u);
  EXPECT_EQ(h.episodes[0].outcome, RecoveryOutcome::kUserReset);
  EXPECT_DOUBLE_EQ(h.episodes[0].duration().to_seconds(), 30.0);
  EXPECT_TRUE(h.executed.empty());  // reset landed before the first probation
}

TEST(Recovery, DuplicateDetectionIgnoredWhileActive) {
  Harness h;
  auto recoverer = h.make(make_probation_schedule(5, 5, 5, "test"));
  h.fix_on_execution = 0;
  recoverer.on_stall_detected();
  recoverer.on_stall_detected();  // no-op
  h.sim.run();
  EXPECT_EQ(h.metrics.counter("recovery.episodes").value, 1u);
  EXPECT_EQ(h.episodes.size(), 1u);
}

TEST(Recovery, TimpScheduleShortensEpisodes) {
  // Identical stall behaviour, two schedules: the TIMP one finishes the
  // same stage sequence much sooner.
  Harness slow, fast;
  auto vanilla = slow.make(vanilla_probation_schedule());
  auto timp = fast.make(make_probation_schedule(21, 6, 16, "timp"));
  slow.fix_on_execution = 1;
  fast.fix_on_execution = 1;
  vanilla.on_stall_detected();
  timp.on_stall_detected();
  slow.sim.run();
  fast.sim.run();
  ASSERT_EQ(slow.episodes.size(), 1u);
  ASSERT_EQ(fast.episodes.size(), 1u);
  EXPECT_DOUBLE_EQ(slow.episodes[0].duration().to_seconds(), 120.0);
  EXPECT_DOUBLE_EQ(fast.episodes[0].duration().to_seconds(), 27.0);
}

TEST(Recovery, OutcomeNames) {
  EXPECT_EQ(to_string(RecoveryOutcome::kAutoRecovered), "auto-recovered");
  EXPECT_EQ(to_string(RecoveryStage::kRestartRadio), "restart-radio");
}


TEST(Recovery, AnyStackFaultKeepsTheStallAtProbationExpiry) {
  // The probation check asks only whether the stack is faulty: a DNS
  // outage is not a healed network, so the first stage still runs.
  Harness h;
  h.stack.inject_fault(NetworkFault::kDnsOutage);
  auto recoverer = h.make(make_probation_schedule(10, 10, 10, "test"));
  h.fix_on_execution = 0;
  recoverer.on_stall_detected();
  h.sim.run();
  ASSERT_EQ(h.executed.size(), 1u);
  EXPECT_EQ(h.executed[0], RecoveryStage::kCleanupConnection);
  ASSERT_EQ(h.episodes.size(), 1u);
  EXPECT_EQ(h.episodes[0].outcome, RecoveryOutcome::kFixedByStage);
  EXPECT_DOUBLE_EQ(h.episodes[0].duration().to_seconds(), 10.0);
}

}  // namespace
}  // namespace cellrel

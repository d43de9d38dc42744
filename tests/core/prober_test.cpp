#include "core/prober.h"

#include <gtest/gtest.h>

#include <optional>

namespace cellrel {
namespace {

struct Fixture {
  Simulator sim;
  NetworkStack stack{Rng{5}};
  NetworkStateProber prober{sim, stack};
  std::optional<NetworkStateProber::Report> report;

  void start(SimTime stall_started = SimTime::origin()) {
    prober.start(stall_started,
                 [this](const NetworkStateProber::Report& r) { report = r; });
  }
};

TEST(Prober, SystemSideFaultClassifiedInFirstRound) {
  Fixture f;
  f.stack.inject_fault(NetworkFault::kFirewallMisconfig);
  f.start();
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_EQ(f.report->result, ProbeEpisodeResult::kSystemSideFalsePositive);
  EXPECT_EQ(f.report->rounds, 1u);
  // One round is bounded by the DNS timeout: "at most five seconds" (§2.2).
  EXPECT_LE(f.report->measured_duration, SimDuration::seconds(5.0));
}

TEST(Prober, DnsOnlyOutageClassified) {
  Fixture f;
  f.stack.inject_fault(NetworkFault::kDnsOutage);
  f.start();
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_EQ(f.report->result, ProbeEpisodeResult::kDnsOnlyFalsePositive);
}

TEST(Prober, HealthyNetworkResolvesImmediately) {
  Fixture f;
  f.start();
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_EQ(f.report->result, ProbeEpisodeResult::kNetworkStallResolved);
  EXPECT_EQ(f.report->rounds, 1u);
  EXPECT_LT(f.report->measured_duration, SimDuration::seconds(1.0));
}

TEST(Prober, MeasuresStallDurationWithinFiveSeconds) {
  // True stall that heals after 47 s: the prober's measurement error is at
  // most one round (<= 5 s), far below vanilla Android's one minute (§2.2).
  Fixture f;
  f.stack.inject_fault(NetworkFault::kNetworkStall);
  f.sim.schedule_after(SimDuration::seconds(47.0), [&] {
    f.stack.inject_fault(NetworkFault::kNone);
  });
  f.start();
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_EQ(f.report->result, ProbeEpisodeResult::kNetworkStallResolved);
  const double measured = f.report->measured_duration.to_seconds();
  EXPECT_GE(measured, 47.0);
  EXPECT_LE(measured, 52.0);
  EXPECT_FALSE(f.report->reverted_to_fallback);
  // ~1 round per 5 s of stall.
  EXPECT_NEAR(static_cast<double>(f.report->rounds), 10.0, 2.0);
}

TEST(Prober, StartOffsetAccountedInDuration) {
  // Detection happened 30 s before the prober started (e.g. queued work):
  // the reported duration is measured from the stall start.
  Fixture f;
  f.stack.inject_fault(NetworkFault::kNetworkStall);
  f.sim.schedule_after(SimDuration::seconds(10.0), [&] {
    f.stack.inject_fault(NetworkFault::kNone);
  });
  f.sim.schedule_after(SimDuration::seconds(0.0), [&] {
    f.start(SimTime::origin() - SimDuration::seconds(30.0));
  });
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_GE(f.report->measured_duration.to_seconds(), 40.0);
}

TEST(Prober, TimeoutBackoffAndFallbackOnMarathonStalls) {
  // A stall past 1200 s doubles the timeouts each round (DNS 5 -> 10 -> 20
  // -> 40 -> 80 s); once a timeout exceeds 60 s the prober reverts to the
  // vanilla fixed-interval detection, one check per 60 s.
  Fixture f;
  f.stack.inject_fault(NetworkFault::kNetworkStall);
  f.sim.schedule_after(SimDuration::seconds(1500.0), [&] {
    f.stack.inject_fault(NetworkFault::kNone);
  });
  f.start();
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_EQ(f.report->result, ProbeEpisodeResult::kNetworkStallResolved);
  EXPECT_TRUE(f.report->reverted_to_fallback);
  // 5 s rounds up to the 1200 s threshold, then three doubled rounds
  // (10 + 20 + 40 s) before the 80 s timeout trips the fallback.
  EXPECT_EQ(f.report->rounds, 1200u / 5u + 1u + 3u);
  // Fallback granularity: measured within one fallback interval (60 s).
  EXPECT_GE(f.report->measured_duration.to_seconds(), 1500.0);
  EXPECT_LE(f.report->measured_duration.to_seconds(), 1560.0);
}

TEST(Prober, FiveSecondRoundsBeforeTheBackoffThreshold) {
  // Below 1200 s of stall age every round keeps the 5 s DNS timeout, so a
  // 600 s stall is measured round by round, never by the fallback.
  Fixture f;
  f.stack.inject_fault(NetworkFault::kNetworkStall);
  f.sim.schedule_after(SimDuration::seconds(600.0), [&] {
    f.stack.inject_fault(NetworkFault::kNone);
  });
  f.start();
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_EQ(f.report->result, ProbeEpisodeResult::kNetworkStallResolved);
  EXPECT_FALSE(f.report->reverted_to_fallback);
  EXPECT_EQ(f.report->rounds, 600u / 5u + 1u);
  EXPECT_GE(f.report->measured_duration.to_seconds(), 600.0);
  EXPECT_LE(f.report->measured_duration.to_seconds(), 605.0);
}

TEST(Prober, EveryRoundSendsTheRoundProbes) {
  // One round: 1 localhost ICMP + 2 DNS-server ICMP + 2 DNS queries, each
  // awaited as one scheduled reply. The monitor accounts a round's traffic
  // as kProbeRoundBytes.
  ASSERT_EQ(kDnsServerCount, 2u);
  EXPECT_EQ(kProbeRoundMessages, 5u);
  EXPECT_EQ(kProbeRoundBytes, 3u * 64u + 2u * 80u);
  Fixture f;
  f.stack.inject_fault(NetworkFault::kNetworkStall);
  f.start();
  EXPECT_EQ(f.sim.pending_events(), kProbeRoundMessages);
  // The last reply classifies the round as stalled and sends the next one.
  for (std::uint32_t i = 0; i < kProbeRoundMessages; ++i) ASSERT_TRUE(f.sim.step());
  EXPECT_EQ(f.sim.pending_events(), kProbeRoundMessages);
  f.stack.inject_fault(NetworkFault::kNone);
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_EQ(f.report->rounds, 3u);  // the second round was sent into the stall
}


TEST(Prober, NoReplyInFlightAfterFinish) {
  // A round classifies only once every probe has answered or timed out, so
  // when the report arrives nothing of the episode is left in the queue.
  for (const NetworkFault fault :
       {NetworkFault::kNone, NetworkFault::kNetworkStall, NetworkFault::kProxyBroken,
        NetworkFault::kDnsOutage}) {
    SCOPED_TRACE(to_string(fault));
    Simulator sim;
    NetworkStack stack(Rng{9});
    NetworkStateProber prober(sim, stack);
    stack.inject_fault(fault);
    if (fault == NetworkFault::kNetworkStall) {
      sim.schedule_after(SimDuration::seconds(12.0),
                         [&] { stack.inject_fault(NetworkFault::kNone); });
    }
    std::optional<std::size_t> pending_at_report;
    prober.start(SimTime::origin(), [&](const NetworkStateProber::Report&) {
      pending_at_report = sim.pending_events();
    });
    sim.run();
    ASSERT_TRUE(pending_at_report.has_value());
    EXPECT_EQ(*pending_at_report, 0u);
    EXPECT_FALSE(prober.active());
  }
}

TEST(Prober, RestartAfterFinishRunsAFreshEpisode) {
  // Once an episode reports, the prober starts the next one from round
  // zero with the base timeouts.
  Fixture f;
  f.stack.inject_fault(NetworkFault::kNetworkStall);
  f.sim.schedule_after(SimDuration::seconds(20.0),
                       [&] { f.stack.inject_fault(NetworkFault::kNone); });
  f.start();
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_GT(f.report->rounds, 1u);

  f.report.reset();
  f.stack.inject_fault(NetworkFault::kFirewallMisconfig);
  f.start(f.sim.now());
  f.sim.run();
  ASSERT_TRUE(f.report.has_value());
  EXPECT_EQ(f.report->result, ProbeEpisodeResult::kSystemSideFalsePositive);
  EXPECT_EQ(f.report->rounds, 1u);
  EXPECT_LE(f.report->measured_duration, SimDuration::seconds(5.0));
}

}  // namespace
}  // namespace cellrel

#include "telephony/data_stall.h"

#include <gtest/gtest.h>

namespace cellrel {
namespace {

class StallRecorder final : public FailureEventListener {
 public:
  void on_failure_event(const FailureEvent& event) override {
    if (event.type == FailureType::kDataStall) {
      ++raised;
      last = event;
    }
  }
  void on_failure_cleared(FailureType type, SimTime) override {
    if (type == FailureType::kDataStall) ++cleared;
  }
  int raised = 0;
  int cleared = 0;
  FailureEvent last;
};

struct Fixture {
  Simulator sim;
  TcpSegmentCounters tcp;
  NetworkStack stack{Rng{3}};
  obs::MetricSink metrics;
  FailureEventBus bus;
  DataStallDetector detector{sim, tcp, stack, bus, metrics};
  StallRecorder recorder;

  Fixture() {
    bus.add_listener(&recorder);
    bus.set_cell_context({9, Rat::k5G, SignalLevel::kLevel1});
  }

  /// Sends `n` outbound segments at 1 s spacing starting at the current time.
  void send_burst(int n) {
    SimTime t = sim.now();
    for (int i = 0; i < n; ++i) {
      tcp.on_segment_sent(t);
      t += SimDuration::seconds(1);
    }
  }
};

TEST(DataStallDetector, RaisesOncePerEpisodeWithContext) {
  Fixture f;
  f.send_burst(15);
  f.detector.start();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(30));
  EXPECT_EQ(f.recorder.raised, 1);
  EXPECT_TRUE(f.detector.episode_active());
  EXPECT_EQ(f.recorder.last.bs, 9u);
  EXPECT_EQ(f.recorder.last.rat, Rat::k5G);
  EXPECT_EQ(f.metrics.counter("data_stall.episodes").value, 1u);
  f.detector.stop();
}

TEST(DataStallDetector, ClearsWhenTrafficResumes) {
  Fixture f;
  f.send_burst(15);
  f.detector.start();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(20));
  ASSERT_EQ(f.recorder.raised, 1);
  // Inbound traffic resumes -> the predicate withdraws on the next poll.
  f.tcp.on_segment_received(f.sim.now());
  f.sim.run_until(f.sim.now() + SimDuration::seconds(15));
  EXPECT_EQ(f.recorder.cleared, 1);
  EXPECT_FALSE(f.detector.episode_active());
  f.detector.stop();
}

TEST(DataStallDetector, BelowThresholdNeverRaises) {
  Fixture f;
  f.send_burst(8);  // <= 10 outbound
  f.detector.start();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(40));
  EXPECT_EQ(f.recorder.raised, 0);
  f.detector.stop();
}

TEST(DataStallDetector, GroundTruthTracksFaultKind) {
  Fixture f;
  f.stack.inject_fault(NetworkFault::kProxyBroken);
  f.send_burst(15);
  f.detector.start();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(20));
  ASSERT_EQ(f.recorder.raised, 1);
  EXPECT_EQ(f.recorder.last.ground_truth_fp, FalsePositiveKind::kSystemSideStall);
  f.detector.stop();
}

TEST(DataStallDetector, DnsOutageTaggedAsResolutionOnly) {
  Fixture f;
  f.stack.inject_fault(NetworkFault::kDnsOutage);
  f.send_burst(15);
  f.detector.start();
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(20));
  ASSERT_EQ(f.recorder.raised, 1);
  EXPECT_EQ(f.recorder.last.ground_truth_fp, FalsePositiveKind::kDnsResolutionOnly);
  f.detector.stop();
}

TEST(DataStallDetector, StopHaltsPolling) {
  Fixture f;
  f.detector.start();
  f.detector.stop();
  f.send_burst(15);
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(60));
  EXPECT_EQ(f.recorder.raised, 0);
}

TEST(DataStallDetector, PollNowDetectsImmediately) {
  Fixture f;
  f.send_burst(15);
  f.detector.poll_now();
  EXPECT_EQ(f.recorder.raised, 1);
}

TEST(DataStallDetector, SecondEpisodeAfterClear) {
  Fixture f;
  f.detector.start();
  f.send_burst(15);
  f.sim.run_until(SimTime::origin() + SimDuration::seconds(20));
  f.tcp.on_segment_received(f.sim.now());
  f.sim.run_until(f.sim.now() + SimDuration::seconds(15));
  ASSERT_EQ(f.recorder.cleared, 1);
  // 70 s later the inbound segment has expired; a new outbound burst
  // triggers a second, distinct episode.
  f.sim.run_until(f.sim.now() + SimDuration::seconds(70));
  f.send_burst(15);
  f.sim.run_until(f.sim.now() + SimDuration::seconds(20));
  EXPECT_EQ(f.recorder.raised, 2);
  EXPECT_EQ(f.metrics.counter("data_stall.episodes").value, 2u);
  f.detector.stop();
}

}  // namespace
}  // namespace cellrel

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>

#include "common/rng.h"
#include "net/network_stack.h"
#include "net/tcp_stats.h"

namespace cellrel {
namespace {

// --- TCP segment accounting ---

TEST(TcpStats, WindowCountsAndExpiry) {
  EXPECT_EQ(TcpSegmentCounters::kWindow, SimDuration::minutes(1));
  TcpSegmentCounters tcp;
  SimTime t = SimTime::origin();
  for (int i = 0; i < 5; ++i) {
    tcp.on_segment_sent(t);
    t += SimDuration::seconds(10);
  }
  // All five sends are inside the window: "over 4" holds.
  EXPECT_TRUE(tcp.stall_suspected(t, 4));
  // 61 s after the first send it falls out of the window: four remain.
  const SimTime later = SimTime::origin() + SimDuration::seconds(61);
  EXPECT_FALSE(tcp.stall_suspected(later, 4));
  EXPECT_TRUE(tcp.stall_suspected(later, 3));
  EXPECT_EQ(tcp.total_sent(), 5u);
}

TEST(TcpStats, StallPredicateMatchesAndroidRule) {
  // ">10 outbound and not a single inbound TCP segment during the last
  // minute" (§2.1).
  TcpSegmentCounters tcp;
  SimTime t = SimTime::origin();
  for (int i = 0; i < 10; ++i) {
    tcp.on_segment_sent(t);
    t += SimDuration::seconds(1);
  }
  EXPECT_FALSE(tcp.stall_suspected(t));  // exactly 10 is not "over 10"
  tcp.on_segment_sent(t);
  EXPECT_TRUE(tcp.stall_suspected(t));
  tcp.on_segment_received(t);
  EXPECT_FALSE(tcp.stall_suspected(t));
}

TEST(TcpStats, InboundExpiryReenablesSuspicion) {
  TcpSegmentCounters tcp;
  SimTime t = SimTime::origin();
  tcp.on_segment_received(t);
  for (int i = 0; i < 30; ++i) {
    tcp.on_segment_sent(t);
    t += SimDuration::seconds(1);
  }
  // At t = 30 s the received segment is still inside the window.
  EXPECT_FALSE(tcp.stall_suspected(t));
  // Past 60 s, only sends remain.
  EXPECT_TRUE(tcp.stall_suspected(SimTime::origin() + SimDuration::seconds(61)));
}

TEST(TcpStats, CustomThreshold) {
  TcpSegmentCounters tcp;
  SimTime t = SimTime::origin();
  for (int i = 0; i < 4; ++i) tcp.on_segment_sent(t);
  EXPECT_FALSE(tcp.stall_suspected(t, 4));  // "over" is strict
  EXPECT_TRUE(tcp.stall_suspected(t, 3));
}

// The deque-based window TcpSegmentCounters replaced: every segment time
// inside the window is kept, and expiry pops both queues from the front.
class ReferenceTcpCounters {
 public:
  void on_segment_sent(SimTime now) {
    sent_.push_back(now);
    ++total_sent_;
    expire(now);
  }
  void on_segment_received(SimTime now) {
    received_.push_back(now);
    ++total_received_;
    expire(now);
  }
  bool stall_suspected(SimTime now, std::uint64_t sent_threshold) {
    expire(now);
    return sent_.size() > sent_threshold && received_.empty();
  }
  std::uint64_t total_sent() const { return total_sent_; }
  std::uint64_t total_received() const { return total_received_; }

 private:
  void expire(SimTime now) {
    const SimTime cutoff = now - TcpSegmentCounters::kWindow;
    while (!sent_.empty() && sent_.front() <= cutoff) sent_.pop_front();
    while (!received_.empty() && received_.front() <= cutoff) received_.pop_front();
  }

  std::deque<SimTime> sent_;
  std::deque<SimTime> received_;
  std::uint64_t total_sent_ = 0;
  std::uint64_t total_received_ = 0;
};

// Drives the window and the reference through one seeded sequence of sends,
// receives and queries at non-decreasing times. The steps include repeats of
// the same time, the 2.5 s traffic tick (24 of which land exactly on the
// 60 s cutoff), exactly 60 s, one microsecond either side of it, and gaps
// longer than the window.
TEST(TcpStats, MatchesDequeReferenceUnderRandomTraffic) {
  constexpr std::array<std::int64_t, 3> kCutoffStepsUs = {59'999'999, 60'000'000, 60'000'001};
  TcpSegmentCounters tcp;
  ReferenceTcpCounters ref;
  Rng rng(20210823);
  SimTime t = SimTime::origin();
  std::uint64_t suspected = 0;
  std::uint64_t queries = 0;
  for (int op = 0; op < 200'000; ++op) {
    const double step = rng.next_double();
    if (step < 0.4) {
      t += SimDuration::milliseconds(2'500);
    } else if (step < 0.5) {
      t += SimDuration::microseconds(rng.uniform_int(1, 5'000'000));
    } else if (step < 0.53) {
      t += SimDuration::microseconds(
          kCutoffStepsUs[static_cast<std::size_t>(rng.uniform_int(0, 2))]);
    } else if (step < 0.54) {
      t += SimDuration::microseconds(rng.uniform_int(60'000'001, 600'000'000));
    }  // otherwise the time repeats
    const double kind = rng.next_double();
    if (kind < 0.5) {
      tcp.on_segment_sent(t);
      ref.on_segment_sent(t);
    } else if (kind < 0.53) {
      tcp.on_segment_received(t);
      ref.on_segment_received(t);
    } else {
      const auto threshold = static_cast<std::uint64_t>(rng.uniform_int(0, 12));
      const bool want = ref.stall_suspected(t, threshold);
      ASSERT_EQ(tcp.stall_suspected(t, threshold), want) << "op " << op;
      suspected += want ? 1 : 0;
      ++queries;
    }
    ASSERT_EQ(tcp.total_sent(), ref.total_sent()) << "op " << op;
    ASSERT_EQ(tcp.total_received(), ref.total_received()) << "op " << op;
  }
  // Both answers must be common, or the comparison shows little.
  EXPECT_GT(suspected, queries / 10);
  EXPECT_LT(suspected, queries - queries / 10);
}

// --- Network stack probing semantics ---

TEST(NetworkStack, HealthyAnswersEverything) {
  NetworkStack stack(Rng{1});
  EXPECT_TRUE(stack.icmp_localhost(SimDuration::seconds(1)).answered);
  EXPECT_TRUE(stack.icmp_dns_server(0, SimDuration::seconds(1)).answered);
  EXPECT_TRUE(stack.dns_query(0, SimDuration::seconds(5)).answered);
}

TEST(NetworkStack, NetworkStallBlocksOutboundOnly) {
  NetworkStack stack(Rng{2});
  stack.inject_fault(NetworkFault::kNetworkStall);
  EXPECT_TRUE(stack.icmp_localhost(SimDuration::seconds(1)).answered);  // loopback unaffected
  EXPECT_FALSE(stack.icmp_dns_server(0, SimDuration::seconds(1)).answered);
  EXPECT_FALSE(stack.dns_query(0, SimDuration::seconds(5)).answered);
}

TEST(NetworkStack, SystemSideFaultsBlockLocalhost) {
  for (NetworkFault f : {NetworkFault::kFirewallMisconfig, NetworkFault::kProxyBroken,
                         NetworkFault::kModemDriverWedged}) {
    NetworkStack stack(Rng{3});
    stack.inject_fault(f);
    EXPECT_TRUE(is_system_side(f));
    EXPECT_FALSE(stack.icmp_localhost(SimDuration::seconds(1)).answered) << to_string(f);
  }
}

TEST(NetworkStack, DnsOutageKeepsIcmpWorking) {
  NetworkStack stack(Rng{4});
  stack.inject_fault(NetworkFault::kDnsOutage);
  EXPECT_FALSE(is_system_side(NetworkFault::kDnsOutage));
  EXPECT_TRUE(stack.icmp_dns_server(0, SimDuration::seconds(1)).answered);
  EXPECT_FALSE(stack.dns_query(0, SimDuration::seconds(5)).answered);
}

TEST(NetworkStack, TimeoutBoundsElapsedTime) {
  NetworkStack stack(Rng{5});
  stack.inject_fault(NetworkFault::kNetworkStall);
  const ProbeOutcome o = stack.dns_query(0, SimDuration::seconds(5));
  EXPECT_FALSE(o.answered);
  EXPECT_EQ(o.elapsed, SimDuration::seconds(5));
}

TEST(NetworkStack, LateAnswerIsATimeout) {
  NetworkStack stack(Rng{8});
  for (int i = 0; i < 100; ++i) {
    const ProbeOutcome o = stack.dns_query(0, SimDuration::milliseconds(60));
    EXPECT_EQ(o.answered, o.elapsed < SimDuration::milliseconds(60));
  }
}

TEST(NetworkStack, FaultRecoveryRestoresService) {
  NetworkStack stack(Rng{7});
  stack.inject_fault(NetworkFault::kNetworkStall);
  stack.inject_fault(NetworkFault::kNone);
  EXPECT_TRUE(stack.dns_query(0, SimDuration::seconds(5)).answered);
}

}  // namespace
}  // namespace cellrel

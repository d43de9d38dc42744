// Kernel-style TCP segment accounting.
//
// Android's Data_Stall detector is driven by the Linux kernel's per-window
// TCP statistics: "over 10 outbound TCP segments but not a single inbound
// TCP segment during the last minute" (§2.1). This class reproduces that
// accounting: callers report segment sends/receives with timestamps and the
// detector queries counts over a trailing window. Times passed to the
// counters (sends, receives and queries alike) must never decrease, so the
// window keeps the sends still inside it and only the latest receive.

#ifndef CELLREL_NET_TCP_STATS_H
#define CELLREL_NET_TCP_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_time.h"

namespace cellrel {

/// Sliding-window counters of TCP segments seen by the network stack.
class TcpSegmentCounters {
 public:
  /// How far back queries look: Android's one minute.
  static constexpr SimDuration kWindow = SimDuration::minutes(1);

  void on_segment_sent(SimTime now);
  void on_segment_received(SimTime now);

  /// Android's stall predicate: > `sent_threshold` outbound and zero inbound
  /// segments within (now - kWindow, now].
  bool stall_suspected(SimTime now, std::uint64_t sent_threshold = 10) const;

  std::uint64_t total_sent() const { return total_sent_; }
  std::uint64_t total_received() const { return total_received_; }

 private:
  void expire(SimTime now) const;

  // Send times; [sent_head_, end) are inside the window as of the last
  // expire(). The expired prefix is compacted away in on_segment_sent.
  mutable std::vector<SimTime> sent_;
  mutable std::size_t sent_head_ = 0;
  SimTime last_received_;
  bool received_any_ = false;
  std::uint64_t total_sent_ = 0;
  std::uint64_t total_received_ = 0;
};

}  // namespace cellrel

#endif  // CELLREL_NET_TCP_STATS_H

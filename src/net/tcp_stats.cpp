#include "net/tcp_stats.h"

namespace cellrel {

void TcpSegmentCounters::expire(SimTime now) const {
  const SimTime cutoff = now - kWindow;
  while (!sent_.empty() && sent_.front() <= cutoff) sent_.pop_front();
  while (!received_.empty() && received_.front() <= cutoff) received_.pop_front();
}

void TcpSegmentCounters::on_segment_sent(SimTime now) {
  sent_.push_back(now);
  ++total_sent_;
  expire(now);
}

void TcpSegmentCounters::on_segment_received(SimTime now) {
  received_.push_back(now);
  ++total_received_;
  expire(now);
}

bool TcpSegmentCounters::stall_suspected(SimTime now, std::uint64_t sent_threshold) const {
  expire(now);
  return sent_.size() > sent_threshold && received_.empty();
}

}  // namespace cellrel

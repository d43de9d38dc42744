#include "net/tcp_stats.h"

#include <iterator>

namespace cellrel {

void TcpSegmentCounters::expire(SimTime now) const {
  const SimTime cutoff = now - kWindow;
  while (sent_head_ < sent_.size() && sent_[sent_head_] <= cutoff) ++sent_head_;
}

void TcpSegmentCounters::on_segment_sent(SimTime now) {
  if (sent_head_ > sent_.size() / 2) {  // most of the buffer has expired
    sent_.erase(sent_.begin(),
                std::next(sent_.begin(), static_cast<std::ptrdiff_t>(sent_head_)));
    sent_head_ = 0;
  }
  sent_.push_back(now);
  ++total_sent_;
  expire(now);
}

void TcpSegmentCounters::on_segment_received(SimTime now) {
  last_received_ = now;
  received_any_ = true;
  ++total_received_;
}

bool TcpSegmentCounters::stall_suspected(SimTime now, std::uint64_t sent_threshold) const {
  expire(now);
  // Times never decrease, so a receive lies inside (now - kWindow, now]
  // exactly when the latest one does.
  const bool received_in_window = received_any_ && last_received_ > now - kWindow;
  return sent_.size() - sent_head_ > sent_threshold && !received_in_window;
}

}  // namespace cellrel

#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"

namespace cellrel {

ScheduledEvent Simulator::schedule_at(SimTime at, std::function<void()> fn) {
  if (at < now_) throw std::invalid_argument("Simulator: cannot schedule in the past");
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    CELLREL_CHECK(slots_.size() < UINT32_MAX) << "event slot pool exhausted";
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  s.cancelled = false;
  heap_.push_back(Entry{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return ScheduledEvent{this, slot, s.gen};
}

ScheduledEvent Simulator::schedule_after(SimDuration delay, std::function<void()> fn) {
  if (delay.is_negative()) throw std::invalid_argument("Simulator: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

Simulator::Entry Simulator::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

bool Simulator::fire(const Entry& e) {
  CELLREL_CHECK(e.slot < slots_.size() && slots_[e.slot].live)
      << "scheduled entry's slot is not live";
  CELLREL_CHECK(e.time >= now_) << "simulation clock would run backwards: event at "
                                << to_string(e.time) << ", clock at " << to_string(now_);
  // The popped entry must still be the (time, seq) minimum of what remains.
  CELLREL_DCHECK(heap_.empty() || heap_.front().time > e.time ||
                 (heap_.front().time == e.time && heap_.front().seq > e.seq))
      << "event heap order violated";
  now_ = e.time;
  // Release the slot before invoking: the callback may schedule events
  // (reallocating slots_) and must see its own handle as no longer pending.
  Slot& s = slots_[e.slot];
  const bool cancelled = s.cancelled;
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  s.live = false;
  ++s.gen;
  free_slots_.push_back(e.slot);
  if (cancelled) return false;
  fn();
  return true;
}

std::size_t Simulator::run() {
  std::size_t fired = 0;
  while (!heap_.empty()) {
    if (fire(pop())) ++fired;
  }
  return fired;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.front().time <= deadline) {
    if (fire(pop())) ++fired;
  }
  if (now_ < deadline) now_ = deadline;
  return fired;
}

bool Simulator::step() {
  while (!heap_.empty()) {
    if (fire(pop())) return true;
  }
  return false;
}

}  // namespace cellrel

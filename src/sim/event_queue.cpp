#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"

namespace cellrel {

void Simulator::throw_past() {
  throw std::invalid_argument("Simulator: cannot schedule in the past");
}

void Simulator::throw_negative_delay() {
  throw std::invalid_argument("Simulator: negative delay");
}

// Adds one chunk of slots. Every allocation the kernel makes happens here:
// the heap and the free list are reserved to at least the slot count, and
// neither can hold more entries than there are slots, so scheduling and
// firing never reallocate them.
void Simulator::grow() {
  const std::size_t base = chunks_.size() * kChunkSlots;
  CELLREL_CHECK(base + kChunkSlots <= UINT32_MAX) << "event slot pool exhausted";
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  // Geometric, so growing to n slots copies O(n) entries in all.
  const auto reserve_for = [slots = base + kChunkSlots](auto& v) {
    if (v.capacity() < slots) v.reserve(std::max(slots, 2 * v.capacity()));
  };
  reserve_for(heap_);
  reserve_for(free_slots_);
  // Reversed, so the lowest new index is handed out first.
  for (std::uint32_t i = kChunkSlots; i > 0; --i) {
    free_slots_.push_back(static_cast<std::uint32_t>(base + i - 1));
  }
}

ScheduledEvent Simulator::enqueue(SimTime at, std::uint32_t index) {
  free_slots_.pop_back();
  Slot& s = slot(index);
  s.live = true;
  s.cancelled = false;
  heap_.push_back(Entry{at, next_seq_++, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return ScheduledEvent{this, index, s.gen};
}

Simulator::Entry Simulator::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

bool Simulator::fire(const Entry& e) {
  CELLREL_CHECK(e.slot < chunks_.size() * kChunkSlots && slot(e.slot).live)
      << "scheduled entry's slot is not live";
  CELLREL_CHECK(e.time >= now_) << "simulation clock would run backwards: event at "
                                << to_string(e.time) << ", clock at " << to_string(now_);
  // The popped entry must still be the (time, seq) minimum of what remains.
  CELLREL_DCHECK(heap_.empty() || heap_.front().time > e.time ||
                 (heap_.front().time == e.time && heap_.front().seq > e.seq))
      << "event heap order violated";
  now_ = e.time;
  // The handle reads "not pending" inside its own callback. The callback
  // runs in its slot (chunks never move, and the slot is not free until it
  // returns); then, even if it throws, the callable is destroyed and the
  // slot freed.
  Slot& s = slot(e.slot);
  const bool cancelled = s.cancelled;
  s.live = false;
  ++s.gen;
  struct Release {
    Simulator& sim;
    Slot& s;
    std::uint32_t index;
    ~Release() {
      s.fn.reset();
      sim.free_slots_.push_back(index);  // reserved in grow(): cannot throw
    }
  } release{*this, s, e.slot};
  if (cancelled) return false;
  s.fn();
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

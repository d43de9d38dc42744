// Discrete-event simulation engine.
//
// A Simulator owns a priority queue of timestamped events. Components
// schedule callbacks at absolute times or after delays and receive a
// ScheduledEvent handle that can cancel the callback (e.g. a Data_Stall
// recovery probation that is aborted because the stall resolved on its own).
// Ties are broken by insertion order so runs are fully deterministic.
//
// Storage is a slot pool: callbacks live in a vector of reusable slots and
// the heap orders small (time, seq, slot) entries. Every slot carries a
// generation that is bumped when its event fires or is dropped, so a handle
// whose slot has since been reused for another event sees a mismatch and
// touches nothing.

#ifndef CELLREL_SIM_EVENT_QUEUE_H
#define CELLREL_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_time.h"

namespace cellrel {

class Simulator;

/// A cancellable handle to a scheduled callback. Copies share the same
/// underlying event; cancelling any copy cancels the event. A handle refers
/// to its Simulator by address, so it must not be used (cancel() or
/// pending()) after that Simulator is destroyed.
class ScheduledEvent {
 public:
  ScheduledEvent() = default;

  /// Prevents the callback from running; a no-op if it already ran.
  void cancel();

  /// True if the callback has neither run nor been cancelled. False inside
  /// the event's own callback.
  bool pending() const;

 private:
  friend class Simulator;
  ScheduledEvent(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}
  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The simulation clock and event dispatcher.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now).
  ScheduledEvent schedule_at(SimTime at, std::function<void()> fn);

  /// Schedules `fn` to run after `delay` (>= 0).
  ScheduledEvent schedule_after(SimDuration delay, std::function<void()> fn);

  /// Runs events until the queue drains. Returns the number of events fired.
  std::size_t run();

  /// Runs events with time <= deadline; the clock ends at `deadline` even if
  /// the queue drained earlier. Returns the number of events fired.
  std::size_t run_until(SimTime deadline);

  /// Fires at most one event. Returns false if the queue is empty.
  bool step();

  /// Queued entries, cancelled ones included until their time is reached.
  std::size_t pending_events() const { return heap_.size(); }

 private:
  friend class ScheduledEvent;

  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 0;
    bool live = false;
    bool cancelled = false;
  };

  bool is_pending(std::uint32_t slot, std::uint32_t gen) const {
    const Slot& s = slots_[slot];
    return s.gen == gen && s.live && !s.cancelled;
  }
  Entry pop();
  bool fire(const Entry& e);

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;  // min-heap on (time, seq) under Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

inline void ScheduledEvent::cancel() {
  if (sim_ && sim_->is_pending(slot_, gen_)) sim_->slots_[slot_].cancelled = true;
}

inline bool ScheduledEvent::pending() const {
  return sim_ && sim_->is_pending(slot_, gen_);
}

}  // namespace cellrel

#endif  // CELLREL_SIM_EVENT_QUEUE_H

// Discrete-event simulation engine.
//
// A Simulator owns a priority queue of timestamped events. Components
// schedule callbacks at absolute times or after delays and receive a
// ScheduledEvent handle that can cancel the callback (e.g. a Data_Stall
// recovery probation that is aborted because the stall resolved on its own).
// Ties are broken by insertion order so runs are fully deterministic.
//
// Storage is a slot pool in fixed chunks of 32 slots, so a slot's address
// never moves: each callback is constructed in its slot (captures of at most
// 56 bytes, checked at compile time; nothing is heap-allocated per event),
// runs there, and is destroyed there before the slot is reused. The heap
// orders small (time, seq, slot) entries. Every slot carries a generation
// that is bumped when its event fires or is dropped, so a handle whose slot
// has since been reused for another event sees a mismatch and touches
// nothing.

#ifndef CELLREL_SIM_EVENT_QUEUE_H
#define CELLREL_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
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

/// A `void()` callable stored in place: a fixed buffer plus an invoke and a
/// destroy pointer (the latter null for trivially destructible callables).
/// Not movable, so a callable never leaves the buffer it was built in.
class EventFn {
 public:
  static constexpr std::size_t kCapacity = 56;

  EventFn() = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Constructs `fn` in the buffer. The buffer must be empty.
  template <class F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity, "event capture exceeds EventFn::kCapacity");
    static_assert(alignof(Fn) <= alignof(void*), "event capture is over-aligned");
    std::construct_at(static_cast<Fn*>(static_cast<void*>(buf_)), std::forward<F>(fn));
    invoke_ = &invoke_as<Fn>;
    destroy_ = std::is_trivially_destructible_v<Fn> ? nullptr : &destroy_as<Fn>;
  }

  void operator()() { invoke_(buf_); }

  /// Destroys the held callable, if any.
  void reset() {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  template <class Fn>
  static void invoke_as(void* p) {
    (*std::launder(static_cast<Fn*>(p)))();
  }
  template <class Fn>
  static void destroy_as(void* p) {
    std::destroy_at(std::launder(static_cast<Fn*>(p)));
  }

  alignas(void*) std::byte buf_[kCapacity];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// The simulation clock and event dispatcher.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now).
  template <class F>
  ScheduledEvent schedule_at(SimTime at, F&& fn) {
    if (at < now_) throw_past();
    if (free_slots_.empty()) grow();
    const std::uint32_t index = free_slots_.back();
    slot(index).fn.emplace(std::forward<F>(fn));
    return enqueue(at, index);
  }

  /// Schedules `fn` to run after `delay` (>= 0).
  template <class F>
  ScheduledEvent schedule_after(SimDuration delay, F&& fn) {
    if (delay.is_negative()) throw_negative_delay();
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

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

  static constexpr std::uint32_t kChunkSlots = 32;

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
    EventFn fn;
    std::uint32_t gen = 0;
    bool live = false;
    bool cancelled = false;
  };

  Slot& slot(std::uint32_t index) { return chunks_[index / kChunkSlots][index % kChunkSlots]; }
  const Slot& slot(std::uint32_t index) const {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }
  bool is_pending(std::uint32_t index, std::uint32_t gen) const {
    const Slot& s = slot(index);
    return s.gen == gen && s.live && !s.cancelled;
  }
  [[noreturn]] static void throw_past();
  [[noreturn]] static void throw_negative_delay();
  void grow();
  ScheduledEvent enqueue(SimTime at, std::uint32_t index);
  Entry pop();
  bool fire(const Entry& e);

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;  // min-heap on (time, seq) under Later
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
};

inline void ScheduledEvent::cancel() {
  if (sim_ && sim_->is_pending(slot_, gen_)) sim_->slot(slot_).cancelled = true;
}

inline bool ScheduledEvent::pending() const {
  return sim_ && sim_->is_pending(slot_, gen_);
}

}  // namespace cellrel

#endif  // CELLREL_SIM_EVENT_QUEUE_H

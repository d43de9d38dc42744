#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace cellrel {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::from_seconds(3.0), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::from_seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::from_seconds(2.0), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::from_seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_after(SimDuration::seconds(5.0), [&] {
    sim.schedule_after(SimDuration::seconds(2.0),
                       [&] { fired_at = sim.now().to_seconds(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(SimTime::from_seconds(10.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::from_seconds(5.0), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(SimDuration::seconds(-1.0), [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent e = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  EXPECT_TRUE(e.pending());
  e.cancel();
  EXPECT_FALSE(e.pending());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
  // Popping a cancelled entry still advances the clock to its time.
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 1.0);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent e = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.pending());
  e.cancel();  // must not crash or double-count
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(SimTime::from_seconds(t), [&fired, t] { fired.push_back(t); });
  }
  EXPECT_EQ(sim.run_until(SimTime::from_seconds(2.5)), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 2.5);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.run_until(SimTime::from_seconds(10.0)), 2u);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 10.0);
}

TEST(Simulator, RunUntilInclusiveOfDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::from_seconds(2.0), [&] { ++fired; });
  sim.run_until(SimTime::from_seconds(2.0));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  sim.schedule_after(SimDuration::seconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StepSkipsCancelled) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent a = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  sim.schedule_after(SimDuration::seconds(2.0), [&] { fired += 10; });
  a.cancel();
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, EventsScheduledDuringRunAreProcessed) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(SimDuration::seconds(1.0), recurse);
  };
  sim.schedule_after(SimDuration::seconds(1.0), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 5.0);
}

TEST(Simulator, CancellationFromInsideEvent) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent later;
  sim.schedule_after(SimDuration::seconds(1.0), [&] { later.cancel(); });
  later = sim.schedule_after(SimDuration::seconds(2.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, StaleHandleDoesNotTouchReusedSlot) {
  Simulator sim;
  int a_fired = 0;
  int b_fired = 0;
  ScheduledEvent a = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++a_fired; });
  EXPECT_TRUE(sim.step());
  // The queue is empty, so B takes the slot A just freed.
  ScheduledEvent b = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++b_fired; });
  EXPECT_FALSE(a.pending());
  a.cancel();
  EXPECT_TRUE(b.pending());
  EXPECT_FALSE(a.pending());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(b_fired, 1);
}

TEST(Simulator, HandleCopiesShareCancellation) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent original = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  ScheduledEvent copy = original;
  EXPECT_TRUE(copy.pending());
  copy.cancel();
  EXPECT_FALSE(original.pending());
  EXPECT_FALSE(copy.pending());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, HandleIsNotPendingInsideItsOwnCallback) {
  Simulator sim;
  ScheduledEvent self;
  std::optional<bool> pending_inside;
  self = sim.schedule_after(SimDuration::seconds(1.0), [&] {
    pending_inside = self.pending();
    self.cancel();  // a no-op on a running event
  });
  EXPECT_EQ(sim.run(), 1u);
  ASSERT_TRUE(pending_inside.has_value());
  EXPECT_FALSE(*pending_inside);
  EXPECT_FALSE(self.pending());
}

TEST(Simulator, CallbackCancelsLaterEventAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  ScheduledEvent second;
  sim.schedule_at(SimTime::from_seconds(1.0), [&] {
    order.push_back(1);
    second.cancel();
  });
  second = sim.schedule_at(SimTime::from_seconds(1.0), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::from_seconds(1.0), [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_FALSE(second.pending());
}

// --- Callback lifetime: captures live in their slot, built and destroyed
// in place. A shared_ptr's use count shows each capture destroyed exactly
// once: a second destruction would drop it to 0 and free the int.

TEST(SimulatorLifetime, CaptureDestroyedOnceWhenFired) {
  auto token = std::make_shared<int>(0);
  Simulator sim;
  sim.schedule_after(SimDuration::seconds(1.0), [t = token] { ++*t; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorLifetime, CaptureDestroyedOnceWhenCancelled) {
  auto token = std::make_shared<int>(0);
  Simulator sim;
  ScheduledEvent e = sim.schedule_after(SimDuration::seconds(1.0), [t = token] { ++*t; });
  e.cancel();
  // A cancelled callable is released when its entry is popped.
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(*token, 0);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorLifetime, CaptureDestroyedOnceWhenSimulatorDiesWithItPending) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.schedule_after(SimDuration::seconds(1.0), [t = token] { ++*t; });
    sim.schedule_after(SimDuration::seconds(2.0), [t = token] { ++*t; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorLifetime, MutableAndMoveOnlyCaptures) {
  Simulator sim;
  int calls_seen = 0;
  auto counter = [n = 0, &calls_seen]() mutable { calls_seen = ++n; };
  std::unique_ptr<int> taken;
  sim.schedule_after(SimDuration::seconds(1.0), counter);
  sim.schedule_after(SimDuration::seconds(2.0), [p = std::make_unique<int>(42), &taken]() mutable {
    taken = std::move(p);
  });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(calls_seen, 1);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(*taken, 42);
}

TEST(SimulatorLifetime, CallbackReadsItsCapturesAfterSchedulingNewChunks) {
  Simulator sim;
  std::vector<std::int64_t> seen;
  const std::array<std::int64_t, 5> payload = {3, 1, 4, 1, 5};
  // 8 + 8 + 40 bytes: the largest capture the kernel accepts.
  auto spawner = [&sim, &seen, payload] {
    for (std::int64_t i = 0; i < 100; ++i) {
      sim.schedule_after(SimDuration::seconds(1.0), [&seen, i] { seen.push_back(i); });
    }
    std::int64_t sum = 0;
    for (const std::int64_t v : payload) sum += v;
    seen.push_back(sum);
  };
  static_assert(sizeof(spawner) == EventFn::kCapacity);
  sim.schedule_after(SimDuration::seconds(1.0), spawner);
  EXPECT_TRUE(sim.step());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 14);
  EXPECT_EQ(sim.pending_events(), 100u);
  EXPECT_EQ(sim.run(), 100u);
  ASSERT_EQ(seen.size(), 101u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::int64_t>(i) - 1);
  }
}

TEST(SimulatorLifetime, ThrowingCallbackReleasesItsSlot) {
  auto token = std::make_shared<int>(0);
  Simulator sim;
  ScheduledEvent thrower = sim.schedule_after(SimDuration::seconds(1.0), [t = token] {
    ++*t;
    throw std::runtime_error("callback failed");
  });
  int later_fired = 0;
  sim.schedule_after(SimDuration::seconds(2.0), [&] { ++later_fired; });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 1.0);
  EXPECT_FALSE(thrower.pending());
  // The free list is LIFO, so this takes the thrower's slot; the stale
  // handle must not reach the new event.
  int reused_fired = 0;
  ScheduledEvent reused = sim.schedule_after(SimDuration::seconds(0.5), [&] { ++reused_fired; });
  EXPECT_EQ(sim.pending_events(), 2u);
  thrower.cancel();
  EXPECT_TRUE(reused.pending());
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(reused_fired, 1);
  EXPECT_EQ(later_fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Drives the Simulator and a naive ordered-multimap model of it through the
// same random mix of schedule / cancel / step calls. Callbacks themselves
// schedule and cancel, so slots are reused and reallocated mid-callback.
// Fire order, the clock and the queue length must match after every step.
TEST(Simulator, MatchesReferenceModelUnderRandomOperations) {
  enum class State { kQueued, kCancelled, kGone };
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (time in us, seq)
  std::multimap<Key, std::size_t> model;
  std::vector<State> state;  // per event id
  std::uint64_t model_seq = 0;
  std::int64_t model_now_us = 0;

  Simulator sim;
  std::vector<ScheduledEvent> handles;  // per event id
  std::vector<std::size_t> fired;
  Rng rng(20211015);

  auto cancel_both = [&](std::size_t id) {
    handles[id].cancel();
    if (state[id] == State::kQueued) state[id] = State::kCancelled;
  };
  std::function<void(std::int64_t)> schedule_both = [&](std::int64_t delay_s) {
    const std::size_t id = handles.size();
    // Decide now what the callback will do when it fires.
    const bool spawns = rng.bernoulli(0.3);
    const std::int64_t spawn_delay_s = rng.uniform_int(0, 5);
    const bool cancels = id > 0 && rng.bernoulli(0.2);
    const auto target =
        cancels ? static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(id) - 1))
                : id;
    auto callback = [&, id, spawns, spawn_delay_s, target] {
      fired.push_back(id);
      if (spawns) schedule_both(spawn_delay_s);
      if (target != id) cancel_both(target);
    };
    handles.push_back(
        sim.schedule_after(SimDuration::seconds(static_cast<double>(delay_s)), callback));
    state.push_back(State::kQueued);
    model.emplace(Key{model_now_us + delay_s * 1'000'000, model_seq++}, id);
  };
  auto model_step = [&]() -> std::optional<std::size_t> {
    while (!model.empty()) {
      const auto it = model.begin();
      model_now_us = it->first.first;
      const std::size_t id = it->second;
      model.erase(it);
      const bool was_cancelled = state[id] == State::kCancelled;
      state[id] = State::kGone;
      if (!was_cancelled) return id;
    }
    return std::nullopt;
  };

  std::size_t steps_that_fired = 0;
  for (int op = 0; op < 10'000; ++op) {
    const double pick = rng.next_double();
    if (pick < 0.45) {
      schedule_both(rng.uniform_int(0, 20));
    } else if (pick < 0.65) {
      if (!handles.empty()) {
        cancel_both(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1)));
      }
    } else {
      // The model pops first: the callback schedules into the model too, and
      // must see the model clock at the fired event's time.
      const std::optional<std::size_t> want = model_step();
      const std::size_t fired_before = fired.size();
      ASSERT_EQ(sim.step(), want.has_value()) << "op " << op;
      if (want) {
        ASSERT_EQ(fired.size(), fired_before + 1) << "op " << op;
        ASSERT_EQ(fired[fired_before], *want) << "op " << op;
        ++steps_that_fired;
      }
    }
    ASSERT_EQ(sim.now().since_origin().count_us(), model_now_us) << "op " << op;
    ASSERT_EQ(sim.pending_events(), model.size()) << "op " << op;
    if (!handles.empty()) {
      const auto id = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
      ASSERT_EQ(handles[id].pending(), state[id] == State::kQueued) << "op " << op;
    }
  }
  // The mix must actually exercise firing, cancellation and slot reuse.
  EXPECT_GT(steps_that_fired, 1000u);
  EXPECT_GT(handles.size(), 4000u);
}

}  // namespace
}  // namespace cellrel

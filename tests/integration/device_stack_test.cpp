// Pins the order in which the device stack's state machines fire their
// events. Every simulator step is logged as (fire time, handler, outcome),
// the outcome being the state the handler left behind, and the log folds
// into one FNV-1a digest. However replies travel back to the state machine
// that waits for them, the digest holds only if the same events fire at the
// same instants in the same order.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/prober.h"
#include "telephony/telephony_manager.h"

namespace cellrel {
namespace {

template <class... Fields>
std::string join(const Fields&... fields) {
  std::ostringstream line;
  ((line << fields << ' '), ...);
  return line.str();
}

template <class... Fields>
void add(std::string& log, const Fields&... fields) {
  log += join(fields...) + '\n';
}

/// Fires events one at a time until `done()` holds, the queue drains or
/// `max_steps` have fired, logging each under `handler` with `outcome()`.
template <class Done, class Outcome>
void drive(Simulator& sim, std::string& log, const char* handler, const Done& done,
           const Outcome& outcome, int max_steps) {
  for (int i = 0; i < max_steps && !done() && sim.step(); ++i) {
    add(log, sim.now().since_origin().count_us(), handler, outcome());
  }
}

/// A fresh device stack that logs every failure event it raises.
struct Stack final : FailureEventListener {
  Stack(std::string& l, std::uint64_t seed) : log(l), tm(sim, Rng{seed}, metrics, {}) {
    tm.register_failure_listener(this);
  }
  void on_failure_event(const FailureEvent& e) override {
    add(log, e.at.since_origin().count_us(), "event", to_string(e.type),
        static_cast<int>(e.cause), static_cast<int>(e.ground_truth_fp));
  }
  // Clears are not logged: each step's outcome already shows the state the
  // clear reports.
  void on_failure_cleared(FailureType, SimTime) override {}
  std::string& log;
  Simulator sim;
  obs::MetricSink metrics;
  TelephonyManager tm;
};

/// One prober episode on the stack's network, whose fault heals at stall age
/// `clear_at`. The episode runs until it ends, then the queue drains.
void probe_episode(std::string& log, NetworkFault fault, double clear_at) {
  Stack s(log, 41);
  NetworkStack& stack = s.tm.network();
  stack.inject_fault(fault);
  NetworkStateProber prober(s.sim, stack);
  s.sim.schedule_after(SimDuration::seconds(clear_at), [&] {
    stack.inject_fault(NetworkFault::kNone);
    add(log, s.sim.now().since_origin().count_us(), "fault cleared");
  });
  prober.start(s.sim.now(), [&](const NetworkStateProber::Report& r) {
    add(log, s.sim.now().since_origin().count_us(), "prober.done",
        static_cast<int>(r.result), r.measured_duration.count_us(), r.rounds,
        r.reverted_to_fallback);
  });
  const auto outcome = [&] {
    return join(prober.active(), s.sim.pending_events());
  };
  drive(s.sim, log, "prober", [&] { return !prober.active(); }, outcome, 100'000);
  EXPECT_FALSE(prober.active());
  drive(s.sim, log, "drain", [] { return false; }, outcome, 100'000);
  EXPECT_EQ(s.sim.pending_events(), 0u);
}

TEST(DeviceStack, EventOrderPinned) {
  std::string log;
  // The prober over every fault, each healing at 40 s: a stall is measured
  // round by round, the others end in their first round.
  for (const NetworkFault f : kAllNetworkFaults) probe_episode(log, f, 40.0);
  // A stall that outlives the 1,200 s back-off and reverts to fixed-interval
  // detection before it clears.
  probe_episode(log, NetworkFault::kNetworkStall, 1'500.0);

  // DcTracker: a retry ladder on a failing channel, then a healthy one, then
  // a teardown while a setup reply is in flight.
  {
    Stack s(log, 42);
    DcTracker& dct = s.tm.dc_tracker();
    const auto outcome = [&] {
      return join(to_string(dct.connection().state()), dct.setup_failures(),
                  s.metrics.sim_timers().at("ril.setup_data_call.latency").count);
    };
    ChannelConditions channel;
    channel.base_failure_prob = 1.0;
    s.tm.ril().update_channel(channel);
    dct.request_data();
    drive(s.sim, log, "dc_tracker", [&] { return dct.setup_failures() >= 7; }, outcome, 1'000);
    channel.base_failure_prob = 0.0;
    channel.level = SignalLevel::kLevel4;
    s.tm.ril().update_channel(channel);
    drive(s.sim, log, "dc_tracker", [&] { return dct.connection().is_active(); }, outcome, 1'000);
    EXPECT_TRUE(dct.connection().is_active());
    dct.teardown();
    add(log, s.sim.now().since_origin().count_us(), "teardown", outcome());
    dct.request_data();
    EXPECT_EQ(dct.connection().state(), DcState::kActivating);
    dct.teardown(/*user_initiated=*/true);
    add(log, s.sim.now().since_origin().count_us(), "teardown", outcome());
    drive(s.sim, log, "drain", [] { return false; }, outcome, 1'000);
    EXPECT_EQ(dct.connection().state(), DcState::kInactive);
    EXPECT_EQ(s.sim.pending_events(), 0u);
  }

  // SMS: a burst of sends on a level-0 channel, most of them retried.
  {
    Stack s(log, 43);
    ChannelConditions weak;
    weak.level = SignalLevel::kLevel0;
    s.tm.ril().update_channel(weak);
    SmsService& sms = s.tm.sms();
    for (int i = 0; i < 30; ++i) sms.send();
    const auto outcome = [&] { return join(sms.messages_sent(), sms.messages_failed()); };
    drive(s.sim, log, "sms", [] { return false; }, outcome, 1'000);
    EXPECT_EQ(sms.messages_sent() + sms.messages_failed(), 30u);
  }

  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : log) digest = (digest ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  EXPECT_EQ(digest, 0xbd37a0f3966b82d4ULL) << log.size() << " bytes";
}

}  // namespace
}  // namespace cellrel

// Property-style sweeps across the stack: parameterized invariants that
// hold for whole input families rather than single examples.

#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "core/android_mod.h"
#include "core/monitor_service.h"
#include "core/prober.h"
#include "radio/modem.h"
#include "telephony/recovery.h"
#include "telephony/telephony_manager.h"

namespace cellrel {
namespace {

// ---------------------------------------------------------------------------
// Modem: the realized setup-failure rate tracks base_failure_prob across the
// whole (probability x level) grid.
// ---------------------------------------------------------------------------
class ModemFailureRateTest
    : public ::testing::TestWithParam<std::tuple<double, SignalLevel>> {};

TEST_P(ModemFailureRateTest, RealizedRateMatchesRequested) {
  const auto [prob, level] = GetParam();
  ModemSimulator modem{Rng{321}};
  ChannelConditions cond;
  cond.level = level;
  cond.base_failure_prob = prob;
  int failures = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (!modem.setup_data_call(cond).success) ++failures;
  }
  EXPECT_NEAR(failures / static_cast<double>(n), prob, 0.015)
      << "p=" << prob << " level=" << index_of(level);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModemFailureRateTest,
    ::testing::Combine(::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0),
                       ::testing::Values(SignalLevel::kLevel1, SignalLevel::kLevel3,
                                         SignalLevel::kLevel5)));

// ---------------------------------------------------------------------------
// Prober: every fault kind classifies correctly, whatever the RTT draws.
// ---------------------------------------------------------------------------
struct ProberCase {
  NetworkFault fault;
  ProbeEpisodeResult expected;
};

class ProberClassificationTest
    : public ::testing::TestWithParam<std::tuple<ProberCase, int>> {};

TEST_P(ProberClassificationTest, ClassifiesFault) {
  const auto [c, seed] = GetParam();
  Simulator sim;
  NetworkStack stack(Rng{static_cast<std::uint64_t>(seed)});
  stack.inject_fault(c.fault);
  if (c.fault == NetworkFault::kNetworkStall) {
    // True stalls must eventually heal for the prober to terminate.
    sim.schedule_after(SimDuration::seconds(33.0),
                       [&] { stack.inject_fault(NetworkFault::kNone); });
  }
  NetworkStateProber prober(sim, stack);
  std::optional<NetworkStateProber::Report> report;
  prober.start(SimTime::origin(),
               [&](const NetworkStateProber::Report& r) { report = r; });
  sim.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->result, c.expected) << to_string(c.fault);
  // Anything but a true stall is classified in the first round.
  if (c.fault != NetworkFault::kNetworkStall) {
    EXPECT_EQ(report->rounds, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultsXSeeds, ProberClassificationTest,
    ::testing::Combine(
        ::testing::Values(
            ProberCase{NetworkFault::kNone, ProbeEpisodeResult::kNetworkStallResolved},
            ProberCase{NetworkFault::kNetworkStall,
                       ProbeEpisodeResult::kNetworkStallResolved},
            ProberCase{NetworkFault::kFirewallMisconfig,
                       ProbeEpisodeResult::kSystemSideFalsePositive},
            ProberCase{NetworkFault::kProxyBroken,
                       ProbeEpisodeResult::kSystemSideFalsePositive},
            ProberCase{NetworkFault::kModemDriverWedged,
                       ProbeEpisodeResult::kSystemSideFalsePositive},
            ProberCase{NetworkFault::kDnsOutage,
                       ProbeEpisodeResult::kDnsOnlyFalsePositive}),
        ::testing::Values(5, 6, 7)));

// ---------------------------------------------------------------------------
// Prober: flipping inject_fault() mid-episode — the scenario pack's
// fault-schedule move — never strands the state machine. For every ordered
// (from, to) pair over the full NetworkFault domain the episode completes
// with one of the three classifiable outcomes.
// ---------------------------------------------------------------------------
class ProberFaultTransitionTest
    : public ::testing::TestWithParam<std::tuple<NetworkFault, NetworkFault>> {};

TEST_P(ProberFaultTransitionTest, MidEpisodeInjectionAlwaysClassifiable) {
  const auto [from, to] = GetParam();
  Simulator sim;
  NetworkStack stack(Rng{9});
  stack.inject_fault(from);
  NetworkStateProber prober(sim, stack);
  std::optional<NetworkStateProber::Report> report;
  prober.start(SimTime::origin(),
               [&](const NetworkStateProber::Report& r) { report = r; });
  // Flip mid-round (inside the first round's DNS window), then heal so a
  // surviving true stall can terminate.
  sim.schedule_after(SimDuration::seconds(2.5), [&, to = to] { stack.inject_fault(to); });
  sim.schedule_after(SimDuration::seconds(40.0),
                     [&] { stack.inject_fault(NetworkFault::kNone); });
  sim.run();
  ASSERT_TRUE(report.has_value())
      << to_string(from) << " -> " << to_string(to) << ": episode never completed";
  EXPECT_GE(report->rounds, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultPairs, ProberFaultTransitionTest,
    ::testing::Combine(::testing::ValuesIn(kAllNetworkFaults),
                       ::testing::ValuesIn(kAllNetworkFaults)));

// ---------------------------------------------------------------------------
// Prober: across outage lengths, the measured duration error never exceeds
// one probing round (5 s) while in ladder mode.
// ---------------------------------------------------------------------------
class ProberAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(ProberAccuracyTest, ErrorBoundedByOneRound) {
  const double outage_s = GetParam();
  Simulator sim;
  NetworkStack stack(Rng{6});
  stack.inject_fault(NetworkFault::kNetworkStall);
  sim.schedule_after(SimDuration::seconds(outage_s),
                     [&] { stack.inject_fault(NetworkFault::kNone); });
  NetworkStateProber prober(sim, stack);
  std::optional<NetworkStateProber::Report> report;
  prober.start(SimTime::origin(),
               [&](const NetworkStateProber::Report& r) { report = r; });
  sim.run();
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->reverted_to_fallback);
  const double measured = report->measured_duration.to_seconds();
  EXPECT_GE(measured, outage_s);
  EXPECT_LE(measured, outage_s + 5.2) << "outage " << outage_s;
}

INSTANTIATE_TEST_SUITE_P(Outages, ProberAccuracyTest,
                         ::testing::Values(2.0, 13.0, 47.0, 123.0, 600.0, 1100.0));

// ---------------------------------------------------------------------------
// Recovery: with a never-healing stall, every stage executes exactly at its
// cumulative probation time — for any schedule.
// ---------------------------------------------------------------------------
class RecoveryScheduleTest
    : public ::testing::TestWithParam<std::array<double, 3>> {};

TEST_P(RecoveryScheduleTest, StageTimesEqualCumulativeProbations) {
  const auto pro = GetParam();
  Simulator sim;
  obs::MetricSink metrics;
  std::vector<double> stage_times;
  NetworkStack stack(Rng{1});
  stack.inject_fault(NetworkFault::kNetworkStall);  // never auto-recovers
  DataStallRecoverer recoverer(
      sim, stack, metrics, make_probation_schedule(pro[0], pro[1], pro[2], "sweep"),
      DataStallRecoverer::Hooks{[&](RecoveryStage) {
                                  stage_times.push_back(sim.now().to_seconds());
                                  return false;  // never fixes
                                },
                                nullptr});
  recoverer.on_stall_detected();
  sim.run();
  // Every cycle repeats the three probations until the cycle cap.
  ASSERT_EQ(stage_times.size(), 3u * kMaxRecoveryCycles);
  const double cycle = pro[0] + pro[1] + pro[2];
  for (std::size_t c = 0; c < kMaxRecoveryCycles; c += 33) {
    const double start = static_cast<double>(c) * cycle;
    EXPECT_NEAR(stage_times[3 * c], start + pro[0], 1e-6) << "cycle " << c;
    EXPECT_NEAR(stage_times[3 * c + 1], start + pro[0] + pro[1], 1e-6) << "cycle " << c;
    EXPECT_NEAR(stage_times[3 * c + 2], start + cycle, 1e-6) << "cycle " << c;
  }
  EXPECT_DOUBLE_EQ(stage_times[0], pro[0]);
  EXPECT_DOUBLE_EQ(stage_times[1], pro[0] + pro[1]);
  EXPECT_DOUBLE_EQ(stage_times[2], pro[0] + pro[1] + pro[2]);
}

INSTANTIATE_TEST_SUITE_P(Schedules, RecoveryScheduleTest,
                         ::testing::Values(std::array<double, 3>{60, 60, 60},
                                           std::array<double, 3>{21, 6, 16},
                                           std::array<double, 3>{1, 1, 1},
                                           std::array<double, 3>{5, 45, 10}));

// ---------------------------------------------------------------------------
// Monitor: end-to-end stall measurement stays within the probing error
// bound across outage durations, through the full device stack.
// ---------------------------------------------------------------------------
class MonitorAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(MonitorAccuracyTest, MeasuredWithinProbeError) {
  const double outage_s = GetParam();
  Simulator sim;
  obs::MetricSink metrics;
  std::vector<TraceRecord> uploaded;
  AndroidMod::Config config;
  config.identity = {5, 10, IspId::kIspA};
  AndroidMod mod(sim, Rng{77}, metrics, std::move(config), [&](std::span<TraceRecord> batch) {
    for (auto& r : batch) uploaded.push_back(std::move(r));
  });
  // No recovery stage operation is supplied, so no stage fixes the stall and
  // only the outage length determines the duration.
  auto& tm = mod.telephony();
  ChannelConditions healthy;
  healthy.level = SignalLevel::kLevel4;
  tm.ril().update_channel(healthy);
  tm.set_cell_context({1, Rat::k4G, SignalLevel::kLevel4});
  tm.dc_tracker().request_data();
  sim.run_until(SimTime::origin() + SimDuration::seconds(5.0));
  tm.stall_detector().start();

  const double horizon = 120.0 + outage_s * 2.0;
  for (double t = 5.0; t < horizon; t += 2.0) {
    sim.schedule_at(SimTime::origin() + SimDuration::seconds(t), [&] {
      tm.tcp().on_segment_sent(sim.now());
      if (tm.network().fault() == NetworkFault::kNone) {
        tm.tcp().on_segment_received(sim.now());
      }
    });
  }
  sim.schedule_at(SimTime::origin() + SimDuration::seconds(20.0), [&] {
    tm.network().inject_fault(NetworkFault::kNetworkStall);
  });
  sim.schedule_at(SimTime::origin() + SimDuration::seconds(20.0 + outage_s), [&] {
    tm.network().inject_fault(NetworkFault::kNone);
  });
  sim.run_until(SimTime::origin() + SimDuration::seconds(horizon));
  mod.shutdown();
  sim.run();

  const TraceRecord* stall = nullptr;
  std::uint64_t probe_rounds = 0;
  for (const auto& r : uploaded) {
    if (r.type == FailureType::kDataStall) stall = &r;
    probe_rounds += r.probe_rounds;
  }
  ASSERT_NE(stall, nullptr) << "outage " << outage_s;
  // Each round pings localhost and pings and queries every DNS server, and
  // only those probes ride the cellular link.
  EXPECT_GT(probe_rounds, 0u);
  EXPECT_EQ(mod.monitor().overhead().cellular_bytes(),
            probe_rounds * kProbeRoundBytes);
  // Detection eats the 60 s TCP window; the probing then measures the
  // remaining outage within one round.
  const double measured = stall->duration.to_seconds();
  const double remaining = outage_s - 60.0;
  EXPECT_GE(measured, std::max(0.0, remaining) - 12.5) << "outage " << outage_s;
  EXPECT_LE(measured, std::max(0.0, remaining) + 17.5) << "outage " << outage_s;
}

INSTANTIATE_TEST_SUITE_P(Outages, MonitorAccuracyTest,
                         ::testing::Values(90.0, 150.0, 300.0, 700.0));

// ---------------------------------------------------------------------------
// DcTracker: the retry backoff is non-decreasing and capped.
// ---------------------------------------------------------------------------
TEST(DcTrackerProperty, BackoffMonotoneAndCapped) {
  Simulator sim;
  obs::MetricSink metrics;
  FailureEventBus bus;
  RadioInterfaceLayer ril(Rng{9}, metrics);
  ChannelConditions failing;
  failing.level = SignalLevel::kLevel3;
  failing.base_failure_prob = 1.0;
  ril.update_channel(failing);

  std::vector<double> failure_times;
  class Recorder final : public FailureEventListener {
   public:
    explicit Recorder(Simulator& sim, std::vector<double>& times)
        : sim_(sim), times_(times) {}
    void on_failure_event(const FailureEvent& e) override {
      if (e.type == FailureType::kDataSetupError) times_.push_back(sim_.now().to_seconds());
    }
    void on_failure_cleared(FailureType, SimTime) override {}

   private:
    Simulator& sim_;
    std::vector<double>& times_;
  } recorder{sim, failure_times};

  DcTracker tracker(sim, ril, bus, metrics);
  bus.add_listener(&recorder);
  tracker.request_data();
  sim.run_until(SimTime::origin() + SimDuration::minutes(10.0));
  tracker.teardown();
  sim.run();

  ASSERT_GE(failure_times.size(), 6u);
  double prev_gap = 0.0;
  for (std::size_t i = 1; i < failure_times.size(); ++i) {
    const double gap = failure_times[i] - failure_times[i - 1];
    // Allowing modem latency jitter: gaps never shrink below ~80% of the
    // previous one and never exceed the 45 s cap plus latency slack.
    EXPECT_GE(gap, prev_gap * 0.8 - 0.5) << i;
    EXPECT_LE(gap, 45.0 + 5.0) << i;
    prev_gap = gap;
  }
}

}  // namespace
}  // namespace cellrel

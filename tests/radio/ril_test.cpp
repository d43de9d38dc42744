#include "radio/ril.h"

#include <gtest/gtest.h>

namespace cellrel {
namespace {

TEST(Ril, AsyncResponseArrivesAfterLatency) {
  Simulator sim;
  obs::MetricSink metrics;
  RadioInterfaceLayer ril(sim, Rng{1}, metrics);
  ChannelConditions c;
  c.level = SignalLevel::kLevel4;
  ril.update_channel(c);

  bool responded = false;
  double response_time = 0.0;
  ril.setup_data_call([&](const ModemResult& r) {
    responded = true;
    response_time = sim.now().to_seconds();
    EXPECT_TRUE(r.success);
  });
  EXPECT_FALSE(responded);  // async: nothing until the simulator runs
  sim.run();
  EXPECT_TRUE(responded);
  EXPECT_GT(response_time, 0.0);
}

TEST(Ril, EachCommandRecordsItsLatency) {
  Simulator sim;
  obs::MetricSink metrics;
  RadioInterfaceLayer ril(sim, Rng{2}, metrics);
  ril.setup_data_call([](const ModemResult&) {});
  ril.deactivate_data_call([](const ModemResult&) {});
  ril.reregister([](const ModemResult&) {});
  ril.reregister([](const ModemResult&) {});
  sim.run();
  const auto& timers = metrics.sim_timers();
  EXPECT_EQ(timers.at("ril.setup_data_call.latency").count, 1u);
  EXPECT_EQ(timers.at("ril.deactivate_data_call.latency").count, 1u);
  EXPECT_EQ(timers.at("ril.reregister.latency").count, 2u);
  EXPECT_EQ(timers.at("ril.restart_radio.latency").count, 0u);
}

TEST(Ril, ChannelConditionsDriveOutcomes) {
  Simulator sim;
  obs::MetricSink metrics;
  RadioInterfaceLayer ril(sim, Rng{3}, metrics);
  ChannelConditions bad;
  bad.base_failure_prob = 1.0;
  ril.update_channel(bad);
  bool failed = false;
  ril.setup_data_call([&](const ModemResult& r) { failed = !r.success; });
  sim.run();
  EXPECT_TRUE(failed);
}

}  // namespace
}  // namespace cellrel

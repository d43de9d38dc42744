#include "radio/ril.h"

#include <gtest/gtest.h>

namespace cellrel {
namespace {

TEST(Ril, EachCommandRecordsItsLatency) {
  obs::MetricSink metrics;
  RadioInterfaceLayer ril(Rng{2}, metrics);
  const auto& timers = metrics.sim_timers();
  // Metrics are recorded when the command is issued, from the answer it returns.
  const ModemResult setup = ril.setup_data_call();
  EXPECT_GT(setup.latency, SimDuration::zero());
  EXPECT_EQ(timers.at("ril.setup_data_call.latency").count, 1u);
  EXPECT_EQ(timers.at("ril.setup_data_call.latency").total_us, setup.latency.count_us());
  (void)ril.deactivate_data_call();
  (void)ril.reregister();
  (void)ril.reregister();
  EXPECT_EQ(timers.at("ril.deactivate_data_call.latency").count, 1u);
  EXPECT_EQ(timers.at("ril.reregister.latency").count, 2u);
  EXPECT_EQ(timers.at("ril.restart_radio.latency").count, 0u);
}

TEST(Ril, ChannelConditionsDriveOutcomes) {
  obs::MetricSink metrics;
  RadioInterfaceLayer ril(Rng{3}, metrics);
  ChannelConditions bad;
  bad.base_failure_prob = 1.0;
  ril.update_channel(bad);
  const ModemResult r = ril.setup_data_call();
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.cause, FailCause::kNone);
  EXPECT_EQ(metrics.counters().at("ril.setup_data_call.failures").value, 1u);
}

}  // namespace
}  // namespace cellrel

#include "radio/modem.h"

#include <gtest/gtest.h>

namespace cellrel {
namespace {

ChannelConditions healthy() {
  ChannelConditions c;
  c.rat = Rat::k4G;
  c.level = SignalLevel::kLevel4;
  return c;
}

TEST(Modem, HealthyChannelSetupSucceeds) {
  ModemSimulator modem{Rng{1}};
  for (int i = 0; i < 100; ++i) {
    const ModemResult r = modem.setup_data_call(healthy());
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.cause, FailCause::kNone);
    EXPECT_GT(r.latency.count_us(), 0);
  }
}

TEST(Modem, DriverFaultReportsRadioNotAvailable) {
  ModemSimulator modem{Rng{3}};
  ChannelConditions c = healthy();
  c.driver_fault = true;
  const ModemResult r = modem.setup_data_call(c);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.cause, FailCause::kRadioNotAvailable);
}

TEST(Modem, OverloadRejectionIsRationalAndTagged) {
  ModemSimulator modem{Rng{4}};
  ChannelConditions c = healthy();
  c.overload_rejection_prob = 1.0;
  for (int i = 0; i < 50; ++i) {
    const ModemResult r = modem.setup_data_call(c);
    ASSERT_FALSE(r.success);
    EXPECT_TRUE(r.rational_rejection);
    EXPECT_TRUE(r.cause == FailCause::kInsufficientResources ||
                r.cause == FailCause::kCongestion);
  }
}

TEST(Modem, GuaranteedFailureDrawsTrueCauses) {
  ModemSimulator modem{Rng{5}};
  ChannelConditions c = healthy();
  c.base_failure_prob = 1.0;
  const auto& catalog = FailCauseCatalog::instance();
  for (int i = 0; i < 200; ++i) {
    const ModemResult r = modem.setup_data_call(c);
    ASSERT_FALSE(r.success);
    EXPECT_FALSE(r.rational_rejection);
    EXPECT_FALSE(catalog.info(r.cause).false_positive_correlated) << to_string(r.cause);
  }
}

TEST(Modem, EmmBarringProducesEmmCauses) {
  ModemSimulator modem{Rng{6}};
  ChannelConditions c = healthy();
  c.emm_barring_prob = 1.0;
  int emm_codes = 0;
  for (int i = 0; i < 300; ++i) {
    const ModemResult r = modem.setup_data_call(c);
    ASSERT_FALSE(r.success);
    if (r.cause == FailCause::kEmmAccessBarred || r.cause == FailCause::kInvalidEmmState ||
        r.cause == FailCause::kEmmAccessBarredInfinite ||
        r.cause == FailCause::kTrackingAreaUpdateFail || r.cause == FailCause::kMmeRejection) {
      ++emm_codes;
    }
  }
  EXPECT_GT(emm_codes, 250);  // EMM dominates when barring drives the failure
}

TEST(Modem, FailureProbabilityRespected) {
  ModemSimulator modem{Rng{7}};
  ChannelConditions c = healthy();
  c.base_failure_prob = 0.3;
  int failures = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (!modem.setup_data_call(c).success) ++failures;
  }
  EXPECT_NEAR(failures / static_cast<double>(n), 0.3, 0.02);
}

TEST(Modem, RecoveryOperationLatenciesAreProgressive) {
  // O1 < O2 < O3 (Eq. 1's premise): average latencies must be ordered.
  ModemSimulator modem{Rng{8}};
  double t_cleanup = 0, t_rereg = 0, t_restart = 0;
  for (int i = 0; i < 200; ++i) {
    t_cleanup += modem.deactivate_data_call().latency.to_seconds();
    t_rereg += modem.reregister(healthy()).latency.to_seconds();
    t_restart += modem.restart_radio().latency.to_seconds();
  }
  EXPECT_LT(t_cleanup, t_rereg);
  EXPECT_LT(t_rereg, t_restart);
}

TEST(Modem, ReregisterFailsOnDeadSignalSometimes) {
  ModemSimulator modem{Rng{9}};
  ChannelConditions c = healthy();
  c.level = SignalLevel::kLevel0;
  int failures = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!modem.reregister(c).success) ++failures;
  }
  EXPECT_NEAR(failures / 2000.0, 0.35, 0.05);
}

TEST(Modem, RestartRadioAlwaysSucceeds) {
  ModemSimulator modem{Rng{10}};
  const ModemResult r = modem.restart_radio();
  EXPECT_TRUE(r.success);
}

}  // namespace
}  // namespace cellrel

#include "telephony/service_state.h"

#include <gtest/gtest.h>

namespace cellrel {
namespace {

TEST(ServiceState, StartsInService) {
  ServiceStateTracker sst;
  EXPECT_EQ(sst.state(), ServiceState::kInService);
  EXPECT_FALSE(sst.out_of_service());
  EXPECT_EQ(sst.oos_episode_count(), 0u);
}

TEST(ServiceState, OosEpisodeTiming) {
  ServiceStateTracker sst;
  sst.set_state(ServiceState::kOutOfService);
  EXPECT_TRUE(sst.out_of_service());
  EXPECT_EQ(sst.oos_episode_count(), 1u);
  sst.set_state(ServiceState::kInService);
  EXPECT_FALSE(sst.out_of_service());
  sst.set_state(ServiceState::kOutOfService);
  EXPECT_EQ(sst.oos_episode_count(), 2u);
}

TEST(ServiceState, RepeatedSetIsIdempotent) {
  ServiceStateTracker sst;
  sst.set_state(ServiceState::kOutOfService);
  sst.set_state(ServiceState::kOutOfService);
  EXPECT_EQ(sst.oos_episode_count(), 1u);
}

TEST(ServiceState, PowerStatesAreNotOos) {
  ServiceStateTracker sst;
  sst.set_state(ServiceState::kPowerOff);
  EXPECT_FALSE(sst.out_of_service());
  sst.set_state(ServiceState::kEmergencyOnly);
  EXPECT_FALSE(sst.out_of_service());
  EXPECT_EQ(sst.oos_episode_count(), 0u);
}

}  // namespace
}  // namespace cellrel

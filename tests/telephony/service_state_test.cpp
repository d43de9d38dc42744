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
  const SimTime start = SimTime::origin() + SimDuration::seconds(100);
  sst.set_state(ServiceState::kOutOfService, start);
  EXPECT_TRUE(sst.out_of_service());
  EXPECT_EQ(sst.oos_episode_count(), 1u);
  sst.set_state(ServiceState::kInService, start + SimDuration::seconds(30));
  EXPECT_FALSE(sst.out_of_service());
  sst.set_state(ServiceState::kOutOfService, start + SimDuration::seconds(60));
  EXPECT_EQ(sst.oos_episode_count(), 2u);
}

TEST(ServiceState, RepeatedSetIsIdempotent) {
  ServiceStateTracker sst;
  int notifications = 0;
  sst.observe([&](ServiceState, ServiceState, SimTime) { ++notifications; });
  sst.set_state(ServiceState::kOutOfService, SimTime::origin());
  sst.set_state(ServiceState::kOutOfService, SimTime::origin() + SimDuration::seconds(5));
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(sst.oos_episode_count(), 1u);
}

TEST(ServiceState, ObserverSeesBothDirections) {
  ServiceStateTracker sst;
  std::vector<std::pair<ServiceState, ServiceState>> seen;
  sst.observe([&](ServiceState from, ServiceState to, SimTime) {
    seen.emplace_back(from, to);
  });
  sst.set_state(ServiceState::kOutOfService, SimTime::origin());
  sst.set_state(ServiceState::kInService, SimTime::origin() + SimDuration::seconds(1));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].second, ServiceState::kOutOfService);
  EXPECT_EQ(seen[1].second, ServiceState::kInService);
}

TEST(ServiceState, PowerStatesAreNotOos) {
  ServiceStateTracker sst;
  sst.set_state(ServiceState::kPowerOff, SimTime::origin());
  EXPECT_FALSE(sst.out_of_service());
  sst.set_state(ServiceState::kEmergencyOnly, SimTime::origin());
  EXPECT_FALSE(sst.out_of_service());
  EXPECT_EQ(sst.oos_episode_count(), 0u);
}

}  // namespace
}  // namespace cellrel

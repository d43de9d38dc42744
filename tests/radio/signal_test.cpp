#include "radio/signal.h"

#include <gtest/gtest.h>

namespace cellrel {
namespace {

TEST(Signal, LevelIndexHelpers) {
  EXPECT_EQ(index_of(SignalLevel::kLevel3), 3u);
  EXPECT_EQ(signal_level_from_index(5), SignalLevel::kLevel5);
  EXPECT_EQ(signal_level_from_index(99), SignalLevel::kLevel5);  // clamped
}

TEST(Rat, NamesAndOrdering) {
  EXPECT_EQ(to_string(Rat::k5G), "5G");
  EXPECT_TRUE(newer_than(Rat::k5G, Rat::k4G));
  EXPECT_TRUE(newer_than(Rat::k3G, Rat::k2G));
  EXPECT_FALSE(newer_than(Rat::k2G, Rat::k2G));
  EXPECT_EQ(kRatCount, 4u);
}

}  // namespace
}  // namespace cellrel

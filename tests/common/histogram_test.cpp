#include "common/histogram.h"

#include <gtest/gtest.h>

namespace cellrel {
namespace {

TEST(LinearHistogram, BinPlacement) {
  LinearHistogram h(0.0, 10.0, 10);
  h.add(0.0);
  h.add(0.5);
  h.add(9.99);
  h.add(-1.0);   // underflow
  h.add(10.0);   // overflow (hi is exclusive)
  h.add(15.0);   // overflow
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(LinearHistogram, WeightedAdds) {
  LinearHistogram h(0.0, 4.0, 4);
  h.add(1.5, 10);
  EXPECT_EQ(h.bin(1), 10u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(LinearHistogram, CumulativeFraction) {
  LinearHistogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(5.0), 0.5);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(10.0), 1.0);
  EXPECT_DOUBLE_EQ(h.cumulative_fraction(0.0), 0.0);
}

}  // namespace
}  // namespace cellrel

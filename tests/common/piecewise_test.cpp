#include "common/piecewise.h"

#include <gtest/gtest.h>

namespace cellrel {
namespace {

PiecewiseCdf paper_stall_cdf() {
  return PiecewiseCdf{{10.0, 0.60}, {30.0, 0.70}, {300.0, 0.88}, {91770.0, 1.0}};
}

TEST(PiecewiseCdf, AnchorsHonored) {
  const auto cdf = paper_stall_cdf();
  EXPECT_DOUBLE_EQ(cdf.cdf(10.0), 0.60);
  EXPECT_DOUBLE_EQ(cdf.cdf(30.0), 0.70);
  EXPECT_DOUBLE_EQ(cdf.cdf(91770.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(1e9), 1.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(-5.0), 0.0);
}

TEST(PiecewiseCdf, MonotoneNonDecreasing) {
  const auto cdf = paper_stall_cdf();
  double prev = 0.0;
  for (double v = 0.1; v < 100'000.0; v *= 1.3) {
    const double c = cdf.cdf(v);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST(PiecewiseCdf, QuantileInvertsWithinSegments) {
  const auto cdf = paper_stall_cdf();
  for (double u : {0.05, 0.3, 0.6, 0.65, 0.7, 0.85, 0.95, 0.999}) {
    const double v = cdf.quantile(u);
    EXPECT_NEAR(cdf.cdf(v), u, 1e-9) << "u=" << u;
  }
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 91770.0);
}

TEST(PiecewiseCdf, SamplesMatchAnchors) {
  const auto cdf = paper_stall_cdf();
  Rng rng(17);
  int below10 = 0, below30 = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = cdf.sample(rng);
    if (x <= 10.0) ++below10;
    if (x <= 30.0) ++below30;
  }
  EXPECT_NEAR(below10 / static_cast<double>(n), 0.60, 0.01);
  EXPECT_NEAR(below30 / static_cast<double>(n), 0.70, 0.01);
}

TEST(PiecewiseCdf, RejectsBadAnchors) {
  using A = PiecewiseCdf::Anchor;
  EXPECT_THROW(PiecewiseCdf({A{1.0, 1.0}}), std::invalid_argument);  // too few
  EXPECT_THROW(PiecewiseCdf({A{1.0, 0.5}, A{2.0, 0.9}}), std::invalid_argument);  // last != 1
  EXPECT_THROW(PiecewiseCdf({A{2.0, 0.5}, A{1.0, 1.0}}), std::invalid_argument);  // value order
  EXPECT_THROW(PiecewiseCdf({A{1.0, 0.8}, A{2.0, 0.5}, A{3.0, 1.0}}),
               std::invalid_argument);  // cumulative order
  EXPECT_THROW(PiecewiseCdf({A{-1.0, 0.5}, A{2.0, 1.0}}), std::invalid_argument);  // negative
  EXPECT_THROW(PiecewiseCdf({A{1.0, 1.5}, A{2.0, 1.0}}), std::invalid_argument);  // p > 1
}

}  // namespace
}  // namespace cellrel

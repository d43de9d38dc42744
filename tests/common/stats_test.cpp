#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace cellrel {
namespace {

TEST(SampleSet, QuantilesExact) {
  SampleSet s;
  for (double x : {10.0, 20.0, 30.0, 40.0, 50.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 20.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.125), 15.0);  // interpolated
  EXPECT_DOUBLE_EQ(s.median(), 30.0);
}

TEST(SampleSet, FractionBelow) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.fraction_below(50.5), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_below(1.0), 0.0);    // strictly below
  EXPECT_DOUBLE_EQ(s.fraction_below(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(s.fraction_below(-5.0), 0.0);
}

TEST(SampleSet, AddAfterQueryResorts) {
  SampleSet s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(SampleSet, EmptyQueriesAreSafe) {
  SampleSet s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.fraction_below(1.0), 0.0);
}

TEST(LinearFit, ExactLine) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {3, 5, 7, 9, 11};  // y = 2x + 1
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, NoisyLineRecovered) {
  Rng rng(11);
  std::vector<double> xs, ys;
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0, 100);
    xs.push_back(x);
    ys.push_back(-0.82 * x + 17.12 + rng.normal(0, 1.0));
  }
  const LinearFit fit = linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, -0.82, 0.01);
  EXPECT_NEAR(fit.intercept, 17.12, 0.5);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(LinearFit, DegenerateInputs) {
  std::vector<double> one = {1.0};
  EXPECT_EQ(linear_fit(one, one).slope, 0.0);
  std::vector<double> xs = {2.0, 2.0, 2.0};
  std::vector<double> ys = {1.0, 2.0, 3.0};
  EXPECT_EQ(linear_fit(xs, ys).slope, 0.0);  // constant x
}

TEST(PearsonCorrelation, KnownCases) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> up = {2, 4, 6, 8};
  std::vector<double> down = {8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(xs, down), -1.0, 1e-12);
  std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_EQ(pearson_correlation(xs, flat), 0.0);
}

}  // namespace
}  // namespace cellrel

#include "common/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

namespace cellrel {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next_u64();
    EXPECT_EQ(x, b.next_u64());
    if (x != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, ForkIndependentOfDrawOrder) {
  Rng a(42);
  Rng fork_before = a.fork(7);
  a.next_u64();  // consuming the parent must not change future fork streams?
  // fork() is defined on current state; forking again with the same salt
  // after drawing gives a different stream, but two forks of the SAME state
  // with the same salt are identical:
  Rng b(42);
  Rng fork_b = b.fork(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fork_before.next_u64(), fork_b.next_u64());
}

TEST(Rng, ForkSaltsDiverge) {
  Rng a(42);
  Rng f1 = a.fork(1);
  Rng f2 = a.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (f1.next_u64() == f2.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(2);
  std::array<int, 5> seen{};
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(10, 14);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 14);
    ++seen[static_cast<std::size_t>(v - 10)];
  }
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 each
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(7.0);
  EXPECT_NEAR(sum / n, 7.0, 0.15);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, LognormalMedian) {
  Rng rng(6);
  std::vector<double> xs;
  const int n = 50'001;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(rng.lognormal(1.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], std::exp(1.0), 0.1);
}

TEST(Rng, GeometricMean) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.geometric(0.5));
  EXPECT_NEAR(sum / n, 1.0, 0.05);  // E = (1-p)/p = 1
  EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, DiscreteProportions) {
  Rng rng(9);
  const std::array<double, 3> w = {1.0, 2.0, 7.0};
  std::array<int, 3> seen{};
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++seen[rng.discrete(w)];
  EXPECT_NEAR(seen[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(seen[1] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(seen[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(Rng, DiscreteIgnoresNegativeWeights) {
  Rng rng(10);
  const std::array<double, 3> w = {-5.0, 0.0, 1.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.discrete(w), 2u);
}

TEST(Rng, DiscreteThrowsOnZeroTotal) {
  Rng rng(11);
  const std::array<double, 2> w = {0.0, 0.0};
  EXPECT_THROW(rng.discrete(w), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(AliasTable, MatchesWeights) {
  Rng rng(13);
  const std::array<double, 4> w = {4.0, 3.0, 2.0, 1.0};
  AliasTable table(w);
  std::array<int, 4> seen{};
  const int n = 200'000;
  for (int i = 0; i < n; ++i) ++seen[table.sample(rng)];
  EXPECT_NEAR(seen[0] / static_cast<double>(n), 0.4, 0.01);
  EXPECT_NEAR(seen[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(seen[2] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(seen[3] / static_cast<double>(n), 0.1, 0.01);
}

TEST(AliasTable, SingleAndZeroWeightEntries) {
  Rng rng(14);
  const std::array<double, 3> w = {0.0, 5.0, 0.0};
  AliasTable table(w);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.sample(rng), 1u);
}

TEST(AliasTable, ThrowsOnAllZero) {
  const std::array<double, 2> w = {0.0, 0.0};
  EXPECT_THROW(AliasTable{w}, std::invalid_argument);
}

// Property sweep: alias table matches direct discrete sampling for several
// weight shapes.
class AliasVsDiscreteTest : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(AliasVsDiscreteTest, SameDistribution) {
  const auto& weights = GetParam();
  Rng r1(99), r2(77);
  AliasTable table(weights);
  std::vector<double> alias_freq(weights.size());
  std::vector<double> direct_freq(weights.size());
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    alias_freq[table.sample(r1)] += 1.0;
    direct_freq[r2.discrete(weights)] += 1.0;
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(alias_freq[i] / n, direct_freq[i] / n, 0.015) << "bucket " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightShapes, AliasVsDiscreteTest,
    ::testing::Values(std::vector<double>{1.0},
                      std::vector<double>{1.0, 1.0, 1.0, 1.0},
                      std::vector<double>{100.0, 1.0, 1.0},
                      std::vector<double>{0.1, 0.0, 0.9, 0.0, 2.0},
                      std::vector<double>{12.8, 7.2, 6.5, 4.9, 4.3, 3.5, 2.2, 1.9, 1.8, 1.6}));

}  // namespace
}  // namespace cellrel

#include "common/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"

namespace cellrel {
namespace {

TEST(FitZipf, RecoversExponentFromSyntheticCounts) {
  // counts(rank) = exp(b) * rank^{-a} with a = 0.82, b = 17.12 (Fig. 11).
  std::vector<std::uint64_t> counts;
  for (int rank = 1; rank <= 5000; ++rank) {
    counts.push_back(static_cast<std::uint64_t>(
        std::exp(17.12) * std::pow(static_cast<double>(rank), -0.82)));
  }
  const ZipfFit fit = fit_zipf(counts);
  EXPECT_NEAR(fit.a, 0.82, 0.02);
  EXPECT_NEAR(fit.b, 17.12, 0.2);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(FitZipf, UnsortedInputAndZeros) {
  std::vector<std::uint64_t> counts = {0, 100, 0, 50, 200, 0, 25};
  const ZipfFit fit = fit_zipf(counts);
  EXPECT_GT(fit.a, 0.0);  // decaying
  EXPECT_GT(fit.r_squared, 0.9);
}

TEST(FitZipf, DegenerateInputs) {
  std::vector<std::uint64_t> empty;
  EXPECT_EQ(fit_zipf(empty).a, 0.0);
  std::vector<std::uint64_t> single = {42};
  EXPECT_EQ(fit_zipf(single).a, 0.0);
  std::vector<std::uint64_t> zeros = {0, 0, 0};
  EXPECT_EQ(fit_zipf(zeros).a, 0.0);
}

// Round-trip property: sampling from a Zipf and fitting the resulting counts
// recovers the exponent, across several exponents. Ranks 1..n are drawn by
// inverse transform over the normalized k^{-s} weights.
class ZipfRoundTripTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfRoundTripTest, SampleThenFit) {
  const double s = GetParam();
  constexpr std::size_t n = 2000;
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    total += std::pow(static_cast<double>(k), -s);
    cdf[k - 1] = total;
  }
  for (double& c : cdf) c /= total;
  Rng rng(33);
  std::vector<std::uint64_t> counts(n, 0);
  for (int i = 0; i < 2'000'000; ++i) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.next_double());
    ++counts[static_cast<std::size_t>(it - cdf.begin())];
  }
  const ZipfFit fit = fit_zipf(counts);
  // Finite-sample truncation biases the tail; accept a loose band.
  EXPECT_NEAR(fit.a, s, 0.15) << "s=" << s;
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfRoundTripTest, ::testing::Values(0.6, 0.82, 1.0));

}  // namespace
}  // namespace cellrel

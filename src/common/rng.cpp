#include "common/rng.h"

#include "common/check.h"
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace cellrel {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Rng Rng::fork(std::uint64_t salt) const {
  std::uint64_t mix = s_[0] ^ rotl(s_[3], 17);
  std::uint64_t sm = mix ^ (salt * 0x9e3779b97f4a7c15ULL);
  return Rng{splitmix64(sm)};
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CELLREL_DCHECK(lo <= hi) << "uniform_int: lo=" << lo << " > hi=" << hi;
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range);
  std::uint64_t r = next_u64();
  while (r >= limit) r = next_u64();
  return lo + static_cast<std::int64_t>(r % range);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::exponential(double mean) {
  CELLREL_DCHECK(mean > 0.0) << "exponential: mean=" << mean;
  double u = next_double();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = next_double();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

std::uint64_t Rng::geometric(double p) {
  if (p >= 1.0) return 0;
  CELLREL_DCHECK(p > 0.0) << "geometric: p=" << p;
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::size_t Rng::discrete(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) throw std::invalid_argument("discrete: total weight must be > 0");
  double x = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (x < w) return i;
    x -= w;
  }
  // Floating point slack: return the last positively weighted index.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  if (n == 0) return;
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  if (total <= 0.0) throw std::invalid_argument("AliasTable: total weight must be > 0");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = (weights[i] > 0.0 ? weights[i] : 0.0) * static_cast<double>(n) / total;
  }
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t i : large) prob_[i] = 1.0;
  for (std::uint32_t i : small) prob_[i] = 1.0;
}

std::size_t AliasTable::sample(Rng& rng) const {
  CELLREL_CHECK(!prob_.empty()) << "sampling from an empty alias table";
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(prob_.size()) - 1));
  return rng.next_double() < prob_[i] ? i : alias_[i];
}

}  // namespace cellrel

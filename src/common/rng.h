// Deterministic random number generation for the simulator.
//
// Every stochastic component in cellrel draws from an Rng instance seeded
// from the campaign seed plus a stable per-entity salt, so a campaign is
// reproducible bit-for-bit across runs and platforms. The generator is
// xoshiro256** (public domain, Blackman & Vigna) with SplitMix64 seeding;
// we avoid <random> engines/distributions because their outputs are not
// portable across standard library implementations.

#ifndef CELLREL_COMMON_RNG_H
#define CELLREL_COMMON_RNG_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace cellrel {

/// SplitMix64 step; used for seeding and for cheap stateless hashing of salts.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic, portable PRNG (xoshiro256**).
class Rng {
 public:
  /// Seeds from a 64-bit seed via SplitMix64 expansion.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  /// Derives an independent stream for a sub-entity: same (seed, salt)
  /// always yields the same stream regardless of draw order elsewhere.
  Rng fork(std::uint64_t salt) const;

  /// Uniform on [0, 2^64).
  std::uint64_t next_u64();

  /// Uniform on [0, 1).
  double next_double();

  /// Uniform integer on [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real on [lo, hi).
  double uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Box–Muller (deterministic; no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Geometric: number of failures before first success, success prob p.
  std::uint64_t geometric(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Zero/negative weights are treated as zero. Requires a positive total.
  std::size_t discrete(std::span<const double> weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Precomputed alias table for repeated sampling from a fixed discrete
/// distribution in O(1) per draw (Walker's alias method).
class AliasTable {
 public:
  AliasTable() = default;
  explicit AliasTable(std::span<const double> weights);

  std::size_t sample(Rng& rng) const;
  std::size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace cellrel

#endif  // CELLREL_COMMON_RNG_H

#include "bs/registry.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cellrel {

namespace {

// Coverage quality q in [0,1]; the level a device sees is Binomial(5, q),
// so hubs (dense deployment, q near 1) frequently show level 5 while remote
// areas sit at the bottom. Per-RAT factors encode §3.3: 3G coverage is much
// worse than 2G; 5G (higher band, early rollout) trails 4G.
double location_quality(LocationClass loc) {
  switch (loc) {
    case LocationClass::kTransportHub: return 0.93;
    case LocationClass::kDenseUrban: return 0.76;
    case LocationClass::kUrban: return 0.66;
    case LocationClass::kSuburban: return 0.55;
    case LocationClass::kRural: return 0.40;
    case LocationClass::kRemote: return 0.26;
  }
  return 0.5;
}

double rat_coverage_factor(Rat rat) {
  switch (rat) {
    case Rat::k2G: return 1.10;
    case Rat::k3G: return 0.80;
    case Rat::k4G: return 1.00;
    case Rat::k5G: return 0.40;  // early NR rollout: high band, sparse sites
  }
  return 1.0;
}

double coverage_quality(IspId isp, LocationClass loc, Rat rat) {
  const auto& profile = isp_profile(isp);
  double q = location_quality(loc) * rat_coverage_factor(rat) *
             (0.55 + 0.45 * profile.coverage_radius_factor);
  // 3G grids are sparse outside cities: "its signal coverage is worse than
  // that of 2G when 4G access is unavailable" (§3.3), so rural/remote 3G is
  // mostly unusable and devices fall back to 2G.
  if (rat == Rat::k3G) {
    if (loc == LocationClass::kRural || loc == LocationClass::kRemote) {
      q *= 0.25;
    } else if (loc == LocationClass::kSuburban) {
      q *= 0.45;
    }
  }
  return std::clamp(q, 0.02, 0.97);
}

// q depends only on (ISP, location class, RAT), so it is computed once per
// process rather than once per sampled level.
using CoverageTable =
    std::array<std::array<std::array<double, kRatCount>, kAllLocationClasses.size()>, kIspCount>;

const CoverageTable& coverage_table() {
  static const CoverageTable table = [] {
    CoverageTable t{};
    for (const IspId isp : kAllIsps) {
      for (const LocationClass loc : kAllLocationClasses) {
        for (const Rat rat : kAllRats) {
          t[index_of(isp)][index_of(loc)][index_of(rat)] = coverage_quality(isp, loc, rat);
        }
      }
    }
    return t;
  }();
  return table;
}

}  // namespace

void CandidateSet::fail_overflow() const {
  CELLREL_CHECK_OP(size_, <, kCapacity) << "candidate set overflow";
}

BsRegistry::BsRegistry(const DeploymentConfig& config, Rng& rng) {
  auto specs = generate_deployment(config, rng);
  stations_.reserve(specs.size());
  for (auto& spec : specs) {
    const BsIndex idx = spec.index;
    const IspId isp = spec.isp;
    const LocationClass loc = spec.location;
    // Cell IDs must be unique and dense: the spec index doubles as the
    // station's position in `stations_`, so every later lookup depends on it.
    CELLREL_CHECK_OP(static_cast<std::size_t>(idx), ==, stations_.size())
        << "deployment emitted a duplicate or out-of-order cell id";
    stations_.emplace_back(std::move(spec));
    buckets_[index_of(isp)][index_of(loc)].push_back(idx);
    by_isp_[index_of(isp)].push_back(idx);
  }
}

BsIndex BsRegistry::pick_bs(IspId isp, LocationClass location, Rng& rng) const {
  const auto& bucket = buckets_[index_of(isp)][index_of(location)];
  const auto& fallback = by_isp_[index_of(isp)];
  const auto& pool = bucket.empty() ? fallback : bucket;
  CELLREL_CHECK(!pool.empty()) << "ISP " << static_cast<int>(isp)
                               << " has no deployed base stations";
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
  return pool[i];
}

SignalLevel BsRegistry::sample_level(const BaseStation& bs, Rat rat, Rng& rng) const {
  const double q =
      coverage_table()[index_of(bs.isp())][index_of(bs.location())][index_of(rat)];
  // Binomial(5, q) via five Bernoulli draws: cheap and deterministic.
  std::size_t level = 0;
  for (int i = 0; i < 5; ++i) level += rng.bernoulli(q) ? 1 : 0;
  // Excellent (level 5) RSS requires being on top of a dense deployment:
  // away from hubs and dense urban cores it reads as "great" instead. This
  // concentrates level-5 exposure at the densely deployed sites, which is
  // exactly where the paper locates the level-5 failure anomaly.
  if (level == 5 && bs.location() != LocationClass::kTransportHub &&
      bs.location() != LocationClass::kDenseUrban && rng.bernoulli(0.7)) {
    level = 4;
  }
  return signal_level_from_index(level);
}

CandidateSet BsRegistry::enumerate_candidates(BsIndex bs_index, bool device_5g_capable,
                                              Rng& rng) const {
  CandidateSet out;
  CELLREL_CHECK_OP(static_cast<std::size_t>(bs_index), <, stations_.size());
  const BaseStation& bs = stations_[bs_index];
  for (Rat rat : kAllRats) {
    if (!bs.supports(rat)) continue;
    if (rat == Rat::k5G && !device_5g_capable) continue;
    out.push_back({bs_index, rat, sample_level(bs, rat, rng)});
  }
  // Neighbor-cell visibility tracks deployment density: city devices hear
  // several cells, rural/remote ones often only the serving site.
  auto add_neighbor = [&] {
    const auto& pool = buckets_[index_of(bs.isp())][index_of(bs.location())];
    if (pool.size() <= 1) return;
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    const BsIndex neighbor = pool[i];
    if (neighbor == bs_index) return;
    const BaseStation& nb = stations_[neighbor];
    for (Rat rat : kAllRats) {
      if (!nb.supports(rat)) continue;
      if (rat == Rat::k5G && !device_5g_capable) continue;
      out.push_back({neighbor, rat, sample_level(nb, rat, rng)});
    }
  };
  int neighbors = 0;
  switch (bs.location()) {
    case LocationClass::kDenseUrban:
    case LocationClass::kTransportHub:
      neighbors = 2;
      break;
    case LocationClass::kUrban:
      neighbors = rng.bernoulli(0.8) ? 2 : 1;
      break;
    case LocationClass::kSuburban:
      neighbors = 1 + (rng.bernoulli(0.5) ? 1 : 0);
      break;
    case LocationClass::kRural:
      neighbors = rng.bernoulli(0.6) ? 1 : 0;
      break;
    case LocationClass::kRemote:
      neighbors = rng.bernoulli(0.3) ? 1 : 0;
      break;
  }
  for (int i = 0; i < neighbors; ++i) add_neighbor();
  return out;
}

void BsRegistry::apply_failure_delta(std::span<const BsIndex> failed_bs) {
  for (const BsIndex idx : failed_bs) {
    CELLREL_CHECK_OP(static_cast<std::size_t>(idx), <, stations_.size())
        << "failure delta names a BS outside the registry";
    stations_[idx].record_failure();
  }
}

std::vector<std::uint64_t> BsRegistry::failure_counts() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(stations_.size());
  for (const auto& bs : stations_) counts.push_back(bs.failure_count());
  return counts;
}

}  // namespace cellrel

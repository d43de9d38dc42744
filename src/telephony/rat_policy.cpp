#include "telephony/rat_policy.h"

#include <algorithm>

namespace cellrel {

const RatLevelRiskTable& default_risk_table() {
  // Rows: 2G, 3G, 4G, 5G; columns: level 0..5.
  // Calibrated to the shapes of Fig. 15 (aggregate: monotone decrease from
  // level 0 to 4, then the level-5 anomaly from dense hub deployments) and
  // Fig. 16 (per-RAT 4G/5G curves; 5G markedly riskier at weak signal).
  // The 4G/5G level-0 and level-4 values are chosen so the largest Fig. 17f
  // transition increase (4G level-4 -> 5G level-0) reproduces ~0.37.
  static const RatLevelRiskTable table = [] {
    RatLevelRiskTable t;
    t.risk[index_of(Rat::k2G)] = {0.36, 0.26, 0.19, 0.13, 0.09, 0.28};
    // 3G rides far below the others: its relatively idle network faces
    // little resource contention (§3.3).
    t.risk[index_of(Rat::k3G)] = {0.05, 0.035, 0.025, 0.018, 0.012, 0.04};
    t.risk[index_of(Rat::k4G)] = {0.40, 0.28, 0.20, 0.14, 0.08, 0.30};
    t.risk[index_of(Rat::k5G)] = {0.45, 0.33, 0.24, 0.16, 0.10, 0.34};
    return t;
  }();
  return table;
}

double nominal_data_rate_mbps(Rat rat, SignalLevel level) {
  // Peak rate scaled by a level-dependent utilization factor; level 0 can
  // "hardly provide a high data rate" (§4.2).
  double peak = 0.0;
  switch (rat) {
    case Rat::k2G: peak = 0.2; break;
    case Rat::k3G: peak = 8.0; break;
    case Rat::k4G: peak = 100.0; break;
    case Rat::k5G: peak = 1000.0; break;
  }
  static constexpr std::array<double, kSignalLevelCount> kUtilization = {
      0.004, 0.15, 0.35, 0.60, 0.85, 1.0};
  return peak * kUtilization[index_of(level)];
}

namespace {

// The first strict maximum of `key` among the eligible candidates, in
// candidate order; nullopt when none is eligible.
template <typename Eligible, typename Key>
std::optional<CellCandidate> pick_best(std::span<const CellCandidate> candidates,
                                       Eligible eligible, Key key) {
  const CellCandidate* best = nullptr;
  for (const auto& c : candidates) {
    if (!eligible(c)) continue;
    if (best == nullptr || key(c) > key(*best)) best = &c;
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

// Cells without usable signal are not camp-able; they only remain candidates
// when nothing else is audible. (This is what leaves 3G sites "idle": where
// 4G exists it wins on RAT preference, and where it does not, 3G's inferior
// coverage usually reads level 0 so devices fall back to 2G — §3.3.) The one
// exception is NR under Android 10, whose blind 5G preference ignores the
// signal level entirely (§3.2).
bool usable(const CellCandidate& c, bool keep_level0_nr) {
  return c.level != SignalLevel::kLevel0 || (keep_level0_nr && c.rat == Rat::k5G);
}

bool none_usable(std::span<const CellCandidate> candidates, bool keep_level0_nr) {
  return std::none_of(candidates.begin(), candidates.end(), [&](const CellCandidate& c) {
    return usable(c, keep_level0_nr);
  });
}

}  // namespace

std::optional<CellCandidate> Android9Policy::choose(
    std::span<const CellCandidate> candidates,
    const std::optional<CellCandidate>& /*current*/) const {
  const bool keep_all = none_usable(candidates, /*keep_level0_nr=*/false);
  // Newest RAT first, then strongest signal.
  return pick_best(
      candidates,
      [keep_all](const CellCandidate& c) {
        return (keep_all || usable(c, false)) && c.rat != Rat::k5G;
      },
      [](const CellCandidate& c) { return index_of(c.rat) * 100 + index_of(c.level); });
}

std::optional<CellCandidate> Android10Policy::choose(
    std::span<const CellCandidate> candidates,
    const std::optional<CellCandidate>& /*current*/) const {
  // Blind 5G preference: any NR candidate beats every LTE candidate, even
  // at level 0 ("5G is blindly preferred to the other RATs", §3.2).
  const bool keep_all = none_usable(candidates, /*keep_level0_nr=*/true);
  return pick_best(
      candidates,
      [keep_all](const CellCandidate& c) { return keep_all || usable(c, true); },
      [](const CellCandidate& c) {
        const std::size_t five_g_bonus = c.rat == Rat::k5G ? 10'000 : 0;
        return five_g_bonus + index_of(c.rat) * 100 + index_of(c.level);
      });
}

double StabilityCompatiblePolicy::score(const CellCandidate& c) const {
  return nominal_data_rate_mbps(c.rat, c.level) - kRiskWeight * table_.at(c.rat, c.level);
}

std::optional<CellCandidate> StabilityCompatiblePolicy::choose(
    std::span<const CellCandidate> candidates,
    const std::optional<CellCandidate>& current) const {
  // Refuse level-0 targets whenever an alternative exists: the common
  // pattern of undesirable transitions is "level-0 RSS after transition"
  // (§4.2), and avoiding them cannot hurt the data rate in principle.
  const bool keep_all = none_usable(candidates, /*keep_level0_nr=*/false);
  auto chosen = pick_best(
      candidates,
      [keep_all](const CellCandidate& c) { return keep_all || usable(c, false); },
      [this](const CellCandidate& c) { return score(c); });
  // Hysteresis: keep the current cell unless the winner is materially
  // better, to avoid ping-pong transitions that are themselves risky.
  if (chosen && current &&
      (chosen->bs != current->bs || chosen->rat != current->rat)) {
    if (score(*chosen) < score(*current) + 1.0) return current;
  }
  return chosen;
}

const RatSelectionPolicy& policy_for_android(int android_version) {
  static const Android9Policy android9;
  static const Android10Policy android10;
  if (android_version >= 10) return android10;
  return android9;
}

}  // namespace cellrel

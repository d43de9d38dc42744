#include "telephony/rat_policy.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace cellrel {
namespace {

CellCandidate cell(BsIndex bs, Rat rat, SignalLevel level) { return {bs, rat, level}; }

TEST(RiskTable, ShapesMatchFigures15And16) {
  const RatLevelRiskTable& t = default_risk_table();
  for (Rat rat : kAllRats) {
    // Levels 0..4: monotone decreasing risk (Fig. 15).
    for (std::size_t l = 1; l <= 4; ++l) {
      EXPECT_LT(t.at(rat, signal_level_from_index(l)),
                t.at(rat, signal_level_from_index(l - 1)))
          << to_string(rat) << " level " << l;
    }
    // Level-5 anomaly: above every level 1..4 but below level 0.
    const double l5 = t.at(rat, SignalLevel::kLevel5);
    for (std::size_t l = 1; l <= 4; ++l) {
      EXPECT_GT(l5, t.at(rat, signal_level_from_index(l)));
    }
    EXPECT_LT(l5, t.at(rat, SignalLevel::kLevel0));
  }
  // Fig. 16: 5G riskier than 4G at equal levels.
  for (SignalLevel l : kAllSignalLevels) {
    EXPECT_GT(t.at(Rat::k5G, l), t.at(Rat::k4G, l));
  }
  // The Fig. 17f headline cell: 4G level-4 -> 5G level-0 increase ~ 0.37.
  EXPECT_NEAR(t.at(Rat::k5G, SignalLevel::kLevel0) - t.at(Rat::k4G, SignalLevel::kLevel4),
              0.37, 1e-9);
}

TEST(DataRate, ScalesWithRatAndLevel) {
  EXPECT_GT(nominal_data_rate_mbps(Rat::k5G, SignalLevel::kLevel5),
            nominal_data_rate_mbps(Rat::k4G, SignalLevel::kLevel5));
  EXPECT_GT(nominal_data_rate_mbps(Rat::k4G, SignalLevel::kLevel4),
            nominal_data_rate_mbps(Rat::k4G, SignalLevel::kLevel1));
  // Level-0 5G can "hardly provide a high data rate" (§4.2): below a good 4G.
  EXPECT_LT(nominal_data_rate_mbps(Rat::k5G, SignalLevel::kLevel0),
            nominal_data_rate_mbps(Rat::k4G, SignalLevel::kLevel3));
}

TEST(Android9Policy, NeverSelects5G) {
  Android9Policy policy;
  const std::vector<CellCandidate> candidates = {
      cell(1, Rat::k5G, SignalLevel::kLevel5),
      cell(2, Rat::k4G, SignalLevel::kLevel2),
      cell(3, Rat::k3G, SignalLevel::kLevel4),
  };
  const auto chosen = policy.choose(candidates, std::nullopt);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->rat, Rat::k4G);
}

TEST(Android9Policy, PrefersNewerRatThenLevel) {
  Android9Policy policy;
  const std::vector<CellCandidate> candidates = {
      cell(1, Rat::k2G, SignalLevel::kLevel5),
      cell(2, Rat::k3G, SignalLevel::kLevel1),
      cell(3, Rat::k3G, SignalLevel::kLevel3),
  };
  const auto chosen = policy.choose(candidates, std::nullopt);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->bs, 3u);
}

TEST(Android9Policy, OnlyNrAvailableYieldsNothing) {
  Android9Policy policy;
  const std::vector<CellCandidate> candidates = {cell(1, Rat::k5G, SignalLevel::kLevel4)};
  EXPECT_FALSE(policy.choose(candidates, std::nullopt).has_value());
}

TEST(Android10Policy, BlindlyPrefers5GEvenAtLevel0) {
  // The exact behaviour §3.2 criticizes: 5G level-0 beats 4G level-4.
  Android10Policy policy;
  const std::vector<CellCandidate> candidates = {
      cell(1, Rat::k4G, SignalLevel::kLevel4),
      cell(2, Rat::k5G, SignalLevel::kLevel0),
  };
  const auto chosen = policy.choose(candidates, std::nullopt);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->rat, Rat::k5G);
  EXPECT_EQ(chosen->level, SignalLevel::kLevel0);
}

TEST(Android10Policy, FallsBackToBestLteWithoutNr) {
  Android10Policy policy;
  const std::vector<CellCandidate> candidates = {
      cell(1, Rat::k4G, SignalLevel::kLevel2),
      cell(2, Rat::k4G, SignalLevel::kLevel4),
      cell(3, Rat::k2G, SignalLevel::kLevel5),
  };
  const auto chosen = policy.choose(candidates, std::nullopt);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->bs, 2u);
}

TEST(StabilityPolicy, RefusesLevel0TargetWhenAlternativeExists) {
  StabilityCompatiblePolicy policy;
  const std::vector<CellCandidate> candidates = {
      cell(1, Rat::k5G, SignalLevel::kLevel0),
      cell(2, Rat::k4G, SignalLevel::kLevel4),
  };
  const auto chosen = policy.choose(candidates, std::nullopt);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->rat, Rat::k4G);
}

TEST(StabilityPolicy, AcceptsStrong5G) {
  StabilityCompatiblePolicy policy;
  const std::vector<CellCandidate> candidates = {
      cell(1, Rat::k5G, SignalLevel::kLevel4),
      cell(2, Rat::k4G, SignalLevel::kLevel4),
  };
  const auto chosen = policy.choose(candidates, std::nullopt);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->rat, Rat::k5G);  // no data-rate sacrifice (§4.2)
}

TEST(StabilityPolicy, RiskWeightPricesRiskAgainstRate) {
  // Each candidate scores its nominal rate minus kRiskWeight times the
  // default table's risk; with no level-0 target in play the policy takes
  // the higher score.
  ASSERT_EQ(StabilityCompatiblePolicy::kRiskWeight, 600.0);
  const RatLevelRiskTable& risk = default_risk_table();
  const auto score = [&risk](Rat rat, SignalLevel level) {
    return nominal_data_rate_mbps(rat, level) -
           StabilityCompatiblePolicy::kRiskWeight * risk.at(rat, level);
  };
  StabilityCompatiblePolicy policy;
  for (const SignalLevel nr : {SignalLevel::kLevel1, SignalLevel::kLevel2,
                               SignalLevel::kLevel3, SignalLevel::kLevel5}) {
    const std::vector<CellCandidate> candidates = {
        cell(1, Rat::k5G, nr),
        cell(2, Rat::k4G, SignalLevel::kLevel3),
    };
    const auto chosen = policy.choose(candidates, std::nullopt);
    ASSERT_TRUE(chosen.has_value());
    const Rat best = score(Rat::k5G, nr) > score(Rat::k4G, SignalLevel::kLevel3) ? Rat::k5G
                                                                                 : Rat::k4G;
    EXPECT_EQ(chosen->rat, best) << "5G level " << index_of(nr);
  }
}

TEST(StabilityPolicy, Level0OnlyCandidatesStillServe) {
  StabilityCompatiblePolicy policy;
  const std::vector<CellCandidate> candidates = {
      cell(1, Rat::k4G, SignalLevel::kLevel0),
  };
  const auto chosen = policy.choose(candidates, std::nullopt);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->bs, 1u);
}

TEST(StabilityPolicy, HysteresisAvoidsPingPong) {
  StabilityCompatiblePolicy policy;
  const CellCandidate current = cell(1, Rat::k4G, SignalLevel::kLevel3);
  // A marginally better alternative should not trigger a transition.
  const std::vector<CellCandidate> candidates = {
      current,
      cell(2, Rat::k4G, SignalLevel::kLevel3),
  };
  const auto chosen = policy.choose(candidates, current);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->bs, current.bs);
}

TEST(StabilityPolicy, EmptyCandidatesYieldNothing) {
  StabilityCompatiblePolicy policy;
  EXPECT_FALSE(policy.choose({}, std::nullopt).has_value());
}

TEST(PolicyFactory, MatchesAndroidVersion) {
  EXPECT_EQ(policy_for_android(9).name(), "android9");
  EXPECT_EQ(policy_for_android(10).name(), "android10-aggressive-5g");
  EXPECT_EQ(policy_for_android(11).name(), "android10-aggressive-5g");
  // Stateless policies are shared, not built per caller.
  EXPECT_EQ(&policy_for_android(10), &policy_for_android(12));
}

// The vector-filtering policy bodies the in-place filters replaced, kept
// verbatim as the oracle: filter into a copy, then take the first strict
// maximum of the copy.
namespace reference {

template <typename Key>
std::optional<CellCandidate> pick_best(std::span<const CellCandidate> candidates, Key key) {
  if (candidates.empty()) return std::nullopt;
  const CellCandidate* best = &candidates[0];
  for (const auto& c : candidates.subspan(1)) {
    if (key(c) > key(*best)) best = &c;
  }
  return *best;
}

std::vector<CellCandidate> drop_unusable(std::span<const CellCandidate> candidates,
                                         bool keep_level0_nr) {
  std::vector<CellCandidate> usable;
  for (const auto& c : candidates) {
    if (c.level != SignalLevel::kLevel0 || (keep_level0_nr && c.rat == Rat::k5G)) {
      usable.push_back(c);
    }
  }
  if (usable.empty()) usable.assign(candidates.begin(), candidates.end());
  return usable;
}

std::optional<CellCandidate> android9(std::span<const CellCandidate> candidates) {
  std::vector<CellCandidate> eligible;
  for (const auto& c : drop_unusable(candidates, /*keep_level0_nr=*/false)) {
    if (c.rat != Rat::k5G) eligible.push_back(c);
  }
  return pick_best(std::span<const CellCandidate>(eligible), [](const CellCandidate& c) {
    return index_of(c.rat) * 100 + index_of(c.level);
  });
}

std::optional<CellCandidate> android10(std::span<const CellCandidate> candidates) {
  const auto eligible = drop_unusable(candidates, /*keep_level0_nr=*/true);
  return pick_best(std::span<const CellCandidate>(eligible), [](const CellCandidate& c) {
    const std::size_t five_g_bonus = c.rat == Rat::k5G ? 10'000 : 0;
    return five_g_bonus + index_of(c.rat) * 100 + index_of(c.level);
  });
}

double score(const CellCandidate& c) {
  return nominal_data_rate_mbps(c.rat, c.level) -
         StabilityCompatiblePolicy::kRiskWeight * default_risk_table().at(c.rat, c.level);
}

std::optional<CellCandidate> stability(std::span<const CellCandidate> candidates,
                                       const std::optional<CellCandidate>& current) {
  if (candidates.empty()) return std::nullopt;
  std::vector<CellCandidate> eligible;
  for (const auto& c : candidates) {
    if (c.level != SignalLevel::kLevel0) eligible.push_back(c);
  }
  if (eligible.empty()) eligible.assign(candidates.begin(), candidates.end());
  auto chosen = pick_best(std::span<const CellCandidate>(eligible),
                          [](const CellCandidate& c) { return score(c); });
  if (chosen && current &&
      (chosen->bs != current->bs || chosen->rat != current->rat)) {
    if (score(*chosen) < score(*current) + 1.0) return current;
  }
  return chosen;
}

}  // namespace reference

::testing::AssertionResult same_choice(const std::optional<CellCandidate>& got,
                                       const std::optional<CellCandidate>& want) {
  const auto show = [](const std::optional<CellCandidate>& c) {
    if (!c) return std::string("nullopt");
    return "(bs " + std::to_string(c->bs) + ", " + std::string(to_string(c->rat)) +
           ", level " + std::to_string(index_of(c->level)) + ")";
  };
  if (got.has_value() == want.has_value() &&
      (!got || (got->bs == want->bs && got->rat == want->rat && got->level == want->level))) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "got " << show(got) << ", reference " << show(want);
}

TEST(RatPolicy, InPlaceFiltersMatchVectorReference) {
  // Sets of 0..12 candidates (the enumeration bound). BS indices come from
  // a small pool so equal keys on different cells are common; the shapes
  // below add the all-level-0, NR-only and duplicate-member corner cases.
  enum Shape { kMixed, kAllLevel0, kNrOnly, kDuplicates, kShapeCount };
  const Android9Policy android9;
  const Android10Policy android10;
  const StabilityCompatiblePolicy stability;
  Rng rng(2021);
  std::vector<CellCandidate> set;
  for (int trial = 0; trial < 100'000; ++trial) {
    const auto shape = static_cast<Shape>(rng.uniform_int(0, kShapeCount - 1));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 12));
    set.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (shape == kDuplicates && j > 0 && rng.bernoulli(0.5)) {
        set.push_back(set[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(j) - 1))]);
        continue;
      }
      CellCandidate c;
      c.bs = static_cast<BsIndex>(rng.uniform_int(0, 3));
      c.rat = shape == kNrOnly ? Rat::k5G
                               : kAllRats[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      c.level = shape == kAllLevel0
                    ? SignalLevel::kLevel0
                    : signal_level_from_index(static_cast<std::size_t>(rng.uniform_int(0, 5)));
      set.push_back(c);
    }
    std::vector<std::optional<CellCandidate>> currents = {std::nullopt};
    if (!set.empty()) {
      currents.push_back(
          set[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))]);
    }
    for (const auto& current : currents) {
      ASSERT_TRUE(same_choice(android9.choose(set, current), reference::android9(set)))
          << "android9, trial " << trial;
      ASSERT_TRUE(same_choice(android10.choose(set, current), reference::android10(set)))
          << "android10, trial " << trial;
      ASSERT_TRUE(
          same_choice(stability.choose(set, current), reference::stability(set, current)))
          << "stability, trial " << trial;
    }
  }
}

// The Fig. 17 transition question, asked from every serving cell of the
// RAT x signal-level grid: offered a level-0 target, Android 10 jumps to NR
// (§3.2), the stability-compatible policy stays (§4.2) and Android 9 never
// camps on NR.
struct ServingCell {
  Rat rat;
  SignalLevel level;
};

std::vector<ServingCell> all_serving_cells() {
  std::vector<ServingCell> cells;
  for (Rat rat : kAllRats) {
    for (SignalLevel level : kAllSignalLevels) cells.push_back({rat, level});
  }
  return cells;
}

class TransitionFromServingCell : public ::testing::TestWithParam<ServingCell> {
 protected:
  CellCandidate serving() const { return cell(1, GetParam().rat, GetParam().level); }
};

TEST_P(TransitionFromServingCell, Android10TakesLevel0NrTarget) {
  Android10Policy policy;
  const CellCandidate s = serving();
  const std::vector<CellCandidate> candidates = {s, cell(2, Rat::k5G, SignalLevel::kLevel0)};
  const auto chosen = policy.choose(candidates, s);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->rat, Rat::k5G);
  // Only an NR serving cell can keep the device: same RAT, level no worse.
  EXPECT_EQ(chosen->bs, s.rat == Rat::k5G ? s.bs : 2u);
}

TEST_P(TransitionFromServingCell, StabilityRefusesLevel0Targets) {
  // 3G level 0 outscores 2G level 1 on risk alone, so only the level-0
  // rule keeps a weak 2G serving cell.
  StabilityCompatiblePolicy policy;
  const CellCandidate s = serving();
  std::vector<CellCandidate> candidates;
  for (Rat rat : kAllRats) {
    candidates.push_back(cell(2 + index_of(rat), rat, SignalLevel::kLevel0));
  }
  candidates.push_back(s);
  const auto chosen = policy.choose(candidates, s);
  ASSERT_TRUE(chosen.has_value());
  if (s.level == SignalLevel::kLevel0) {
    EXPECT_EQ(chosen->level, SignalLevel::kLevel0);
  } else {
    EXPECT_EQ(chosen->bs, s.bs);
  }
}

TEST_P(TransitionFromServingCell, StabilityHysteresisHoldsAgainstEqualCell) {
  // The twin comes first, so it wins the scoring tie and only hysteresis
  // keeps the device on its serving cell.
  StabilityCompatiblePolicy policy;
  const CellCandidate s = serving();
  const std::vector<CellCandidate> candidates = {cell(2, s.rat, s.level), s};
  const auto chosen = policy.choose(candidates, s);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(chosen->bs, s.bs);
}

TEST_P(TransitionFromServingCell, Android9NeverOffersNr) {
  Android9Policy policy;
  const CellCandidate s = serving();
  const std::vector<CellCandidate> candidates = {s, cell(2, Rat::k5G, SignalLevel::kLevel5)};
  const auto chosen = policy.choose(candidates, s);
  // A camp-able pre-5G serving cell is kept. A level-0 one is dropped as
  // soon as anything else is audible, which leaves nothing to camp on.
  if (s.rat != Rat::k5G && s.level != SignalLevel::kLevel0) {
    ASSERT_TRUE(chosen.has_value());
    EXPECT_EQ(chosen->bs, s.bs);
  } else {
    EXPECT_FALSE(chosen.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatLevelGrid, TransitionFromServingCell, ::testing::ValuesIn(all_serving_cells()),
    [](const ::testing::TestParamInfo<ServingCell>& info) {
      return std::string(to_string(info.param.rat)) + "_level" +
             std::to_string(index_of(info.param.level));
    });

}  // namespace
}  // namespace cellrel

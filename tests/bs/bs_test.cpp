#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bs/base_station.h"
#include "bs/cell_id.h"
#include "bs/deployment.h"
#include "bs/isp.h"
#include "bs/registry.h"
#include "common/check.h"

namespace cellrel {
namespace {

// --- Cell identity ---

TEST(CellId, FormattingAndKeys) {
  const CellGlobalId g{460, 11, 0x1234, 42};
  EXPECT_EQ(to_string(g), "460-11-4660-42");
  const CdmaCellId c{13600, 5, 7};
  EXPECT_EQ(to_string(c), "cdma:13600-5-7");
  const CellIdentity a = g;
  const CellIdentity b = c;
  EXPECT_NE(cell_key(a), cell_key(b));
  EXPECT_EQ(cell_key(a), cell_key(CellIdentity{g}));
}

TEST(CellId, KeysDistinguishNearbyCells) {
  std::set<std::uint64_t> keys;
  for (std::uint32_t cid = 1; cid <= 1000; ++cid) {
    keys.insert(cell_key(CellGlobalId{460, 0, 0x2000, cid}));
  }
  EXPECT_EQ(keys.size(), 1000u);
}

// --- ISP profiles ---

TEST(Isp, SharesMatchPaper) {
  EXPECT_NEAR(isp_profile(IspId::kIspA).bs_share, 0.448, 1e-9);
  EXPECT_NEAR(isp_profile(IspId::kIspB).bs_share, 0.294, 1e-9);
  EXPECT_NEAR(isp_profile(IspId::kIspC).bs_share, 0.258, 1e-9);
  double total = 0.0;
  for (IspId isp : kAllIsps) total += isp_profile(isp).bs_share;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Isp, BandOrderingBGreaterCGreaterA) {
  // §3.3: median frequency ISP-B > ISP-C > ISP-A.
  EXPECT_GT(isp_profile(IspId::kIspB).median_band_mhz,
            isp_profile(IspId::kIspC).median_band_mhz);
  EXPECT_GT(isp_profile(IspId::kIspC).median_band_mhz,
            isp_profile(IspId::kIspA).median_band_mhz);
}

TEST(Isp, CoverageInverseToBand) {
  // Higher band => smaller coverage radius (the stated cause of ISP-B's
  // inferior coverage).
  EXPECT_LT(isp_profile(IspId::kIspB).coverage_radius_factor,
            isp_profile(IspId::kIspA).coverage_radius_factor);
  EXPECT_GT(isp_profile(IspId::kIspB).hazard_multiplier,
            isp_profile(IspId::kIspA).hazard_multiplier);
  EXPECT_GT(isp_profile(IspId::kIspA).hazard_multiplier,
            isp_profile(IspId::kIspC).hazard_multiplier);
}

TEST(Isp, BandSeparationSymmetric) {
  EXPECT_DOUBLE_EQ(band_separation_mhz(IspId::kIspA, IspId::kIspB),
                   band_separation_mhz(IspId::kIspB, IspId::kIspA));
  EXPECT_DOUBLE_EQ(band_separation_mhz(IspId::kIspA, IspId::kIspA), 0.0);
}

// --- Base station behaviour ---

BaseStation make_bs(LocationClass loc, double load, std::uint16_t neighbors) {
  BaseStation::Spec s;
  s.index = 0;
  s.isp = IspId::kIspA;
  s.location = loc;
  s.rat_mask = 1u << index_of(Rat::k4G);
  s.load = load;
  s.neighbor_count = neighbors;
  return BaseStation{std::move(s)};
}

TEST(BaseStation, OverloadRejectionRampsWithLoad) {
  EXPECT_EQ(make_bs(LocationClass::kUrban, 0.3, 0).overload_rejection_prob(), 0.0);
  EXPECT_EQ(make_bs(LocationClass::kUrban, 0.7, 0).overload_rejection_prob(), 0.0);
  const double p_hot = make_bs(LocationClass::kUrban, 0.9, 0).overload_rejection_prob();
  const double p_full = make_bs(LocationClass::kUrban, 0.98, 0).overload_rejection_prob();
  EXPECT_GT(p_hot, 0.0);
  EXPECT_GT(p_full, p_hot);
  EXPECT_LE(p_full, 0.25);
}

TEST(BaseStation, EmmBarringRequiresDensity) {
  EXPECT_EQ(make_bs(LocationClass::kUrban, 0.5, 0).emm_barring_prob(), 0.0);
  EXPECT_EQ(make_bs(LocationClass::kUrban, 0.5, 2).emm_barring_prob(), 0.0);
  const double sparse = make_bs(LocationClass::kUrban, 0.5, 4).emm_barring_prob();
  const double dense = make_bs(LocationClass::kUrban, 0.5, 10).emm_barring_prob();
  EXPECT_GT(sparse, 0.0);
  EXPECT_GT(dense, sparse);
}

TEST(BaseStation, TransportHubsBarMoreThanUrban) {
  const double urban = make_bs(LocationClass::kUrban, 0.5, 8).emm_barring_prob();
  const double hub = make_bs(LocationClass::kTransportHub, 0.5, 8).emm_barring_prob();
  EXPECT_GT(hub, urban);
}

TEST(BaseStation, ChannelConditionsScaleHazard) {
  BaseStation::Spec s;
  s.rat_mask = 1u << index_of(Rat::k4G);
  s.hazard_multiplier = 2.0;
  BaseStation bs{std::move(s)};
  const auto cond = bs.channel_conditions(Rat::k4G, SignalLevel::kLevel3, 0.1);
  EXPECT_NEAR(cond.base_failure_prob, 0.2, 1e-12);
  EXPECT_EQ(cond.rat, Rat::k4G);
  EXPECT_EQ(cond.level, SignalLevel::kLevel3);
}

TEST(BaseStation, DisrepairAddsFailureMass) {
  BaseStation::Spec s;
  s.rat_mask = 1u << index_of(Rat::k4G);
  s.disrepair = true;
  BaseStation bs{std::move(s)};
  EXPECT_GE(bs.channel_conditions(Rat::k4G, SignalLevel::kLevel2, 0.0).base_failure_prob, 0.3);
}

TEST(BaseStation, FailureCounterAccumulates) {
  BaseStation bs = make_bs(LocationClass::kUrban, 0.3, 0);
  EXPECT_EQ(bs.failure_count(), 0u);
  bs.record_failure();
  bs.record_failure();
  EXPECT_EQ(bs.failure_count(), 2u);
}

// --- Deployment marginals ---

TEST(Deployment, RatMarginalsNearConfig) {
  DeploymentConfig config;
  config.bs_count = 40'000;
  Rng rng(1);
  const auto specs = generate_deployment(config, rng);
  ASSERT_EQ(specs.size(), 40'000u);
  std::array<int, kRatCount> counts{};
  for (const auto& s : specs) {
    for (Rat rat : kAllRats) {
      if (s.rat_mask & (1u << index_of(rat))) ++counts[index_of(rat)];
    }
  }
  const double n = static_cast<double>(specs.size());
  EXPECT_NEAR(counts[index_of(Rat::k2G)] / n, 0.234, 0.01);
  EXPECT_NEAR(counts[index_of(Rat::k3G)] / n, 0.102, 0.01);
  EXPECT_NEAR(counts[index_of(Rat::k4G)] / n, 0.652, 0.03);  // NSA anchors add 4G
  EXPECT_NEAR(counts[index_of(Rat::k5G)] / n, 0.073, 0.015);
}

TEST(Deployment, IspSharesNearConfig) {
  DeploymentConfig config;
  config.bs_count = 30'000;
  Rng rng(2);
  const auto specs = generate_deployment(config, rng);
  std::array<int, kIspCount> counts{};
  for (const auto& s : specs) ++counts[index_of(s.isp)];
  const double n = static_cast<double>(specs.size());
  EXPECT_NEAR(counts[0] / n, 0.448, 0.01);
  EXPECT_NEAR(counts[1] / n, 0.294, 0.01);
  EXPECT_NEAR(counts[2] / n, 0.258, 0.01);
}

TEST(Deployment, EverySiteServesAtLeastOneRat) {
  DeploymentConfig config;
  config.bs_count = 5'000;
  Rng rng(3);
  for (const auto& s : generate_deployment(config, rng)) EXPECT_NE(s.rat_mask, 0);
}

TEST(Deployment, CdmaOnlyForIspBLegacySites) {
  DeploymentConfig config;
  config.bs_count = 20'000;
  Rng rng(4);
  for (const auto& s : generate_deployment(config, rng)) {
    if (s.cdma) {
      EXPECT_EQ(s.isp, IspId::kIspB);
      EXPECT_TRUE(std::holds_alternative<CdmaCellId>(s.identity));
    } else {
      EXPECT_TRUE(std::holds_alternative<CellGlobalId>(s.identity));
    }
  }
}

TEST(Deployment, DisrepairOnlyRemote) {
  DeploymentConfig config;
  config.bs_count = 20'000;
  Rng rng(5);
  int remote = 0, disrepair = 0;
  for (const auto& s : generate_deployment(config, rng)) {
    if (s.location == LocationClass::kRemote) ++remote;
    if (s.disrepair) {
      ++disrepair;
      EXPECT_EQ(s.location, LocationClass::kRemote);
    }
  }
  EXPECT_GT(disrepair, 0);
  EXPECT_NEAR(disrepair / static_cast<double>(remote), 0.30, 0.05);
}

// --- Registry ---

TEST(Registry, PickBsRespectsIspAndLocation) {
  DeploymentConfig config;
  config.bs_count = 10'000;
  Rng rng(6);
  BsRegistry registry(config, rng);
  for (int i = 0; i < 500; ++i) {
    const BsIndex idx = registry.pick_bs(IspId::kIspB, LocationClass::kUrban, rng);
    const BaseStation& bs = registry.at(idx);
    EXPECT_EQ(bs.isp(), IspId::kIspB);
    EXPECT_EQ(bs.location(), LocationClass::kUrban);
  }
}

TEST(Registry, HubLevelsSkewExcellent) {
  DeploymentConfig config;
  config.bs_count = 10'000;
  Rng rng(7);
  BsRegistry registry(config, rng);
  // Hubs should frequently show level 5; remote sites almost never.
  int hub_level5 = 0, remote_level5 = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const auto& hub = registry.at(registry.pick_bs(IspId::kIspA, LocationClass::kTransportHub, rng));
    const auto& remote = registry.at(registry.pick_bs(IspId::kIspA, LocationClass::kRemote, rng));
    if (registry.sample_level(hub, Rat::k4G, rng) == SignalLevel::kLevel5) ++hub_level5;
    if (registry.sample_level(remote, Rat::k4G, rng) == SignalLevel::kLevel5) ++remote_level5;
  }
  EXPECT_GT(hub_level5, n / 3);
  EXPECT_LT(remote_level5, n / 50);
}

TEST(Registry, IspBLevelsWorseThanIspA) {
  DeploymentConfig config;
  config.bs_count = 10'000;
  Rng rng(8);
  BsRegistry registry(config, rng);
  double sum_a = 0.0, sum_b = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const auto& a = registry.at(registry.pick_bs(IspId::kIspA, LocationClass::kSuburban, rng));
    const auto& b = registry.at(registry.pick_bs(IspId::kIspB, LocationClass::kSuburban, rng));
    sum_a += static_cast<double>(index_of(registry.sample_level(a, Rat::k4G, rng)));
    sum_b += static_cast<double>(index_of(registry.sample_level(b, Rat::k4G, rng)));
  }
  EXPECT_GT(sum_a / n, sum_b / n);
}

TEST(Registry, CandidatesMatchDeviceCapability) {
  DeploymentConfig config;
  config.bs_count = 20'000;
  Rng rng(9);
  BsRegistry registry(config, rng);
  bool saw_5g_for_capable = false;
  for (int i = 0; i < 2000; ++i) {
    const BsIndex idx = registry.pick_bs(IspId::kIspA, LocationClass::kDenseUrban, rng);
    for (const auto& c : registry.enumerate_candidates(idx, false, rng)) {
      EXPECT_NE(c.rat, Rat::k5G);  // non-5G device never sees NR
    }
    for (const auto& c : registry.enumerate_candidates(idx, true, rng)) {
      if (c.rat == Rat::k5G) saw_5g_for_capable = true;
      EXPECT_TRUE(registry.at(c.bs).supports(c.rat));
    }
  }
  EXPECT_TRUE(saw_5g_for_capable);
}

TEST(CandidateSet, HoldsTwelveAndRejectsAThirteenth) {
  ScopedCheckFailureHandler guard(throwing_check_failure_handler());
  CandidateSet set;
  for (std::size_t i = 0; i < CandidateSet::kCapacity; ++i) {
    set.push_back({static_cast<BsIndex>(i), Rat::k4G, SignalLevel::kLevel3});
  }
  ASSERT_EQ(set.size(), 12u);
  EXPECT_EQ(set.front().bs, 0u);
  const std::span<const CellCandidate> view = set;
  EXPECT_EQ(view.back().bs, 11u);
  try {
    set.push_back({12, Rat::k4G, SignalLevel::kLevel3});
    FAIL() << "a 13th candidate was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("candidate set overflow"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(set.size(), 12u);
}

// Pins the candidate draw chain at unit level: the (bs, rat, level) triples
// of 1,000 enumerations over every ISP, location class and device capability,
// then the Rng's next word. A change to the number or order of draws moves
// the digest, so every campaign output would move with it.
TEST(Registry, CandidateDrawOrderPinned) {
  DeploymentConfig config;
  config.bs_count = 8'000;
  Rng rng(9);
  const BsRegistry registry(config, rng);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (std::size_t i = 0; i < 1'000; ++i) {
    const LocationClass loc = kAllLocationClasses[i % kAllLocationClasses.size()];
    const bool device_5g = (i / kAllLocationClasses.size()) % 2 == 0;
    const IspId isp = kAllIsps[(i / (2 * kAllLocationClasses.size())) % kIspCount];
    const BsIndex idx = registry.pick_bs(isp, loc, rng);
    const auto candidates = registry.enumerate_candidates(idx, device_5g, rng);
    mix(candidates.size());
    for (const auto& c : candidates) {
      mix(c.bs);
      mix(index_of(c.rat));
      mix(index_of(c.level));
    }
  }
  mix(rng.next_u64());
  EXPECT_EQ(h, 0x2f60be6a7d1e5631ULL);
}

TEST(Registry, FailureCountsAlignWithStations) {
  DeploymentConfig config;
  config.bs_count = 100;
  Rng rng(10);
  BsRegistry registry(config, rng);
  registry.at(7).record_failure();
  registry.at(7).record_failure();
  registry.at(42).record_failure();
  const auto counts = registry.failure_counts();
  ASSERT_EQ(counts.size(), 100u);
  EXPECT_EQ(counts[7], 2u);
  EXPECT_EQ(counts[42], 1u);
  EXPECT_EQ(counts[0], 0u);
}

}  // namespace
}  // namespace cellrel

#include <gtest/gtest.h>

#include <map>

#include "device/device.h"
#include "device/phone_model.h"

namespace cellrel {
namespace {

TEST(PhoneModel, TableHas34Rows) {
  EXPECT_EQ(phone_models().size(), 34u);
  for (int id = 1; id <= 34; ++id) {
    EXPECT_EQ(phone_model(id).model_id, id);
  }
  EXPECT_THROW(phone_model(0), std::out_of_range);
  EXPECT_THROW(phone_model(35), std::out_of_range);
}

TEST(PhoneModel, Exactly4FiveGModels) {
  // Table 1: models 23, 24, 33, 34 are the 5G models.
  std::vector<int> five_g;
  for (const auto& m : phone_models()) {
    if (m.has_5g) five_g.push_back(m.model_id);
  }
  EXPECT_EQ(five_g, (std::vector<int>{23, 24, 33, 34}));
}

TEST(PhoneModel, FiveGImpliesAndroid10) {
  // Android 9 does not support 5G (§3.2 footnote).
  for (const auto& m : phone_models()) {
    if (m.has_5g) {
      EXPECT_EQ(m.android, AndroidVersion::kAndroid10) << m.model_id;
    }
  }
}

TEST(PhoneModel, SpotCheckTable1Rows) {
  const auto& m8 = phone_model(8);
  EXPECT_NEAR(m8.paper_prevalence, 0.0015, 1e-9);
  EXPECT_NEAR(m8.paper_frequency, 2.3, 1e-9);
  const auto& m30 = phone_model(30);
  EXPECT_NEAR(m30.paper_frequency, 90.2, 1e-9);
  const auto& m23 = phone_model(23);
  EXPECT_NEAR(m23.paper_prevalence, 0.44, 1e-9);
  EXPECT_TRUE(m23.has_5g);
  const auto& m34 = phone_model(34);
  EXPECT_EQ(m34.memory_gb, 8);
  EXPECT_EQ(m34.storage_gb, 256);
  EXPECT_NEAR(m34.cpu_ghz, 2.84, 1e-9);
}

TEST(PhoneModel, UserSharesSumNearOne) {
  double total = 0.0;
  for (const auto& m : phone_models()) total += m.user_share;
  EXPECT_NEAR(total, 1.0, 0.02);
}

TEST(PhoneModel, FleetAveragePrevalenceNearPaper23Percent) {
  // Table 1's per-model prevalences, weighted by user share.
  double total_share = 0.0, weighted = 0.0;
  for (const auto& m : phone_models()) {
    total_share += m.user_share;
    weighted += m.user_share * m.paper_prevalence;
  }
  EXPECT_NEAR(weighted / total_share, 0.23, 0.04);
}

TEST(PhoneModel, SamplerFollowsUserShares) {
  PhoneModelSampler sampler;
  Rng rng(3);
  std::map<int, int> counts;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample(rng).model_id];
  for (const auto& m : phone_models()) {
    EXPECT_NEAR(counts[m.model_id] / static_cast<double>(n), m.user_share, 0.005)
        << "model " << m.model_id;
  }
}

TEST(Population, BuildsRequestedCount) {
  PopulationBuilder builder;
  Rng rng(4);
  const auto fleet = builder.build(5000, rng);
  ASSERT_EQ(fleet.size(), 5000u);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(fleet[i].id, i + 1);
    ASSERT_NE(fleet[i].model, nullptr);
    EXPECT_GT(fleet[i].susceptibility, 0.0);
  }
}

TEST(Population, IspSharesFollowSubscribers) {
  PopulationBuilder builder;
  Rng rng(5);
  const auto fleet = builder.build(30'000, rng);
  std::array<int, kIspCount> counts{};
  for (const auto& d : fleet) ++counts[index_of(d.isp)];
  const double n = static_cast<double>(fleet.size());
  EXPECT_NEAR(counts[0] / n, isp_profile(IspId::kIspA).subscriber_share, 0.01);
  EXPECT_NEAR(counts[1] / n, isp_profile(IspId::kIspB).subscriber_share, 0.01);
  EXPECT_NEAR(counts[2] / n, isp_profile(IspId::kIspC).subscriber_share, 0.01);
}

TEST(Population, SusceptibilityHeavyTailed) {
  PopulationBuilder builder;
  Rng rng(6);
  const auto fleet = builder.build(20'000, rng);
  int above_5x = 0;
  for (const auto& d : fleet) {
    if (d.susceptibility > 5.0) ++above_5x;
  }
  // lognormal(0, 1.1): P(X > 5) ~ 7%; ensures outlier devices exist.
  EXPECT_GT(above_5x, 500);
  EXPECT_LT(above_5x, 3000);
}

TEST(Population, FiveGDevicesAreUrban) {
  PopulationBuilder builder;
  Rng rng(7);
  const auto fleet = builder.build(20'000, rng);
  for (const auto& d : fleet) {
    if (d.model->has_5g) {
      // Dense-urban weight dominates for early 5G adopters.
      EXPECT_GT(d.mobility.location_weights[index_of(LocationClass::kDenseUrban)], 0.3);
    }
  }
}

TEST(MobilityProfile, SamplesFollowWeights) {
  MobilityProfile profile;
  profile.location_weights = {0.0, 0.0, 1.0, 0.0, 0.0, 0.0};
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(profile.sample(rng), LocationClass::kSuburban);
  }
}

}  // namespace
}  // namespace cellrel

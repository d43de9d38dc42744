#include "radio/fail_cause.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

namespace cellrel {
namespace {

TEST(FailCauseCatalog, ContainsAllTable2Codes) {
  const auto& catalog = FailCauseCatalog::instance();
  for (const char* name :
       {"GPRS_REGISTRATION_FAIL", "SIGNAL_LOST", "NO_SERVICE", "INVALID_EMM_STATE",
        "UNPREFERRED_RAT", "PPP_TIMEOUT", "NO_HYBRID_HDR_SERVICE", "PDP_LOWERLAYER_ERROR",
        "MAX_ACCESS_PROBE", "IRAT_HANDOVER_FAILED"}) {
    EXPECT_TRUE(catalog.by_name(name).has_value()) << name;
  }
}

TEST(FailCauseCatalog, NamesAreUnique) {
  const auto& catalog = FailCauseCatalog::instance();
  std::set<std::string_view> names;
  for (const auto& info : catalog.all()) {
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate: " << info.name;
  }
  EXPECT_GE(names.size(), 60u);  // substantial catalogue
}

TEST(FailCauseCatalog, Table2CodesAreTrueFailures) {
  const auto& catalog = FailCauseCatalog::instance();
  for (FailCause c : {FailCause::kGprsRegistrationFail, FailCause::kSignalLost,
                      FailCause::kInvalidEmmState, FailCause::kIratHandoverFailed}) {
    EXPECT_FALSE(catalog.info(c).false_positive_correlated) << to_string(c);
  }
}

TEST(FailCauseCatalog, RationalRejectionsAreFpCorrelated) {
  const auto& catalog = FailCauseCatalog::instance();
  for (FailCause c :
       {FailCause::kInsufficientResources, FailCause::kCongestion,
        FailCause::kOperatorDeterminedBarring, FailCause::kDataSettingsDisabled,
        FailCause::kRadioPowerOff, FailCause::kCdmaIncomingCall}) {
    EXPECT_TRUE(catalog.info(c).false_positive_correlated) << to_string(c);
  }
}

TEST(FailCauseCatalog, LayersMatchPaperExamples) {
  const auto& catalog = FailCauseCatalog::instance();
  // §3.2: SIGNAL_LOST and IRAT_HANDOVER_FAILED at the physical layer,
  // PPP_TIMEOUT at link/MAC, INVALID_EMM_STATE at the network layer.
  EXPECT_EQ(catalog.info(FailCause::kSignalLost).layer, ProtocolLayer::kPhysical);
  EXPECT_EQ(catalog.info(FailCause::kIratHandoverFailed).layer, ProtocolLayer::kPhysical);
  EXPECT_EQ(catalog.info(FailCause::kPppTimeout).layer, ProtocolLayer::kLinkMac);
  EXPECT_EQ(catalog.info(FailCause::kInvalidEmmState).layer, ProtocolLayer::kNetwork);
}

TEST(FailCauseCatalog, UnknownCodeDegradesGracefully) {
  const auto& catalog = FailCauseCatalog::instance();
  const auto& info = catalog.info(static_cast<FailCause>(0x7FFFFFFF));
  EXPECT_EQ(info.cause, FailCause::kUnknown);
  EXPECT_FALSE(catalog.by_name("NOT_A_REAL_CODE").has_value());
}

TEST(FailCauseSampler, Table2SharesReproduced) {
  FailCauseSampler sampler;
  Rng rng(5);
  std::map<FailCause, int> counts;
  const int n = 500'000;
  for (int i = 0; i < n; ++i) ++counts[sampler.sample_true_failure(rng)];

  const auto share = [&](FailCause c) {
    return counts[c] / static_cast<double>(n) * 100.0;
  };
  EXPECT_NEAR(share(FailCause::kGprsRegistrationFail), 12.8, 0.5);
  EXPECT_NEAR(share(FailCause::kSignalLost), 7.2, 0.4);
  EXPECT_NEAR(share(FailCause::kNoService), 6.5, 0.4);
  EXPECT_NEAR(share(FailCause::kInvalidEmmState), 4.9, 0.3);
  EXPECT_NEAR(share(FailCause::kUnpreferredRat), 4.3, 0.3);
  EXPECT_NEAR(share(FailCause::kPppTimeout), 3.5, 0.3);
  EXPECT_NEAR(share(FailCause::kIratHandoverFailed), 1.6, 0.2);

  // Top-10 total = 46.7% (Table 2) and the ordering is preserved: every
  // non-top-10 code stays below IRAT_HANDOVER_FAILED's 1.6%.
  double top10 = 0.0;
  for (FailCause c : {FailCause::kGprsRegistrationFail, FailCause::kSignalLost,
                      FailCause::kNoService, FailCause::kInvalidEmmState,
                      FailCause::kUnpreferredRat, FailCause::kPppTimeout,
                      FailCause::kNoHybridHdrService, FailCause::kPdpLowerlayerError,
                      FailCause::kMaxAccessProbe, FailCause::kIratHandoverFailed}) {
    top10 += share(c);
    counts.erase(c);
  }
  EXPECT_NEAR(top10, 46.7, 1.0);
  for (const auto& [cause, count] : counts) {
    EXPECT_LT(count / static_cast<double>(n) * 100.0, 1.7)
        << to_string(cause) << " displaced a Table 2 entry";
  }
}

TEST(FailCauseSampler, TrueFailuresNeverFpCorrelated) {
  FailCauseSampler sampler;
  const auto& catalog = FailCauseCatalog::instance();
  Rng rng(6);
  for (int i = 0; i < 20'000; ++i) {
    const FailCause c = sampler.sample_true_failure(rng);
    EXPECT_FALSE(catalog.info(c).false_positive_correlated) << to_string(c);
  }
}

TEST(FailCauseSampler, EmmSamplerFavorsPaperCodes) {
  FailCauseSampler sampler;
  Rng rng(8);
  std::map<FailCause, int> counts;
  for (int i = 0; i < 50'000; ++i) ++counts[sampler.sample_emm_failure(rng)];
  // The two codes the paper names dominate (§3.3).
  EXPECT_GT(counts[FailCause::kEmmAccessBarred], 15'000);
  EXPECT_GT(counts[FailCause::kInvalidEmmState], 12'000);
}

}  // namespace
}  // namespace cellrel

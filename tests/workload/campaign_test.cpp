// Campaign integration tests: the full pipeline reproduces the paper's
// headline statistics (shape, loose bands) and the enhancement A/Bs point
// in the right direction. Device counts are kept small so the suite stays
// fast; the bench binaries run the full-scale versions.

#include "workload/campaign.h"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/aggregate.h"
#include "obs/export.h"

namespace cellrel {
namespace {

Scenario small_scenario(std::uint64_t seed = 2020) {
  Scenario sc;
  sc.device_count = 800;
  sc.deployment.bs_count = 3000;
  sc.seed = seed;
  return sc;
}

class MeasurementCampaignTest : public ::testing::Test {
 protected:
  static const CampaignResult& result() {
    static const CampaignResult r = [] {
      Campaign campaign(small_scenario());
      return campaign.run();
    }();
    return r;
  }
};

TEST_F(MeasurementCampaignTest, HeadlinePrevalenceAndFrequency) {
  const Aggregator agg(result().dataset);
  const PrevalenceFrequency pf = agg.overall();
  EXPECT_EQ(pf.devices, 800u);
  // Paper: prevalence averages 23%; frequency ~33 per failing device.
  EXPECT_GT(pf.prevalence(), 0.15);
  EXPECT_LT(pf.prevalence(), 0.32);
  EXPECT_GT(pf.frequency(), 20.0);
  EXPECT_LT(pf.frequency(), 55.0);
}

TEST_F(MeasurementCampaignTest, EventMixNearPaper) {
  const Aggregator agg(result().dataset);
  const auto means = agg.mean_failures_per_device_by_type();
  const double setup = means[index_of(FailureType::kDataSetupError)];
  const double stall = means[index_of(FailureType::kDataStall)];
  const double oos = means[index_of(FailureType::kOutOfService)];
  // Paper ratio 16 : 14 : 3.
  EXPECT_GT(setup, 0.0);
  EXPECT_NEAR(setup / stall, 16.0 / 14.0, 0.45);
  EXPECT_LT(oos, stall);
  // Legacy tail below 1% of all events.
  const double legacy = means[index_of(FailureType::kSmsSendFail)] +
                        means[index_of(FailureType::kVoiceCallDrop)];
  EXPECT_LT(legacy / (setup + stall + oos + legacy), 0.02);
}

TEST_F(MeasurementCampaignTest, DurationShapeNearPaper) {
  const Aggregator agg(result().dataset);
  const SampleSet durations = agg.durations_all();
  // Paper: mean 188 s; 70.8% < 30 s; stalls carry 94% of duration.
  EXPECT_GT(durations.mean(), 80.0);
  EXPECT_LT(durations.mean(), 420.0);
  EXPECT_GT(durations.fraction_below(30.0), 0.60);
  EXPECT_LT(durations.fraction_below(30.0), 0.88);
  const auto share = agg.duration_share_by_type();
  EXPECT_GT(share[index_of(FailureType::kDataStall)], 0.80);
  EXPECT_LE(durations.max(), 91'770.0 + 120.0);
}

TEST_F(MeasurementCampaignTest, FilterPrecisionAndRecall) {
  const Aggregator agg(result().dataset);
  const auto score = agg.filter_score();
  EXPECT_GT(score.precision(), 0.95);
  EXPECT_GT(score.recall(), 0.95);
  EXPECT_GT(score.true_positives, 0u);  // false positives did occur
}

TEST_F(MeasurementCampaignTest, IspOrderingBFirst) {
  const Aggregator agg(result().dataset);
  const auto by_isp = agg.by_isp();
  // Paper: 27.1% (B) > 20.1% (A) > 14.7% (C).
  EXPECT_GT(by_isp[index_of(IspId::kIspB)].prevalence(),
            by_isp[index_of(IspId::kIspA)].prevalence());
  EXPECT_GT(by_isp[index_of(IspId::kIspA)].prevalence(),
            by_isp[index_of(IspId::kIspC)].prevalence());
}

TEST_F(MeasurementCampaignTest, FiveGPhonesWorse) {
  const Aggregator agg(result().dataset);
  const auto by5g = agg.by_5g_capability();
  EXPECT_GT(by5g[1].prevalence(), by5g[0].prevalence());
  EXPECT_GT(by5g[1].frequency(), by5g[0].frequency());
  // The fair comparison (Android-10-only) points the same way (§3.2 fn 4);
  // prevalence separates cleanly at this fleet size (frequency is noisier).
  const auto fair = agg.by_5g_capability(/*android10_only=*/true);
  EXPECT_GT(fair[1].prevalence(), fair[0].prevalence());
}

TEST_F(MeasurementCampaignTest, Android10Worse) {
  const Aggregator agg(result().dataset);
  const auto by_android = agg.by_android_version(/*exclude_5g=*/true);
  EXPECT_GT(by_android[1].prevalence(), by_android[0].prevalence());
}

TEST_F(MeasurementCampaignTest, Level5AnomalyInNormalizedPrevalence) {
  const Aggregator agg(result().dataset);
  const auto norm = agg.normalized_prevalence_by_level();
  // Monotone decrease over levels 0..4, then the level-5 jump (Fig. 15).
  for (int l = 1; l <= 4; ++l) {
    EXPECT_LT(norm[l], norm[l - 1]) << "level " << l;
  }
  EXPECT_GT(norm[5], norm[4]);
  EXPECT_GT(norm[5], norm[2]);
}

TEST_F(MeasurementCampaignTest, ThreeGBsesQuieter) {
  const Aggregator agg(result().dataset);
  const auto by_rat = agg.bs_prevalence_by_rat();
  // Fig. 14: 3G BSes show lower failure prevalence than 2G or 4G.
  EXPECT_LT(by_rat[index_of(Rat::k3G)], by_rat[index_of(Rat::k2G)]);
  EXPECT_LT(by_rat[index_of(Rat::k3G)], by_rat[index_of(Rat::k4G)]);
}

TEST_F(MeasurementCampaignTest, BsFailuresZipfLike) {
  const Aggregator agg(result().dataset);
  const auto stats = agg.bs_ranking_stats();
  EXPECT_GT(stats.with_failures, 0u);
  // Skew: mean far above median (paper: mean 444, median 1).
  EXPECT_GT(stats.mean, static_cast<double>(stats.median));
  EXPECT_GT(stats.max, static_cast<std::uint64_t>(stats.mean * 5));
  const ZipfFit fit = agg.bs_zipf_fit();
  EXPECT_GT(fit.a, 0.3);
  EXPECT_LT(fit.a, 2.0);
  EXPECT_GT(fit.r_squared, 0.7);
}

TEST_F(MeasurementCampaignTest, Table2TopCodeIsGprsRegistrationFail) {
  const Aggregator agg(result().dataset);
  const auto codes = agg.top_error_codes(10);
  ASSERT_GE(codes.size(), 5u);
  EXPECT_EQ(codes[0].cause, FailCause::kGprsRegistrationFail);
  double top10 = 0.0;
  for (const auto& c : codes) top10 += c.percent;
  EXPECT_GT(top10, 35.0);
  EXPECT_LT(top10, 65.0);
}

TEST_F(MeasurementCampaignTest, TransitionsInto5GLevel0AreWorst) {
  const Aggregator agg(result().dataset);
  const auto m = agg.transition_increase(Rat::k4G, Rat::k5G);
  // Fig. 17f: dark cells at j = 0 for i >= 1.
  double best_level0_increase = 0.0;
  for (int i = 1; i <= 4; ++i) {
    best_level0_increase = std::max(best_level0_increase, m[i][0]);
  }
  EXPECT_GT(best_level0_increase, 0.15);
}

TEST_F(MeasurementCampaignTest, ConnectedTimeAccumulated) {
  double total = 0.0;
  for (SignalLevel l : kAllSignalLevels) {
    total += result().dataset.connected_time.level_total(l);
  }
  EXPECT_GT(total, 0.0);
}

TEST_F(MeasurementCampaignTest, OverheadWithinPaperBudget) {
  const auto& oh = result().overhead;
  EXPECT_GT(oh.monitored_devices, 0u);
  EXPECT_LT(oh.avg_cpu_utilization, 0.02);   // <2% CPU (§2.2)
  EXPECT_LT(oh.avg_peak_memory_bytes, 40u * 1024);
  EXPECT_LT(oh.avg_storage_bytes, 100u * 1024);
  EXPECT_LT(oh.worst_cpu_utilization, 0.09);  // worst case <9% (§4.3)
}

TEST(CampaignOverhead, SummaryPinned) {
  // Every field of one small campaign's overhead summary, exactly. The
  // budget bands above would pass a uniform drift of the §2.2 accounting
  // (CPU, memory, storage, probe and upload bytes); these values would not.
  Scenario sc = small_scenario(2021);
  sc.device_count = 200;
  sc.deployment.bs_count = 1000;
  Campaign campaign(sc);
  const OverheadSummary oh = campaign.run().overhead;
  EXPECT_EQ(oh.avg_cpu_utilization, 0.00081920587186586676);
  EXPECT_EQ(oh.worst_cpu_utilization, 0.0022718211258918319);
  EXPECT_EQ(oh.avg_peak_memory_bytes, 25'594u);
  EXPECT_EQ(oh.worst_peak_memory_bytes, 26'592u);
  EXPECT_EQ(oh.avg_storage_bytes, 2'065u);
  EXPECT_EQ(oh.worst_storage_bytes, 11'208u);
  EXPECT_EQ(oh.avg_cellular_bytes, 266'741u);
  EXPECT_EQ(oh.worst_cellular_bytes, 1'532'256u);
  EXPECT_EQ(oh.avg_wifi_upload_bytes, 2'777u);
  EXPECT_EQ(oh.monitored_devices, 38u);
}

TEST(CampaignDeterminism, SameSeedSameResult) {
  Scenario sc = small_scenario(99);
  sc.device_count = 150;
  sc.deployment.bs_count = 1000;
  Campaign a(sc), b(sc);
  const CampaignResult ra = a.run();
  const CampaignResult rb = b.run();
  ASSERT_EQ(ra.dataset.records.size(), rb.dataset.records.size());
  EXPECT_EQ(ra.simulated_events, rb.simulated_events);
  for (std::size_t i = 0; i < ra.dataset.records.size(); ++i) {
    EXPECT_EQ(ra.dataset.records[i].device, rb.dataset.records[i].device);
    EXPECT_EQ(ra.dataset.records[i].duration.count_us(),
              rb.dataset.records[i].duration.count_us());
  }
}

TEST(CampaignDeterminism, DifferentSeedsDiffer) {
  Scenario a = small_scenario(1);
  Scenario b = small_scenario(2);
  a.device_count = b.device_count = 150;
  a.deployment.bs_count = b.deployment.bs_count = 1000;
  const CampaignResult ra = Campaign(a).run();
  const CampaignResult rb = Campaign(b).run();
  EXPECT_NE(ra.dataset.records.size(), rb.dataset.records.size());
}

TEST(EnhancementAb, StabilityPolicyReduces5GFailures) {
  // The 5G cohort is ~11% of the fleet, so this A/B needs a larger fleet
  // than the other campaign tests to beat sampling noise.
  Scenario vanilla = small_scenario(777);
  vanilla.device_count = 2500;
  Scenario enhanced = vanilla;
  enhanced.policy = PolicyVariant::kStabilityCompatible;
  const CampaignResult rv = Campaign(vanilla).run();
  const CampaignResult re = Campaign(enhanced).run();
  const Aggregator agg_v(rv.dataset);
  const Aggregator agg_e(re.dataset);
  const auto v5 = agg_v.by_5g_capability()[1];
  const auto e5 = agg_e.by_5g_capability()[1];
  // Paper: -40.3% frequency on 5G phones; accept a broad band at this scale.
  const double reduction = 1.0 - e5.frequency() / v5.frequency();
  EXPECT_GT(reduction, 0.15);
  EXPECT_LT(reduction, 0.65);
  // Non-5G phones are untouched by the policy change.
  const auto v0 = agg_v.by_5g_capability()[0];
  const auto e0 = agg_e.by_5g_capability()[0];
  EXPECT_NEAR(e0.frequency() / v0.frequency(), 1.0, 0.10);
}

TEST(EnhancementAb, DualConnectivitySoftensOnlyStabilityTransitions) {
  // EN-DC scales the hazard of the stability policy's 4G<->5G transitions
  // (§4.2): it must move that campaign's metrics and leave stock alone.
  Scenario sc;
  sc.device_count = 500;
  sc.deployment.bs_count = 8000;
  sc.campaign_days = 30.0;
  sc.seed = 11;
  sc.threads = 1;
  const auto metrics_json = [](Scenario s, bool dual_connectivity) {
    s.dual_connectivity = dual_connectivity;
    return obs::metrics_to_json(Campaign(s).run().metrics);
  };
  EXPECT_EQ(metrics_json(sc, true), metrics_json(sc, false));
  sc.policy = PolicyVariant::kStabilityCompatible;
  EXPECT_NE(metrics_json(sc, true), metrics_json(sc, false));
}

TEST(EnhancementAb, TimpRecoveryShortensStalls) {
  Scenario vanilla = small_scenario(555);
  Scenario timp = vanilla;
  timp.recovery = RecoveryVariant::kTimpOptimized;
  const CampaignResult rv = Campaign(vanilla).run();
  const CampaignResult rt = Campaign(timp).run();
  const Aggregator agg_v(rv.dataset);
  const Aggregator agg_t(rt.dataset);
  const double stall_v = agg_v.durations_of(FailureType::kDataStall).mean();
  const double stall_t = agg_t.durations_of(FailureType::kDataStall).mean();
  // Paper: -38% Data_Stall duration.
  const double reduction = 1.0 - stall_t / stall_v;
  EXPECT_GT(reduction, 0.15);
  EXPECT_LT(reduction, 0.60);
  // Total failure duration drops too (paper: -36%).
  const double total_v = agg_v.durations_all().sum();
  const double total_t = agg_t.durations_all().sum();
  EXPECT_LT(total_t, total_v);
}

TEST(EnhancementAb, RecoveryEpisodesRecorded) {
  Scenario sc = small_scenario(333);
  sc.device_count = 300;
  const CampaignResult r = Campaign(sc).run();
  EXPECT_FALSE(r.recovery_episodes.empty());
  int fixed = 0, fixed_first_stage = 0;
  for (const auto& ep : r.recovery_episodes) {
    if (ep.outcome == RecoveryOutcome::kFixedByStage) {
      ++fixed;
      if (ep.fixed_by == RecoveryStage::kCleanupConnection) ++fixed_first_stage;
    }
  }
  ASSERT_GT(fixed, 0);
  // §3.2: "even the first-stage lightweight operation can fix the problem
  // in 75% cases" — among stage-fixed episodes the first stage dominates
  // (hard stalls needing several cycles dilute the share somewhat).
  EXPECT_GT(static_cast<double>(fixed_first_stage) / fixed, 0.40);
}

TEST(ProbeLadderAblation, VanillaDetectionCoarsensDurations) {
  Scenario probing = small_scenario(444);
  probing.device_count = 300;
  Scenario fallback = probing;
  fallback.monitor_probing = false;
  const CampaignResult rp = Campaign(probing).run();
  const CampaignResult rf = Campaign(fallback).run();
  const Aggregator agg_p(rp.dataset);
  const Aggregator agg_f(rf.dataset);
  // Fallback rounds stall durations up to whole minutes: the measured mean
  // inflates relative to the probing ladder's <= 5 s error.
  const double stall_p = agg_p.durations_of(FailureType::kDataStall).mean();
  const double stall_f = agg_f.durations_of(FailureType::kDataStall).mean();
  EXPECT_GT(stall_f, stall_p);
  // Every fallback stall duration is a whole-minute multiple.
  rf.dataset.for_each_kept([](const TraceRecord& r) {
    if (r.type != FailureType::kDataStall) return;
    const double d = r.duration.to_seconds();
    EXPECT_DOUBLE_EQ(d, std::ceil(d / 60.0) * 60.0);
  });
}

}  // namespace
}  // namespace cellrel

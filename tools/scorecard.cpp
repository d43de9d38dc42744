#include "scorecard.h"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/stats.h"
#include "device/phone_model.h"

namespace cellrel::scorecard {

namespace {

/// Claims that miss on at least one seed of the battery (20200101, 11, 71,
/// 2021). Each keeps its row and measured value; the reason replaces FAIL
/// with "deviates".
constexpr std::pair<std::string_view, std::string_view> kExpectedDeviations[] = {
    {"T1.frequency",
     "per-phone failure counts are heavy-tailed (lognormal susceptibility), so with 800-900 "
     "failing phones the fleet mean moves by a few failures between seeds and crosses the +20% "
     "edge on some."},
    {"F3.oos_per_device",
     "Out_of_Service is planted only on the OOS-prone fifth of failing phones (section 3.1: 95% "
     "of phones never see it) and never in transition-dominated sessions, so it realizes at "
     "about 60-70% of the paper's per-device mean."},
    {"F4.mean_duration",
     "a Data_Setup_Error episode stays open until the data connection next reaches Active or "
     "Inactive, which on some seeds is days or weeks later (2.53 M s at seed 71, past the paper's "
     "91,770 s maximum); one such record moves the mean of about 30k failures by tens of "
     "seconds."},
    {"F4.stall_duration_share",
     "see F4.mean_duration: on seeds with a days-long Data_Setup_Error record, that record "
     "carries a large share of all failure time and pulls the Data_Stall share down."},
    {"F5.model_frequency_corr",
     "a model's frequency is a mean over its failing phones; small models (0.3-1% of users) "
     "have a handful of them at 4,000 devices, so one heavy phone moves the model's value (e.g. "
     "model 12: 93 vs the paper's 43.5 at seed 20200101)."},
    {"F10.stage1_share",
     "stage 1 fixes 75% of the easy stalls it runs on (a calibration input), but recovery-"
     "limited hard stalls (18% of stalls, 3-12% success per operation) are also fixed by some "
     "stage eventually, which dilutes the share."},
    {"F11.median_per_bs",
     "scale-limited: about 4 kept failures per failing BS at 4,000 devices on 8,000 BSes put "
     "the median failing BS at 2; the paper's far more skewed ranking (max 8.9 M) puts it at "
     "1."},
    {"F13.frequency_order",
     "the per-ISP frequency multipliers are mild (B 1.18, A 1.00, C 0.88) and ISP-C has about "
     "130 failing phones, so heavy-tailed per-phone counts can lift C above B on a seed."},
    {"F15.l5_above_l1_l4",
     "the dense-hub EMM barring that makes the level-5 anomaly lifts L5 above L3 and L4 but not "
     "above the weak-signal L1 and L2 on any seed of the battery."},
    {"F16.5g_riskier",
     "at level 0 the 4G and 5G normalized prevalences are close (both about 0.1); on some seeds "
     "5G level 0 lands below 4G."},
    {"F17.f_darkest_level0_row",
     "the 4G L1..L4 -> 5G L0 cells are close (within 0.1 of each other at seed 20200101), so "
     "sampling noise picks the darkest row."},
    {"F17.f_darkest_level0_increase",
     "the darkest 4G L1..L4 -> 5G L0 cell lands between +0.5 and +0.6 on the battery; the "
     "transition hazard is calibrated for the Fig. 19/20 A/B, not for this cell."},
    {"T2.top10_overlap",
     "the paper's last four codes share 1.6-2.2% each; codes outside its list (EMM_ACCESS_BARRED "
     "from the dense-hub model, MME_REJECTION, TRACKING_AREA_UPDATE_FAIL) land in the same band "
     "and swap places with them."},
    {"F19.5g_prevalence_cut",
     "the policy removes avoidable per-session hazard, which mostly cuts repeat failures on "
     "already-failing 5G phones: few of them become failure-free, so prevalence falls by a few "
     "percent while frequency falls by about a third."},
    {"F20.5g_frequency_cut",
     "the avoidable-hazard share of 5G sessions (weak-NR camping, transition disruption) can "
     "only be bounded from the published figures; raising it starts to saturate the 0.9 "
     "per-session failure cap."},
    {"F20.setup_cut",
     "transition-dominated sessions fail as Data_Setup_Error 60% of the time and as Data_Stall "
     "40%, so removing transitions cuts setup errors more than the paper's 25.7% and stalls "
     "less than its 42.4%."},
    {"F20.oos_cut",
     "Out_of_Service comes from disrepair sites and OOS-prone phones, not from transitions, so "
     "the policy cuts it only through fewer failing sessions, and the few 5G Out_of_Service "
     "failures make the cut noisy (4-38% on the battery)."},
    {"F20.stall_cut", "see F20.setup_cut: the 60/40 setup/stall split of transition failures."},
    {"F21.total_duration_cut",
     "TIMP shortens Data_Stall only; on seeds where a days-long Data_Setup_Error record "
     "carries a large share of failure time (F4.stall_duration_share) the total cut falls "
     "below 28.8%."},
    {"F21.median_timp",
     "the median of all failures is set by Data_Setup_Error retry episodes (about 5 s), which "
     "the recovery schedule does not touch; moving it would need stalls to dominate the median, "
     "which conflicts with the 16 : 14 setup : stall mix."},
};

/// The +-20% band around a paper magnitude.
constexpr double kBand = 0.20;

Comparison magnitude(std::string id, double paper, double measured, std::string unit) {
  return {std::move(id), paper, measured, std::move(unit), paper * (1.0 - kBand),
          paper * (1.0 + kBand), ""};
}

Comparison within(std::string id, double paper, double measured, double lo, double hi,
                  std::string unit) {
  return {std::move(id), paper, measured, std::move(unit), lo, hi, ""};
}

/// An ordering or direction claim: every one of the relations must hold.
Comparison relations(std::string id, std::initializer_list<bool> held, std::string unit) {
  const auto total = static_cast<double>(held.size());
  const auto count = static_cast<double>(std::count(held.begin(), held.end(), true));
  return {std::move(id), total, count, std::move(unit), total, total, ""};
}

/// Percent reduction from `before` to `after` (negative when it grew).
double cut(double before, double after) {
  return before > 0.0 ? (1.0 - after / before) * 100.0 : 0.0;
}

query::QuerySpec five_g_breakdown() {
  query::QuerySpec spec;
  spec.name = "scorecard-fig20";
  spec.agg = query::AggKind::kTypeBreakdown;
  spec.group = query::GroupBy::kFiveG;
  return spec;
}

/// Fig. 20's per-type frequency on 5G phones: kept failures of each type
/// per 5G phone with any failure.
std::array<double, kFailureTypeCount> five_g_frequency_by_type(const CampaignResult& r) {
  CELLREL_CHECK(r.query_results.size() == 1 &&
                r.query_results[0].spec.group == query::GroupBy::kFiveG)
      << "scorecard campaigns carry exactly the 5G breakdown query";
  std::array<double, kFailureTypeCount> out{};
  const double failing = static_cast<double>(r.stream->by_5g_capability()[1].failing_devices);
  for (const auto& row : r.query_results[0].breakdown) {
    if (row.id != 1 || failing == 0.0) continue;
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
      out[t] = static_cast<double>(row.counts[t]) / failing;
    }
  }
  return out;
}

void landscape_claims(const CampaignResult& run, std::vector<Comparison>& claims) {
  const Aggregator& agg = *run.stream;
  const auto add = [&](Comparison c) { claims.push_back(std::move(c)); };

  // Table 1, Fig. 2, Fig. 5: the per-model landscape.
  const PrevalenceFrequency overall = agg.overall();
  add(magnitude("T1.prevalence", 23.0, overall.prevalence() * 100.0,
                "% of devices with >= 1 failure"));
  add(magnitude("T1.frequency", 33.0, overall.frequency(), "failures per failing device"));
  const auto by_model = agg.by_model();
  std::vector<double> paper_prevalence, paper_frequency, prevalence, frequency;
  for (const auto& spec : phone_models()) {
    const auto it = by_model.find(spec.model_id);
    const PrevalenceFrequency pf = it != by_model.end() ? it->second : PrevalenceFrequency{};
    paper_prevalence.push_back(spec.paper_prevalence);
    paper_frequency.push_back(spec.paper_frequency);
    prevalence.push_back(pf.prevalence());
    frequency.push_back(pf.frequency());
  }
  add(within("F2.model_prevalence_corr", 1.0,
             pearson_correlation(paper_prevalence, prevalence), 0.85, 1.0,
             "Pearson r with Table 1's prevalence column, 34 models"));

  // Fig. 3: the 16 / 14 / 3 split is per failing phone; times the ~23%
  // prevalence it is the per-device mean.
  const auto means = agg.mean_failures_per_device_by_type();
  add(magnitude("F3.setup_per_device", 16.0 * 0.23,
                means[index_of(FailureType::kDataSetupError)],
                "Data_Setup_Error per device (16 x 23%)"));
  add(magnitude("F3.stall_per_device", 14.0 * 0.23, means[index_of(FailureType::kDataStall)],
                "Data_Stall per device (14 x 23%)"));
  add(magnitude("F3.oos_per_device", 3.0 * 0.23, means[index_of(FailureType::kOutOfService)],
                "Out_of_Service per device (3 x 23%)"));

  // Fig. 4: failure durations.
  const SampleSet durations = agg.durations_all();
  add(magnitude("F4.mean_duration", 188.0, durations.mean(), "s, mean failure duration"));
  add(magnitude("F4.under_30s", 70.8, durations.fraction_below(30.0) * 100.0,
                "% of failures shorter than 30 s"));
  add(magnitude("F4.stall_duration_share", 94.0,
                agg.duration_share_by_type()[index_of(FailureType::kDataStall)] * 100.0,
                "% of failure duration that is Data_Stall"));

  add(within("F5.model_frequency_corr", 1.0, pearson_correlation(paper_frequency, frequency),
             0.85, 1.0, "Pearson r with Table 1's frequency column, 34 models"));

  // Fig. 6/7 and 8/9: device cohorts, each with the paper's fair-comparison
  // control (Android 10 only; non-5G only).
  const auto g5 = agg.by_5g_capability();
  const auto g5_a10 = agg.by_5g_capability(/*android10_only=*/true);
  add(relations("F6_7.5g_worse",
                {g5[1].prevalence() > g5[0].prevalence(), g5[1].frequency() > g5[0].frequency(),
                 g5_a10[1].prevalence() > g5_a10[0].prevalence(),
                 g5_a10[1].frequency() > g5_a10[0].frequency()},
                "5G > non-5G in prevalence, frequency; all and Android 10 only"));
  const auto os = agg.by_android_version();
  const auto os_non5g = agg.by_android_version(/*exclude_5g=*/true);
  add(relations("F8_9.android10_worse",
                {os[1].prevalence() > os[0].prevalence(), os[1].frequency() > os[0].frequency(),
                 os_non5g[1].prevalence() > os_non5g[0].prevalence(),
                 os_non5g[1].frequency() > os_non5g[0].frequency()},
                "Android 10 > 9 in prevalence, frequency; all and non-5G only"));

  // Fig. 10: the probing ladder resolves on 5 s rounds, so a stall fixed
  // within t seconds is measured as at most t + 5 s (+0.2 s probe latency).
  const SampleSet stalls = agg.durations_of(FailureType::kDataStall);
  add(magnitude("F10.fixed_within_10s", 60.0, stalls.fraction_below(15.2) * 100.0,
                "% of Data_Stall, measured at 10 s + 5 s probe error"));
  add(magnitude("F10.fixed_within_30s", 70.0, stalls.fraction_below(35.2) * 100.0,
                "% of Data_Stall, measured at 30 s + 5 s"));
  add(within("F10.fixed_within_300s", 80.0, stalls.fraction_below(305.2) * 100.0, 80.0, 100.0,
             "% of Data_Stall, measured at 300 s + 5 s (section 2.2: > 80%)"));
  double fixed_by_stage = 0.0;
  double fixed_by_first_cleanup = 0.0;
  for (const auto& ep : run.recovery_episodes) {
    if (ep.outcome != RecoveryOutcome::kFixedByStage) continue;
    ++fixed_by_stage;
    if (ep.fixed_by == RecoveryStage::kCleanupConnection && ep.cycles == 0) {
      ++fixed_by_first_cleanup;
    }
  }
  add(magnitude("F10.stage1_share", 75.0,
                fixed_by_stage > 0.0 ? fixed_by_first_cleanup / fixed_by_stage * 100.0 : 0.0,
                "% of stage-fixed stalls fixed by the first stage-1 run"));

  // Fig. 11: the BS failure ranking. r^2 cannot exceed 1, so its band is
  // one-sided.
  const ZipfFit fit = agg.bs_zipf_fit();
  add(magnitude("F11.zipf_exponent", 0.82, fit.a, "Zipf a of the BS failure ranking"));
  add(within("F11.zipf_r2", 1.0, fit.r_squared, 1.0 - kBand, 1.0,
             "log-log fit r^2 (paper: visually linear)"));
  add(magnitude("F11.median_per_bs", 1.0, static_cast<double>(agg.bs_ranking_stats().median),
                "failures on the median failing BS"));

  // Fig. 12/13: ISPs.
  const auto isp = agg.by_isp();
  const auto& a = isp[index_of(IspId::kIspA)];
  const auto& b = isp[index_of(IspId::kIspB)];
  const auto& c = isp[index_of(IspId::kIspC)];
  add(relations("F12.prevalence_order",
                {b.prevalence() > a.prevalence(), a.prevalence() > c.prevalence()},
                "ISP-B > ISP-A > ISP-C prevalence"));
  add(magnitude("F12.isp_a_prevalence", 20.1, a.prevalence() * 100.0, "% of ISP-A devices"));
  add(magnitude("F12.isp_b_prevalence", 27.1, b.prevalence() * 100.0, "% of ISP-B devices"));
  add(magnitude("F12.isp_c_prevalence", 14.7, c.prevalence() * 100.0, "% of ISP-C devices"));
  add(relations("F13.frequency_order",
                {b.frequency() > a.frequency(), a.frequency() > c.frequency()},
                "ISP-B > ISP-A > ISP-C frequency"));

  // Fig. 14-16: BS technology and signal level.
  const auto by_rat = agg.bs_prevalence_by_rat();
  const double bs_3g = by_rat[index_of(Rat::k3G)];
  add(relations("F14.3g_dip",
                {bs_3g < by_rat[index_of(Rat::k2G)], bs_3g < by_rat[index_of(Rat::k4G)]},
                "3G BS prevalence below 2G and 4G"));
  const auto level = agg.normalized_prevalence_by_level();
  add(relations("F15.monotone_l0_l4",
                {level[1] < level[0], level[2] < level[1], level[3] < level[2],
                 level[4] < level[3]},
                "normalized prevalence falls at each step L0 -> L4"));
  add(relations("F15.l5_above_l1_l4",
                {level[5] > level[1], level[5] > level[2], level[5] > level[3],
                 level[5] > level[4]},
                "level-5 normalized prevalence above each of L1..L4"));
  const auto rat_level = agg.normalized_prevalence_by_rat_level();
  const auto& l4g = rat_level[index_of(Rat::k4G)];
  const auto& l5g = rat_level[index_of(Rat::k5G)];
  add(relations("F16.5g_riskier",
                {l5g[0] > l4g[0], l5g[1] > l4g[1], l5g[2] > l4g[2], l5g[3] > l4g[3],
                 l5g[4] > l4g[4], l5g[5] > l4g[5]},
                "levels 0..5 where 5G is riskier than 4G"));

  // Fig. 17(f): the darkest 4G level-i -> 5G level-0 cell, i in 1..4.
  const auto f = agg.transition_increase(Rat::k4G, Rat::k5G);
  double darkest = 0.0;
  int darkest_row = 0;
  for (int i = 1; i <= 4; ++i) {
    if (f[i][0] > darkest) {
      darkest = f[i][0];
      darkest_row = i;
    }
  }
  add(within("F17.f_darkest_level0_row", 4.0, darkest_row, 4.0, 4.0,
             "i of the darkest 4G L(i) -> 5G L0 cell"));
  add(magnitude("F17.f_darkest_level0_increase", 0.37, darkest,
                "failure-probability increase of that cell"));

  // Table 2: Data_Setup_Error codes after false-positive removal.
  constexpr FailCause kPaperTop10[] = {
      FailCause::kGprsRegistrationFail, FailCause::kSignalLost,
      FailCause::kNoService,            FailCause::kInvalidEmmState,
      FailCause::kUnpreferredRat,       FailCause::kPppTimeout,
      FailCause::kNoHybridHdrService,   FailCause::kPdpLowerlayerError,
      FailCause::kMaxAccessProbe,       FailCause::kIratHandoverFailed,
  };
  const auto codes = agg.top_error_codes(10);
  double top10 = 0.0;
  double gprs = 0.0;
  for (const auto& code : codes) {
    top10 += code.percent;
    if (code.cause == FailCause::kGprsRegistrationFail) gprs = code.percent;
  }
  add(relations("T2.top_code", {!codes.empty() && codes[0].cause == kPaperTop10[0]},
                "#1 code is GPRS_REGISTRATION_FAIL"));
  add(magnitude("T2.gprs_registration_share", 12.8, gprs,
                "% of Data_Setup_Error that is GPRS_REGISTRATION_FAIL"));
  add(magnitude("T2.top10_share", 46.7, top10, "% of Data_Setup_Error in the top 10 codes"));
  const auto overlap = std::count_if(codes.begin(), codes.end(), [&](const auto& code) {
    return std::find(std::begin(kPaperTop10), std::end(kPaperTop10), code.cause) !=
           std::end(kPaperTop10);
  });
  add(within("T2.top10_overlap", 10.0, static_cast<double>(overlap), 10.0, 10.0,
             "codes of the paper's top 10 in the measured top 10"));
}

void policy_claims(const CampaignResult& baseline, const CampaignResult& stability,
                   const CampaignResult& timp_run, std::vector<Comparison>& claims) {
  const auto add = [&](Comparison c) { claims.push_back(std::move(c)); };

  // Fig. 19/20: stock vs stability-compatible RAT transition.
  const auto v = baseline.stream->by_5g_capability();
  const auto e = stability.stream->by_5g_capability();
  add(relations("F19_20.only_5g_improves",
                {e[1].prevalence() < v[1].prevalence(), e[1].frequency() < v[1].frequency(),
                 e[0].failing_devices == v[0].failing_devices && e[0].failures == v[0].failures},
                "5G prevalence and frequency fall; non-5G unchanged"));
  add(magnitude("F19.5g_prevalence_cut", 10.0, cut(v[1].prevalence(), e[1].prevalence()),
                "% fewer failing 5G phones"));
  add(magnitude("F20.5g_frequency_cut", 40.3, cut(v[1].frequency(), e[1].frequency()),
                "% fewer failures per failing 5G phone"));
  const auto tv = five_g_frequency_by_type(baseline);
  const auto te = five_g_frequency_by_type(stability);
  const auto type_cut = [&](FailureType t) { return cut(tv[index_of(t)], te[index_of(t)]); };
  add(magnitude("F20.setup_cut", 25.7, type_cut(FailureType::kDataSetupError),
                "% fewer Data_Setup_Error per failing 5G phone"));
  add(magnitude("F20.oos_cut", 50.3, type_cut(FailureType::kOutOfService),
                "% fewer Out_of_Service per failing 5G phone"));
  add(magnitude("F20.stall_cut", 42.4, type_cut(FailureType::kDataStall),
                "% fewer Data_Stall per failing 5G phone"));

  // Fig. 21: vanilla vs TIMP-optimized Data_Stall recovery.
  const Aggregator& vanilla = *baseline.stream;
  const Aggregator& timp = *timp_run.stream;
  add(within("F21.stall_duration_cut", 38.0,
             cut(vanilla.durations_of(FailureType::kDataStall).mean(),
                 timp.durations_of(FailureType::kDataStall).mean()),
             30.0, 45.0, "% shorter mean Data_Stall"));
  add(magnitude("F21.total_duration_cut", 36.0,
                cut(vanilla.durations_all().sum(), timp.durations_all().sum()),
                "% less total failure duration"));
  add(magnitude("F21.median_vanilla", 6.0, vanilla.durations_all().median(),
                "s, median failure, vanilla"));
  add(magnitude("F21.median_timp", 2.0, timp.durations_all().median(), "s, median failure, TIMP"));
}

}  // namespace

Runs run_campaigns(Scenario base) {
  base.stream = true;
  base.inline_queries = {five_g_breakdown()};
  Scenario stability = base;
  stability.policy = PolicyVariant::kStabilityCompatible;
  Scenario timp = base;
  timp.recovery = RecoveryVariant::kTimpOptimized;
  return Runs{Campaign(base).run(), Campaign(stability).run(), Campaign(timp).run()};
}

std::vector<Comparison> evaluate(const CampaignResult& baseline, const CampaignResult& stability,
                                 const CampaignResult& timp) {
  std::vector<Comparison> claims;
  landscape_claims(baseline, claims);
  policy_claims(baseline, stability, timp, claims);
  for (const auto& [id, reason] : kExpectedDeviations) {
    const auto it = std::find_if(claims.begin(), claims.end(),
                                 [&](const Comparison& c) { return c.metric == id; });
    CELLREL_CHECK(it != claims.end()) << "expected deviation names no claim: " << id;
    it->expected_deviation = reason;
  }
  return claims;
}

std::vector<std::string> failing_claims(std::span<const Comparison> claims) {
  std::vector<std::string> ids;
  for (const auto& c : claims) {
    if (c.verdict() == "FAIL") ids.push_back(c.metric);
  }
  return ids;
}

std::string render(std::span<const Comparison> claims, std::uint64_t seed) {
  std::string out = "Paper-fidelity scorecard: " + std::to_string(kDevices) + " devices, " +
                    std::to_string(kBaseStations) + " BSes, seed " + std::to_string(seed) +
                    "; baseline, stability-compatible policy and TIMP recovery campaigns.\n\n";
  out += render_comparisons(claims);
  out += "\nExpected deviations:\n\n";
  for (const auto& c : claims) {
    if (c.expected_deviation.empty()) continue;
    out += "- `" + c.metric + "` (" + std::string(c.verdict()) + " here): " +
           c.expected_deviation + "\n";
  }
  return out;
}

}  // namespace cellrel::scorecard

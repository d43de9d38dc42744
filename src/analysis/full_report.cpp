#include "analysis/full_report.h"

#include <cstdio>

#include "analysis/aggregate.h"
#include "analysis/report.h"
#include "device/phone_model.h"

namespace cellrel {

namespace {

void append_f(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
}

}  // namespace

std::string render_full_report(const Aggregator& agg) {
  std::string out = "# Cellular reliability campaign report\n\n";

  // --- General statistics (§3.1) ---
  out += "## General statistics\n\n";
  const auto overall = agg.overall();
  append_f(out, "- devices: %llu (failing: %llu, prevalence %.1f%%)\n",
           static_cast<unsigned long long>(overall.devices),
           static_cast<unsigned long long>(overall.failing_devices),
           overall.prevalence() * 100.0);
  append_f(out, "- kept failures: %llu (frequency %.1f per failing device)\n",
           static_cast<unsigned long long>(overall.failures), overall.frequency());
  const auto means = agg.mean_failures_per_device_by_type();
  append_f(out, "- per-device means: setup %.2f / stall %.2f / OOS %.2f / legacy %.3f\n",
           means[index_of(FailureType::kDataSetupError)],
           means[index_of(FailureType::kDataStall)],
           means[index_of(FailureType::kOutOfService)],
           means[index_of(FailureType::kSmsSendFail)] +
               means[index_of(FailureType::kVoiceCallDrop)]);
  const SampleSet durations = agg.durations_all();
  const auto share = agg.duration_share_by_type();
  append_f(out,
           "- duration: mean %.0f s, median %.1f s, p95 %.0f s, max %.0f s; "
           "<30 s: %.1f%%; Data_Stall share %.1f%%\n",
           durations.mean(), durations.median(), durations.quantile(0.95), durations.max(),
           durations.fraction_below(30.0) * 100.0,
           share[index_of(FailureType::kDataStall)] * 100.0);
  // Filter scoring needs the simulation's ground-truth labels; an imported
  // dataset (like the real backend's) does not carry them.
  if (agg.has_ground_truth()) {
    const auto fscore = agg.filter_score();
    append_f(out, "- false-positive filter: precision %.3f, recall %.3f\n",
             fscore.precision(), fscore.recall());
  }
  append_f(out, "- records filtered as false positives: %llu of %llu\n\n",
           static_cast<unsigned long long>(agg.filtered_records()),
           static_cast<unsigned long long>(agg.total_records()));

  out += "Failure duration CDF (seconds):\n\n```\n";
  out += render_cdf(durations, default_cdf_quantiles());
  out += "```\n\n";

  // --- Phone landscape (§3.2) ---
  out += "## Android phone landscape\n\n";
  const auto by5g = agg.by_5g_capability();
  append_f(out, "- 5G models: prevalence %.1f%% / frequency %.1f vs non-5G %.1f%% / %.1f\n",
           by5g[1].prevalence() * 100.0, by5g[1].frequency(),
           by5g[0].prevalence() * 100.0, by5g[0].frequency());
  const auto by_android = agg.by_android_version();
  append_f(out, "- Android 10: prevalence %.1f%% vs Android 9 %.1f%%\n\n",
           by_android[1].prevalence() * 100.0, by_android[0].prevalence() * 100.0);

  const auto by_model = agg.by_model();
  TextTable table({"model", "5G", "android", "devices", "prevalence", "frequency"});
  for (const auto& spec : phone_models()) {
    const auto it = by_model.find(spec.model_id);
    const PrevalenceFrequency pf = it != by_model.end() ? it->second : PrevalenceFrequency{};
    table.add_row({std::to_string(spec.model_id), spec.has_5g ? "YES" : "-",
                   spec.android == AndroidVersion::kAndroid10 ? "10.0" : "9.0",
                   std::to_string(pf.devices), TextTable::percent(pf.prevalence()),
                   TextTable::num(pf.frequency(), 1)});
  }
  out += table.render();
  out += "\n";

  out += "Top Data_Setup_Error codes (false positives removed):\n\n";
  TextTable codes({"rank", "code", "share"});
  const auto top = agg.top_error_codes(10);
  for (std::size_t i = 0; i < top.size(); ++i) {
    codes.add_row({std::to_string(i + 1), std::string(to_string(top[i].cause)),
                   TextTable::num(top[i].percent, 1) + "%"});
  }
  out += codes.render();
  out += "\n";

  // --- ISP / BS landscape (§3.3) ---
  out += "## ISP and base-station landscape\n\n";
  TextTable isps({"ISP", "devices", "prevalence", "frequency"});
  const auto by_isp = agg.by_isp();
  for (IspId isp : kAllIsps) {
    const auto& pf = by_isp[index_of(isp)];
    isps.add_row({std::string(to_string(isp)), std::to_string(pf.devices),
                  TextTable::percent(pf.prevalence()), TextTable::num(pf.frequency(), 1)});
  }
  out += isps.render();
  out += "\n";

  const auto fit = agg.bs_zipf_fit();
  const auto stats = agg.bs_ranking_stats();
  append_f(out,
           "- BS failure ranking: Zipf a = %.2f (r2 %.2f); median %llu, mean %.1f, "
           "max %llu over %llu BSes (%llu with failures)\n",
           fit.a, fit.r_squared, static_cast<unsigned long long>(stats.median), stats.mean,
           static_cast<unsigned long long>(stats.max),
           static_cast<unsigned long long>(stats.total),
           static_cast<unsigned long long>(stats.with_failures));
  const auto by_rat = agg.bs_prevalence_by_rat();
  append_f(out, "- BS prevalence by RAT: 2G %.2f / 3G %.2f / 4G %.2f / 5G %.2f\n",
           by_rat[0], by_rat[1], by_rat[2], by_rat[3]);
  const auto norm = agg.normalized_prevalence_by_level();
  out += "- normalized prevalence by signal level:";
  for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
    append_f(out, " L%zu=%.4f", l, norm[l]);
  }
  out += "\n\n";

  out += "## RAT transition risk (increase of failure probability)\n\n```\n";
  const std::pair<Rat, Rat> panels[] = {{Rat::k2G, Rat::k3G}, {Rat::k2G, Rat::k4G},
                                        {Rat::k2G, Rat::k5G}, {Rat::k3G, Rat::k4G},
                                        {Rat::k3G, Rat::k5G}, {Rat::k4G, Rat::k5G}};
  for (const auto& [from, to] : panels) {
    out += render_transition_matrix(agg.transition_increase(from, to),
                                    std::string(to_string(from)) + " level-i -> " +
                                        std::string(to_string(to)) + " level-j");
    out += "\n";
  }
  out += "```\n";
  return out;
}

}  // namespace cellrel

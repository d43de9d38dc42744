#include "query/presets.h"

#include <array>
#include <string>

#include "common/check.h"

namespace cellrel::query {

namespace {

// "mobility" and "incident" are scenario-pack views (DESIGN.md §13):
// "mobility" surfaces how a waypoint-driven fleet redistributes failure load
// across serving RATs; "incident" ranks the hottest cells, where degraded
// clusters and outage regions rise to the head of the Fig. 11 Zipf curve.
constexpr std::array<PresetInfo, 16> kPresets = {{
    {"fig2", "failure prevalence per phone model (Fig. 2)",
     "agg=pf group=model series=prevalence"},
    {"fig3", "failure type mix: kept failures per type (Fig. 3)",
     "agg=breakdown group=none"},
    {"fig4", "failure duration CDF, canonical seconds (Fig. 4)",
     "agg=cdf group=none"},
    {"fig5", "failure frequency per phone model (Fig. 5)",
     "agg=pf group=model series=frequency precision=1"},
    {"fig6", "failure prevalence: non-5G vs 5G models (Fig. 6)",
     "agg=pf group=fiveg series=prevalence"},
    {"fig7", "failure frequency: non-5G vs 5G models (Fig. 7)",
     "agg=pf group=fiveg series=frequency precision=1"},
    {"fig8", "failure prevalence: Android 9 vs Android 10 (Fig. 8)",
     "agg=pf group=android series=prevalence"},
    {"fig9", "failure frequency: Android 9 vs Android 10 (Fig. 9)",
     "agg=pf group=android series=frequency precision=1"},
    {"fig10", "Data_Stall duration CDF, canonical seconds (Fig. 10)",
     "agg=cdf group=none type=Data_Stall"},
    {"fig11", "top base stations by kept failures, Zipf head (Fig. 11)",
     "agg=topk group=bs k=10"},
    {"fig12", "failure prevalence per ISP (Fig. 12)",
     "agg=pf group=isp series=prevalence"},
    {"fig13", "failure frequency per ISP (Fig. 13)",
     "agg=pf group=isp series=frequency precision=1"},
    {"fig17", "4G->5G transition failure-probability increase (Fig. 17)",
     "agg=transition group=none from=4G to=5G"},
    {"table2", "top Data_Setup_Error causes by share (Table 2)",
     "agg=topk group=cause k=10 type=Data_Setup_Error"},
    {"mobility", "failure frequency per serving RAT (handover workload view)",
     "agg=pf group=rat series=frequency precision=1"},
    {"incident", "hottest base stations by kept failures (incident triage)",
     "agg=topk group=bs k=20"},
}};

}  // namespace

std::span<const PresetInfo> preset_table() { return kPresets; }

std::optional<QuerySpec> find_preset(std::string_view name) {
  for (const PresetInfo& info : kPresets) {
    if (info.name != name) continue;
    std::string error;
    std::optional<QuerySpec> spec = parse_query_spec(info.spec, &error);
    CELLREL_CHECK(spec.has_value()) << "preset " << name << ": " << error;
    spec->name = std::string(name);
    return spec;
  }
  return std::nullopt;
}

std::string render_preset_list() {
  std::string out;
  for (const PresetInfo& info : kPresets) {
    out += std::string(info.name);
    out.append(info.name.size() < 8 ? 8 - info.name.size() : 1, ' ');
    out += std::string(info.description);
    out += "\n        spec: " + std::string(info.spec) + "\n";
  }
  return out;
}

}  // namespace cellrel::query

// The paper-fidelity scorecard behind `cellrel_scorecard`: four campaigns
// sharing one seed (the stock baseline, the stability-compatible RAT policy,
// the TIMP-optimized recovery and vanilla stall detection without probing)
// and every §2.2/§3/§4 claim of the paper evaluated over them as a
// Comparison row with a stated tolerance.
//
// Tolerances come from the paper, never from measured values:
//   - an ordering or direction claim counts the relations that hold and
//     must hold all of them;
//   - a magnitude must land within +-20% of the paper value, the band the
//     paper's Fig. 21 stall-duration cut (30-45% around 38%) sets;
//   - a stated budget or floor ("below 2%", "over 95%") is the range it
//     names;
//   - a per-model correlation with the paper's Table 1 column must reach
//     0.85.
// Scale-limited magnitudes (per-BS and per-phone maxima, the mean per BS,
// the longest failure) grow with the 70M-device fleet and are not claims.

#ifndef CELLREL_TOOLS_SCORECARD_H
#define CELLREL_TOOLS_SCORECARD_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "workload/campaign.h"

namespace cellrel::scorecard {

/// The bench scale every scorecard runs at.
inline constexpr std::uint32_t kDevices = 4000;
inline constexpr std::uint32_t kBaseStations = 8000;

/// The four campaigns one scorecard compares. `baseline` is the vanilla
/// side of the Fig. 19/20 and Fig. 21 pairs and the probing side of §2.2's.
struct Runs {
  Scenario scenario;         // the baseline's, as run
  CampaignResult baseline;
  CampaignResult stability;  // PolicyVariant::kStabilityCompatible
  CampaignResult timp;       // RecoveryVariant::kTimpOptimized
  CampaignResult unprobed;   // Scenario::monitor_probing = false
};

/// Runs `base` (stock policy, vanilla recovery, probing monitor) and its
/// three variants as streaming campaigns carrying the inline query the
/// Fig. 20 per-type claims read.
Runs run_campaigns(Scenario base);

/// Every claim, in DESIGN.md §3's order. `scenario` supplies the seed the
/// §4.2 data-rate check draws from and the campaign length the overhead
/// rates divide by; every run must come from run_campaigns(scenario).
std::vector<Comparison> evaluate(const Scenario& scenario, const CampaignResult& baseline,
                                 const CampaignResult& stability, const CampaignResult& timp,
                                 const CampaignResult& unprobed);

/// Ids of the claims whose verdict is FAIL (they miss and carry no
/// expected_deviation reason). Non-empty means the scorecard exits 1.
std::vector<std::string> failing_claims(std::span<const Comparison> claims);

/// The whole report: a header naming the scale and seed, the claim table,
/// and every expected_deviation reason. Markdown, deterministic for a seed
/// (EXPERIMENTS.md embeds the seed-20200101 copy verbatim).
std::string render(std::span<const Comparison> claims, std::uint64_t seed);

}  // namespace cellrel::scorecard

#endif  // CELLREL_TOOLS_SCORECARD_H

// The paper-fidelity scorecard behind `cellrel_scorecard`: three campaigns
// sharing one seed (the stock baseline, the stability-compatible RAT policy
// and the TIMP-optimized recovery) and every §3/§4 claim of the paper
// evaluated over them as a Comparison row with a stated tolerance.
//
// Tolerances come from the paper, never from measured values:
//   - an ordering or direction claim counts the relations that hold and
//     must hold all of them;
//   - a magnitude must land within +-20% of the paper value, the band the
//     paper's Fig. 21 stall-duration cut (30-45% around 38%) sets;
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

/// The three campaigns one scorecard compares. `baseline` is the vanilla
/// side of both A/B pairs (Fig. 19/20 and Fig. 21).
struct Runs {
  CampaignResult baseline;
  CampaignResult stability;  // PolicyVariant::kStabilityCompatible
  CampaignResult timp;       // RecoveryVariant::kTimpOptimized
};

/// Runs `base` (stock policy, vanilla recovery) and its two variants as
/// streaming campaigns carrying the inline query the Fig. 20 per-type
/// claims read.
Runs run_campaigns(Scenario base);

/// Every claim, in paper order (DESIGN.md §3). `baseline` is the vanilla
/// side of both A/B pairs; every run must come from run_campaigns.
std::vector<Comparison> evaluate(const CampaignResult& baseline, const CampaignResult& stability,
                                 const CampaignResult& timp);

/// Ids of the claims whose verdict is FAIL (they miss and carry no
/// expected_deviation reason). Non-empty means the scorecard exits 1.
std::vector<std::string> failing_claims(std::span<const Comparison> claims);

/// The whole report: a header naming the scale and seed, the claim table,
/// and every expected_deviation reason. Markdown, deterministic for a seed
/// (EXPERIMENTS.md embeds the seed-20200101 copy verbatim).
std::string render(std::span<const Comparison> claims, std::uint64_t seed);

}  // namespace cellrel::scorecard

#endif  // CELLREL_TOOLS_SCORECARD_H

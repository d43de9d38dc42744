// RAT selection policies (§3.2, §4.2).
//
// Android 10's policy blindly prefers 5G during RAT transition; the paper
// shows this drives failures (Fig. 17) and replaces it with a
// stability-compatible policy that weighs each candidate's failure risk
// (normalized prevalence per RAT x signal level) against its data-rate
// benefit, refusing transitions into level-0 targets.

#ifndef CELLREL_TELEPHONY_RAT_POLICY_H
#define CELLREL_TELEPHONY_RAT_POLICY_H

#include <array>
#include <optional>
#include <span>
#include <string_view>

#include "bs/registry.h"
#include "radio/rat.h"
#include "radio/signal.h"

namespace cellrel {

/// Normalized prevalence (failure likelihood) per (RAT, signal level); the
/// quantity plotted in Fig. 15/16. Values are per connected-time-unit
/// likelihoods in [0, 1].
struct RatLevelRiskTable {
  std::array<std::array<double, kSignalLevelCount>, kRatCount> risk{};

  double at(Rat rat, SignalLevel level) const {
    return risk[index_of(rat)][index_of(level)];
  }
};

/// The calibrated risk table used across the reproduction. Shapes encode
/// Fig. 15 (monotone decrease levels 0..4, level-5 anomaly) and Fig. 16
/// (5G riskier than 4G at equal levels, widest gap at level 0).
const RatLevelRiskTable& default_risk_table();

/// Nominal peak data rate (Mbps) of a candidate; drives the benefit term.
double nominal_data_rate_mbps(Rat rat, SignalLevel level);

/// Strategy interface for cell (re)selection.
class RatSelectionPolicy {
 public:
  virtual ~RatSelectionPolicy() = default;
  virtual std::string_view name() const = 0;

  /// Picks the candidate to camp on, or nullopt to stay put. `current` is
  /// the currently serving candidate, if any.
  virtual std::optional<CellCandidate> choose(
      std::span<const CellCandidate> candidates,
      const std::optional<CellCandidate>& current) const = 0;
};

/// Android 9: prefers the newest pre-5G RAT; never selects NR.
class Android9Policy final : public RatSelectionPolicy {
 public:
  std::string_view name() const override { return "android9"; }
  std::optional<CellCandidate> choose(
      std::span<const CellCandidate> candidates,
      const std::optional<CellCandidate>& current) const override;
};

/// Android 10: blindly prioritizes 5G over every other RAT, regardless of
/// signal level (the aggressive behaviour §3.2 identifies).
class Android10Policy final : public RatSelectionPolicy {
 public:
  std::string_view name() const override { return "android10-aggressive-5g"; }
  std::optional<CellCandidate> choose(
      std::span<const CellCandidate> candidates,
      const std::optional<CellCandidate>& current) const override;
};

/// The paper's Stability-Compatible RAT Transition (§4.2): candidates are
/// scored by data-rate benefit minus failure-risk penalty (the default risk
/// table, weighted by kRiskWeight); transitions into level-0 targets are
/// refused when any non-level-0 alternative exists.
class StabilityCompatiblePolicy final : public RatSelectionPolicy {
 public:
  /// Mbps of nominal data rate one unit of normalized risk costs.
  static constexpr double kRiskWeight = 600.0;

  std::string_view name() const override { return "stability-compatible"; }
  std::optional<CellCandidate> choose(
      std::span<const CellCandidate> candidates,
      const std::optional<CellCandidate>& current) const override;

 private:
  double score(const CellCandidate& c) const;
  const RatLevelRiskTable& table_ = default_risk_table();
};

/// The stock policy of an Android version (stateless, shared by every caller).
const RatSelectionPolicy& policy_for_android(int android_version);

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_RAT_POLICY_H

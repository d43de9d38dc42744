#include "timp/recovery_optimizer.h"

#include "common/check.h"
#include "timp/annealing.h"

namespace cellrel {

namespace {
/// Probation bounds the Android recovery config accepts, in seconds.
constexpr double kMinProbationS = 1.0;
constexpr double kMaxProbationS = 120.0;
/// Deterministic annealing stream.
constexpr std::uint64_t kAnnealingSeed = 0x7469'6d70ULL;
}  // namespace

RecoveryOptimizer::RecoveryOptimizer(TimpModel model) : model_(std::move(model)) {}

OptimizedRecovery RecoveryOptimizer::optimize() const {
  AnnealingConfig<3> cfg;
  cfg.lower = {kMinProbationS, kMinProbationS, kMinProbationS};
  cfg.upper = {kMaxProbationS, kMaxProbationS, kMaxProbationS};
  cfg.initial = {60.0, 60.0, 60.0};  // start from the vanilla schedule
  cfg.initial_temperature = 2.0;

  const auto objective = [this](const std::array<double, 3>& p) {
    return model_.expected_recovery_time(p);
  };
  const AnnealingResult<3> r =
      anneal<3>(cfg, objective, Rng{kAnnealingSeed});

  // The annealer must respect the probation box constraints: a schedule
  // outside [min, max] would be rejected by the Android recovery config.
  for (double p : r.best) {
    CELLREL_CHECK(p >= kMinProbationS && p <= kMaxProbationS)
        << "annealer escaped the probation bounds: " << p << " not in [" << kMinProbationS
        << ", " << kMaxProbationS << "]";
  }

  OptimizedRecovery out;
  out.probations_s = r.best;
  out.expected_recovery_s = r.best_value;
  out.vanilla_expected_recovery_s = model_.expected_recovery_time({60.0, 60.0, 60.0});
  out.evaluations = r.evaluations;
  return out;
}

}  // namespace cellrel

// Probation-schedule optimizer: TIMP + annealing (§4.2).
//
// Given measured Data_Stall durations (or the calibrated auto-recovery
// curve), builds the TIMP, minimizes Eq. 1's T_recovery over the probation
// triple by simulated annealing, and reports the optimized schedule next to
// the vanilla {60, 60, 60} baseline. The paper obtains {21, 6, 16} s with
// T_recovery = 27.8 s vs 38 s for vanilla.

#ifndef CELLREL_TIMP_RECOVERY_OPTIMIZER_H
#define CELLREL_TIMP_RECOVERY_OPTIMIZER_H

#include <array>
#include <cstdint>

#include "timp/timp_model.h"

namespace cellrel {

struct OptimizedRecovery {
  std::array<double, 3> probations_s{};   // optimized Pro_0..Pro_2
  double expected_recovery_s = 0.0;       // T_recovery at the optimum
  double vanilla_expected_recovery_s = 0.0;  // T_recovery at {60,60,60}
  std::uint64_t evaluations = 0;
};

class RecoveryOptimizer {
 public:
  explicit RecoveryOptimizer(TimpModel model);

  /// Runs the optimization over probations in [1, 120] s, from a fixed
  /// annealing seed.
  OptimizedRecovery optimize() const;

  const TimpModel& model() const { return model_; }

 private:
  TimpModel model_;
};

}  // namespace cellrel

#endif  // CELLREL_TIMP_RECOVERY_OPTIMIZER_H

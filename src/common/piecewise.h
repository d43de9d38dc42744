// Piecewise-defined empirical distributions.
//
// The workload calibration anchors heavy-tailed quantities (e.g. Data_Stall
// durations) at the CDF points the paper publishes ("60% fixed within 10 s",
// "70.8% of failures last < 30 s", "maximum 91,770 s"). PiecewiseCdf turns a
// handful of such (value, cumulative) anchors into a full distribution by
// log-linear interpolation, supporting both sampling (inverse transform) and
// evaluation (for the TIMP recovery-probability curves).

#ifndef CELLREL_COMMON_PIECEWISE_H
#define CELLREL_COMMON_PIECEWISE_H

#include <initializer_list>
#include <span>
#include <vector>

#include "common/rng.h"

namespace cellrel {

/// A CDF defined by interpolation between anchor points.
///
/// Anchors must be strictly increasing in both value and cumulative
/// probability; the first anchor's cumulative may be > 0 (mass below it is
/// spread linearly from value 0). Interpolation between anchors is linear in
/// log(value) so heavy tails are represented faithfully.
class PiecewiseCdf {
 public:
  struct Anchor {
    double value;
    double cumulative;
  };

  PiecewiseCdf(std::initializer_list<Anchor> anchors);
  explicit PiecewiseCdf(std::vector<Anchor> anchors);

  /// P(X <= v).
  double cdf(double v) const;

  /// Inverse CDF: the value at cumulative probability u in [0,1].
  double quantile(double u) const;

  /// Draws one sample by inverse transform.
  double sample(Rng& rng) const { return quantile(rng.next_double()); }

  std::span<const Anchor> anchors() const { return anchors_; }

 private:
  void validate() const;
  std::vector<Anchor> anchors_;
};

}  // namespace cellrel

#endif  // CELLREL_COMMON_PIECEWISE_H

// Batch statistics used throughout the analysis pipeline.

#ifndef CELLREL_COMMON_STATS_H
#define CELLREL_COMMON_STATS_H

#include <cstddef>
#include <span>
#include <vector>

namespace cellrel {

/// Batch sample container with exact quantiles; samples are stored and
/// sorted lazily on first query.
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double sum() const;
  double min() const;
  double max() const;
  /// Quantile q in [0,1] with linear interpolation between order statistics.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  /// Fraction of samples strictly below the threshold.
  double fraction_below(double threshold) const;

  /// Sorted view of the samples (sorts on demand).
  std::span<const double> sorted() const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Linear regression y = slope*x + intercept via least squares.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};
LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys);

/// Pearson correlation coefficient; 0 if either side is constant.
double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

}  // namespace cellrel

#endif  // CELLREL_COMMON_STATS_H

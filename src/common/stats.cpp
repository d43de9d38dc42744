#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace cellrel {

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double SampleSet::sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double SampleSet::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleSet::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double SampleSet::fraction_below(double threshold) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::lower_bound(samples_.begin(), samples_.end(), threshold);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

std::span<const double> SampleSet::sorted() const {
  ensure_sorted();
  return samples_;
}

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

double pearson_correlation(std::span<const double> xs, std::span<const double> ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace cellrel

#include "common/piecewise.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cellrel {

PiecewiseCdf::PiecewiseCdf(std::initializer_list<Anchor> anchors)
    : anchors_(anchors) {
  validate();
}

PiecewiseCdf::PiecewiseCdf(std::vector<Anchor> anchors) : anchors_(std::move(anchors)) {
  validate();
}

void PiecewiseCdf::validate() const {
  if (anchors_.size() < 2) throw std::invalid_argument("PiecewiseCdf: need >= 2 anchors");
  for (std::size_t i = 0; i < anchors_.size(); ++i) {
    const auto& a = anchors_[i];
    if (a.value <= 0.0) throw std::invalid_argument("PiecewiseCdf: values must be > 0");
    if (a.cumulative < 0.0 || a.cumulative > 1.0) {
      throw std::invalid_argument("PiecewiseCdf: cumulative must be in [0,1]");
    }
    if (i > 0) {
      if (a.value <= anchors_[i - 1].value || a.cumulative <= anchors_[i - 1].cumulative) {
        throw std::invalid_argument("PiecewiseCdf: anchors must be strictly increasing");
      }
    }
  }
  if (anchors_.back().cumulative != 1.0) {
    throw std::invalid_argument("PiecewiseCdf: last anchor must have cumulative == 1");
  }
}

double PiecewiseCdf::cdf(double v) const {
  if (v <= 0.0) return 0.0;
  const auto& first = anchors_.front();
  if (v <= first.value) {
    // Mass below the first anchor is spread linearly from 0.
    return first.cumulative * (v / first.value);
  }
  if (v >= anchors_.back().value) return 1.0;
  // Find the segment containing v and interpolate in log(value).
  for (std::size_t i = 1; i < anchors_.size(); ++i) {
    if (v <= anchors_[i].value) {
      const auto& a = anchors_[i - 1];
      const auto& b = anchors_[i];
      const double t = (std::log(v) - std::log(a.value)) /
                       (std::log(b.value) - std::log(a.value));
      return a.cumulative + t * (b.cumulative - a.cumulative);
    }
  }
  return 1.0;
}

double PiecewiseCdf::quantile(double u) const {
  u = std::clamp(u, 0.0, 1.0);
  const auto& first = anchors_.front();
  if (u <= first.cumulative) {
    return first.value * (first.cumulative > 0.0 ? u / first.cumulative : 1.0);
  }
  for (std::size_t i = 1; i < anchors_.size(); ++i) {
    if (u <= anchors_[i].cumulative) {
      const auto& a = anchors_[i - 1];
      const auto& b = anchors_[i];
      const double t = (u - a.cumulative) / (b.cumulative - a.cumulative);
      return std::exp(std::log(a.value) + t * (std::log(b.value) - std::log(a.value)));
    }
  }
  return anchors_.back().value;
}

}  // namespace cellrel

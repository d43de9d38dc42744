#include "common/histogram.h"

#include <algorithm>

#include "common/check.h"

namespace cellrel {

LinearHistogram::LinearHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  CELLREL_CHECK(hi > lo && bins > 0)
      << "bad linear histogram: lo=" << lo << " hi=" << hi << " bins=" << bins;
}

void LinearHistogram::add(double x, std::uint64_t weight) {
  total_ += weight;
  if (x < lo_) {
    underflow_ += weight;
    return;
  }
  if (x >= hi_) {
    overflow_ += weight;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  idx = std::min(idx, counts_.size() - 1);
  counts_[idx] += weight;
}

double LinearHistogram::bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
double LinearHistogram::bin_hi(std::size_t i) const { return bin_lo(i) + width_; }

void LinearHistogram::merge(const LinearHistogram& other) {
  CELLREL_CHECK(lo_ == other.lo_ && hi_ == other.hi_ && counts_.size() == other.counts_.size())
      << "merging differently-shaped linear histograms: [" << lo_ << ", " << hi_ << ")x"
      << counts_.size() << " vs [" << other.lo_ << ", " << other.hi_ << ")x"
      << other.counts_.size();
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

}  // namespace cellrel

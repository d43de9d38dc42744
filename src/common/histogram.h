// Fixed-bin histograms for duration and count data.

#ifndef CELLREL_COMMON_HISTOGRAM_H
#define CELLREL_COMMON_HISTOGRAM_H

#include <cstdint>
#include <vector>

namespace cellrel {

/// A histogram over [lo, hi) with uniformly sized bins plus underflow and
/// overflow counters.
class LinearHistogram {
 public:
  LinearHistogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1);

  std::size_t bin_count() const { return counts_.size(); }
  std::uint64_t bin(std::size_t i) const { return counts_[i]; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;

  /// Bin-wise accumulation of an identically-shaped histogram (same lo, hi
  /// and bin count — checked). The basis of the deterministic shard-merge in
  /// the observability layer: counts are integers, so merge order never
  /// changes the result.
  void merge(const LinearHistogram& other);

  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace cellrel

#endif  // CELLREL_COMMON_HISTOGRAM_H

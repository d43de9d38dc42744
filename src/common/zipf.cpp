#include "common/zipf.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/stats.h"

namespace cellrel {

ZipfFit fit_zipf(std::span<const std::uint64_t> counts) {
  std::vector<std::uint64_t> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::vector<double> log_rank;
  std::vector<double> log_count;
  log_rank.reserve(sorted.size());
  log_count.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] == 0) break;  // descending: remainder are zero too
    log_rank.push_back(std::log(static_cast<double>(i + 1)));
    log_count.push_back(std::log(static_cast<double>(sorted[i])));
  }
  ZipfFit fit;
  if (log_rank.size() < 2) return fit;
  const LinearFit lf = linear_fit(log_rank, log_count);
  fit.a = -lf.slope;
  fit.b = lf.intercept;
  fit.r_squared = lf.r_squared;
  return fit;
}

}  // namespace cellrel

// Zipf-law fitting.
//
// The paper (Fig. 11) reports that ranking base stations by experienced
// failure count yields a Zipf-like distribution, count(rank) ~ exp(b) *
// rank^{-a}, with a = 0.82 and b = 17.12. A log-log least-squares fit
// recovers the exponent from measured per-BS failure counts.

#ifndef CELLREL_COMMON_ZIPF_H
#define CELLREL_COMMON_ZIPF_H

#include <cstdint>
#include <span>

namespace cellrel {

/// Result of fitting counts ~ exp(b) * rank^{-a} on a log-log scale.
struct ZipfFit {
  double a = 0.0;          // exponent (positive for decaying)
  double b = 0.0;          // log-scale intercept
  double r_squared = 0.0;  // goodness of fit in log-log space
};

/// Fits the Zipf parameters of a vector of (unsorted) positive counts.
/// Zero counts are dropped (log undefined); counts are ranked descending.
ZipfFit fit_zipf(std::span<const std::uint64_t> counts);

}  // namespace cellrel

#endif  // CELLREL_COMMON_ZIPF_H

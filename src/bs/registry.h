// Base-station registry: owns the BS population and answers cell selection.

#ifndef CELLREL_BS_REGISTRY_H
#define CELLREL_BS_REGISTRY_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bs/base_station.h"
#include "bs/deployment.h"
#include "common/check.h"
#include "common/rng.h"

namespace cellrel {

/// A camping opportunity a device sees at its current location: a BS,
/// reachable over one of its RATs, at a given signal level.
struct CellCandidate {
  BsIndex bs = kInvalidBs;
  Rat rat = Rat::k4G;
  SignalLevel level = SignalLevel::kLevel0;
};

/// The candidates of one enumeration, stored inline so session planning
/// allocates nothing per slot. Iterates and converts to a span like the
/// vector it replaces.
class CandidateSet {
 public:
  /// The serving BS's RATs plus at most two neighbour BSes' RATs.
  static constexpr std::size_t kCapacity = 3 * kRatCount;

  void push_back(const CellCandidate& c) {
    if (size_ == kCapacity) [[unlikely]] fail_overflow();
    items_[size_++] = c;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const CellCandidate* begin() const { return items_.data(); }
  const CellCandidate* end() const { return items_.data() + size_; }
  const CellCandidate& front() const {
    CELLREL_DCHECK(size_ > 0) << "front() of an empty candidate set";
    return items_[0];
  }
  operator std::span<const CellCandidate>() const { return {items_.data(), size_}; }

 private:
  // Fires the capacity check; out of line so push_back inlines to a
  // compare and a store. The check's handler never returns normally.
  void fail_overflow() const;

  std::array<CellCandidate, kCapacity> items_;
  std::size_t size_ = 0;
};

/// Owns the deployed base stations and provides lookup / selection.
class BsRegistry {
 public:
  BsRegistry(const DeploymentConfig& config, Rng& rng);

  std::size_t size() const { return stations_.size(); }
  const BaseStation& at(BsIndex i) const { return stations_[i]; }
  BaseStation& at(BsIndex i) { return stations_[i]; }
  std::span<const BaseStation> all() const { return stations_; }

  /// Picks a serving-area BS for a subscriber of `isp` currently in
  /// `location`. Falls back to any of the ISP's BSes if the class is empty.
  BsIndex pick_bs(IspId isp, LocationClass location, Rng& rng) const;

  /// Enumerates the cells a device camped near `bs` could use: the BS's own
  /// RATs plus up to two neighbour draws from the same ISP and location
  /// class. Levels are drawn from the location/ISP coverage model. At most
  /// 12 candidates: each of the three BSes (serving, two neighbours)
  /// contributes at most one per RAT, so the inline set never overflows.
  CandidateSet enumerate_candidates(BsIndex bs, bool device_5g_capable, Rng& rng) const;

  /// Draws the signal level a device experiences from `bs` over `rat`
  /// given the ISP's coverage model and the site's location class.
  SignalLevel sample_level(const BaseStation& bs, Rat rat, Rng& rng) const;

  /// Per-BS failure totals, index-aligned with the registry.
  std::vector<std::uint64_t> failure_counts() const;

  /// Applies one shard's ground-truth failure delta: one entry per kept
  /// failure, naming the BS it occurred on. Called from the merge phase
  /// only (single-threaded), so counter updates never race; integer
  /// addition makes the totals independent of application order.
  void apply_failure_delta(std::span<const BsIndex> failed_bs);

 private:
  std::vector<BaseStation> stations_;
  // Buckets of BS indices keyed by (isp, location class) for O(1) selection.
  std::array<std::array<std::vector<BsIndex>, 6>, kIspCount> buckets_;
  std::array<std::vector<BsIndex>, kIspCount> by_isp_;
};

}  // namespace cellrel

#endif  // CELLREL_BS_REGISTRY_H

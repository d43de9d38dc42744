// Base station model.
//
// Each BS carries the structural attributes the paper's landscape analysis
// slices on: owning ISP, supported RATs (multi-RAT sites exist), deployment
// location class, and the failure-relevant state derived from them:
// overload-rejection probability, EMM barring probability (dense
// deployments), and a per-BS hazard multiplier (Zipf-skewed across the
// population, with neglected remote sites at the extreme tail).

#ifndef CELLREL_BS_BASE_STATION_H
#define CELLREL_BS_BASE_STATION_H

#include <array>
#include <cstdint>
#include <string_view>

#include "bs/cell_id.h"
#include "bs/isp.h"
#include "radio/modem.h"
#include "radio/rat.h"
#include "radio/signal.h"

namespace cellrel {

/// Where a BS is deployed; drives density, load and interference.
enum class LocationClass : std::uint8_t {
  kDenseUrban = 0,
  kUrban = 1,
  kSuburban = 2,
  kRural = 3,
  kTransportHub = 4,  // densely deployed around stations/airports (§3.3)
  kRemote = 5,        // mountain / offshore; long-neglected sites (§3.1)
};

inline constexpr std::array<LocationClass, 6> kAllLocationClasses = {
    LocationClass::kDenseUrban, LocationClass::kUrban,  LocationClass::kSuburban,
    LocationClass::kRural,      LocationClass::kTransportHub, LocationClass::kRemote,
};

std::string_view to_string(LocationClass c);
constexpr std::size_t index_of(LocationClass c) { return static_cast<std::size_t>(c); }

/// Identifier of a BS within the registry.
using BsIndex = std::uint32_t;
inline constexpr BsIndex kInvalidBs = ~BsIndex{0};

/// A base station (immutable structure + mutable load/failure counters).
class BaseStation {
 public:
  struct Spec {
    BsIndex index = kInvalidBs;
    IspId isp = IspId::kIspA;
    LocationClass location = LocationClass::kUrban;
    std::uint8_t rat_mask = 0;        // bit i set => supports kAllRats[i]
    bool cdma = false;                // identity form (footnote 3)
    CellIdentity identity{};
    /// Per-BS failure-hazard multiplier (Zipf-skewed across population).
    double hazard_multiplier = 1.0;
    /// Steady-state utilization in [0,1]; drives overload rejections.
    double load = 0.3;
    /// Number of co-located BSes within interference range (dense sites).
    std::uint16_t neighbor_count = 0;
    /// True for long-neglected remote sites that produce day-long outages.
    bool disrepair = false;
  };

  explicit BaseStation(Spec spec);

  BsIndex index() const { return spec_.index; }
  IspId isp() const { return spec_.isp; }
  LocationClass location() const { return spec_.location; }
  const CellIdentity& identity() const { return spec_.identity; }
  bool is_cdma() const { return spec_.cdma; }
  double hazard_multiplier() const { return spec_.hazard_multiplier; }
  double load() const { return spec_.load; }
  std::uint16_t neighbor_count() const { return spec_.neighbor_count; }
  bool in_disrepair() const { return spec_.disrepair; }

  bool supports(Rat rat) const { return spec_.rat_mask & (1u << index_of(rat)); }
  std::uint8_t rat_mask() const { return spec_.rat_mask; }

  /// Probability a setup request is rationally rejected due to overload.
  double overload_rejection_prob() const { return overload_rejection_prob_; }

  /// Probability a setup fails with an EMM mobility-management code; grows
  /// with deployment density and adjacent-channel interference (§3.3).
  double emm_barring_prob() const { return emm_barring_prob_; }

  /// Channel conditions offered to a device camping on this BS with the
  /// given RAT/level, including the per-connection genuine failure hazard
  /// supplied by the caller's calibration.
  ChannelConditions channel_conditions(Rat rat, SignalLevel level,
                                       double base_failure_prob) const;

  // Mutable counters used by the landscape analysis. During a campaign,
  // device shards never touch these directly: each shard accumulates a
  // failure delta that the campaign applies after the join (see
  // BsRegistry::apply_failure_deltas), keeping the simulation phase
  // free of shared-counter writes.
  void record_failure() { ++failure_count_; }
  std::uint64_t failure_count() const { return failure_count_; }

 private:
  Spec spec_;
  // Functions of the immutable spec, computed once at construction.
  double overload_rejection_prob_ = 0.0;
  double emm_barring_prob_ = 0.0;
  std::uint64_t failure_count_ = 0;
};

}  // namespace cellrel

#endif  // CELLREL_BS_BASE_STATION_H

#include "bs/base_station.h"

#include <algorithm>
#include <cmath>

namespace cellrel {

std::string_view to_string(LocationClass c) {
  switch (c) {
    case LocationClass::kDenseUrban: return "dense-urban";
    case LocationClass::kUrban: return "urban";
    case LocationClass::kSuburban: return "suburban";
    case LocationClass::kRural: return "rural";
    case LocationClass::kTransportHub: return "transport-hub";
    case LocationClass::kRemote: return "remote";
  }
  return "?";
}

namespace {

double overload_rejection_for(const BaseStation::Spec& spec) {
  // Rejections ramp up once utilization passes ~70%, saturating at 25%.
  const double excess = std::max(0.0, spec.load - 0.7);
  return std::min(0.25, excess * 0.8);
}

double emm_barring_for(const BaseStation::Spec& spec) {
  // Mobility-management complications require a dense neighborhood; the
  // effect is strongest at transport hubs where multiple ISPs co-deploy
  // without coordination and the bands sit close together (§3.3).
  if (spec.neighbor_count < 3) return 0.0;
  double density_term = 0.004 * static_cast<double>(spec.neighbor_count - 2);
  // Adjacent-channel interference scales inversely with the worst-case band
  // separation against the other two ISPs.
  double min_sep = 1e9;
  for (IspId other : kAllIsps) {
    if (other == spec.isp) continue;
    min_sep = std::min(min_sep, band_separation_mhz(spec.isp, other));
  }
  const double interference_term = 1.0 + 120.0 / (min_sep + 60.0);
  double p = density_term * interference_term;
  if (spec.location == LocationClass::kTransportHub) p *= 1.6;
  return std::min(0.5, p);
}

}  // namespace

BaseStation::BaseStation(Spec spec)
    : spec_(std::move(spec)),
      overload_rejection_prob_(overload_rejection_for(spec_)),
      emm_barring_prob_(emm_barring_for(spec_)) {}

ChannelConditions BaseStation::channel_conditions(Rat rat, SignalLevel level,
                                                  double base_failure_prob) const {
  ChannelConditions cond;
  cond.rat = rat;
  cond.level = level;
  cond.overload_rejection_prob = overload_rejection_prob_;
  cond.emm_barring_prob = emm_barring_prob_;
  cond.base_failure_prob =
      std::clamp(base_failure_prob * spec_.hazard_multiplier, 0.0, 1.0);
  if (spec_.disrepair) {
    // Long-neglected remote sites: genuine failures dominate.
    cond.base_failure_prob = std::min(1.0, cond.base_failure_prob + 0.3);
  }
  return cond;
}

}  // namespace cellrel

// Nationwide base-station deployment generator.
//
// Synthesizes a BS population matching the published structure: ISP shares
// (44.8/29.4/25.8%), RAT support marginals (2G 23.4%, 3G 10.2%, 4G 65.2%,
// 5G 7.3%, multi-RAT sites allowed), location-class mix with dense transport
// hubs, Zipf-skewed per-BS hazard, and a disrepair tail of remote sites.

#ifndef CELLREL_BS_DEPLOYMENT_H
#define CELLREL_BS_DEPLOYMENT_H

#include <cstdint>
#include <vector>

#include "bs/base_station.h"
#include "common/rng.h"

namespace cellrel {

/// Deployment size. The landscape's shape (RAT and location marginals,
/// hazard skew, disrepair tail) is the paper's and fixed in deployment.cpp.
struct DeploymentConfig {
  std::uint32_t bs_count = 50'000;
};

/// Generates the specs for a full BS population.
std::vector<BaseStation::Spec> generate_deployment(const DeploymentConfig& config, Rng& rng);

}  // namespace cellrel

#endif  // CELLREL_BS_DEPLOYMENT_H

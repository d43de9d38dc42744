#include "bs/deployment.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace cellrel {

namespace {

// RAT support marginals (§3.3; sum > 1 because of multi-RAT sites).
constexpr double kFrac2g = 0.234;
constexpr double kFrac3g = 0.102;
constexpr double kFrac4g = 0.652;
constexpr double kFrac5g = 0.073;

/// Location-class mix (fractions of the BS population; sums to 1), in
/// kAllLocationClasses order: dense urban, urban, suburban, rural, transport
/// hub, remote.
constexpr std::array<double, 6> kLocationMix = {0.12, 0.30, 0.28, 0.22, 0.03, 0.05};

/// Shape of the per-BS hazard skew (lognormal sigma); larger values widen
/// the gap between the median site and the worst sites (Fig. 11).
constexpr double kHazardSigma = 1.6;

/// Fraction of remote sites that are long-neglected (25.5-hour outages).
constexpr double kRemoteDisrepairFrac = 0.30;

LocationClass sample_location(Rng& rng) {
  return kAllLocationClasses[rng.discrete(kLocationMix)];
}

IspId sample_isp(Rng& rng) {
  const std::array<double, kIspCount> weights = {
      isp_profile(IspId::kIspA).bs_share,
      isp_profile(IspId::kIspB).bs_share,
      isp_profile(IspId::kIspC).bs_share,
  };
  return kAllIsps[rng.discrete(weights)];
}

// Finds the probability scale k such that, with independent per-RAT draws of
// k * p_r and empty masks re-assigned one RAT proportionally to the
// marginals, the realized marginal of each RAT r equals p_r:
//   k * p_r + P(empty | k) * p_r / sum_p = p_r  =>  k + P(empty|k)/sum_p = 1.
// The published marginals sum to ~1.06, so most sites end up single-RAT
// ("some BSes simultaneously support multiple RATs", §3.3 — a small overlap).
struct MarginalScale {
  double k = 1.0;   // global draw-probability scale
  double f4 = 1.0;  // extra factor on the 4G draw compensating NSA anchoring
};

MarginalScale marginal_scale() {
  const double p2 = kFrac2g, p3 = kFrac3g, p4 = kFrac4g, p5 = kFrac5g;
  const double sum_p = p2 + p3 + p4 + p5;
  MarginalScale s;
  const auto empty_prob = [&](double k, double f4) {
    return std::max(0.0, 1.0 - k * p2) * std::max(0.0, 1.0 - k * p3) *
           std::max(0.0, 1.0 - k * p4 * f4) * std::max(0.0, 1.0 - k * p5);
  };
  // Alternate two bisections: k matches the non-anchored marginals
  // (k + empty/sum_p = 1), f4 compensates the 4G share gained from 5G
  // draws (NSA anchoring) and from the 5G empty-mask fallback.
  for (int round = 0; round < 6; ++round) {
    double lo = 0.01, hi = 1.0;
    for (int iter = 0; iter < 40; ++iter) {
      const double k = (lo + hi) / 2.0;
      (k + empty_prob(k, s.f4) / sum_p < 1.0 ? lo : hi) = k;
    }
    s.k = (lo + hi) / 2.0;
    lo = 0.0;
    hi = 1.0;
    for (int iter = 0; iter < 40; ++iter) {
      const double f4 = (lo + hi) / 2.0;
      const double empty = empty_prob(s.k, f4);
      const double realized4 = 1.0 - (1.0 - s.k * p4 * f4) * (1.0 - s.k * p5) +
                               empty * (p4 + p5) / sum_p;
      (realized4 < p4 ? lo : hi) = f4;
    }
    s.f4 = (lo + hi) / 2.0;
  }
  return s;
}

std::uint8_t sample_rat_mask(LocationClass loc, const MarginalScale& scale, Rng& rng) {
  std::uint8_t mask = 0;
  // Independent draws against the (scale-adjusted) marginals, with location
  // skew: 5G sites concentrate where NR was rolled out first (dense urban
  // cores and transport hubs); the 0.8 base factor keeps the nationwide 5G
  // marginal at ~kFrac5g despite the urban-heavy class weights.
  double p5 = kFrac5g * 0.8;
  switch (loc) {
    case LocationClass::kDenseUrban: p5 *= 4.0; break;
    case LocationClass::kTransportHub: p5 *= 4.0; break;
    case LocationClass::kUrban: p5 *= 2.0; break;
    case LocationClass::kSuburban: p5 *= 0.2; break;
    case LocationClass::kRural:
    case LocationClass::kRemote: p5 *= 0.02; break;
  }
  // Legacy GSM blankets the countryside while 3G/4G concentrate where the
  // users are; per-class multipliers are normalized against the class mix so
  // the nationwide marginals stay at the configured values.
  double m2 = 1.0, m3 = 1.0, m4 = 1.0;
  switch (loc) {
    case LocationClass::kDenseUrban: m2 = 0.44; m3 = 0.73; m4 = 1.17; break;
    case LocationClass::kUrban: m2 = 0.62; m3 = 1.25; m4 = 1.12; break;
    case LocationClass::kSuburban: m2 = 0.88; m3 = 1.56; m4 = 1.06; break;
    case LocationClass::kRural: m2 = 1.76; m3 = 0.36; m4 = 0.76; break;
    case LocationClass::kTransportHub: m2 = 0.44; m3 = 0.31; m4 = 1.17; break;
    case LocationClass::kRemote: m2 = 2.29; m3 = 0.21; m4 = 0.51; break;
  }
  if (rng.bernoulli(std::min(1.0, scale.k * kFrac2g * m2))) {
    mask |= 1u << index_of(Rat::k2G);
  }
  if (rng.bernoulli(std::min(1.0, scale.k * kFrac3g * m3))) {
    mask |= 1u << index_of(Rat::k3G);
  }
  if (rng.bernoulli(std::min(1.0, scale.k * kFrac4g * scale.f4 * m4))) {
    mask |= 1u << index_of(Rat::k4G);
  }
  if (rng.bernoulli(std::min(1.0, scale.k * p5))) {
    // 5G NR sites are overwhelmingly co-located with LTE anchors (NSA).
    mask |= 1u << index_of(Rat::k5G);
    mask |= 1u << index_of(Rat::k4G);
  }
  if (mask == 0) {
    // Every site serves something: assign one RAT drawn from the marginals
    // so the fallback does not distort any single RAT's share.
    const std::array<double, 4> weights = {kFrac2g, kFrac3g, kFrac4g, kFrac5g};
    const Rat rat = kAllRats[rng.discrete(weights)];
    mask = 1u << index_of(rat);
    if (rat == Rat::k5G) mask |= 1u << index_of(Rat::k4G);
  }
  return mask;
}

std::uint16_t sample_neighbor_count(LocationClass loc, Rng& rng) {
  switch (loc) {
    case LocationClass::kTransportHub:
      return static_cast<std::uint16_t>(rng.uniform_int(6, 14));
    case LocationClass::kDenseUrban:
      return static_cast<std::uint16_t>(rng.uniform_int(3, 8));
    case LocationClass::kUrban:
      return static_cast<std::uint16_t>(rng.uniform_int(1, 4));
    case LocationClass::kSuburban:
      return static_cast<std::uint16_t>(rng.uniform_int(0, 2));
    default:
      return static_cast<std::uint16_t>(rng.uniform_int(0, 1));
  }
}

double sample_load(LocationClass loc, IspId isp, Rng& rng) {
  // Busy where people are; ISPs with more subscribers per BS run hotter.
  double base = 0.0;
  switch (loc) {
    case LocationClass::kDenseUrban: base = 0.62; break;
    case LocationClass::kUrban: base = 0.52; break;
    case LocationClass::kTransportHub: base = 0.72; break;
    case LocationClass::kSuburban: base = 0.38; break;
    case LocationClass::kRural: base = 0.22; break;
    case LocationClass::kRemote: base = 0.10; break;
  }
  const auto& profile = isp_profile(isp);
  const double pressure = profile.subscriber_share / profile.bs_share;
  return std::clamp(base * (0.7 + 0.5 * pressure) + rng.normal(0.0, 0.08), 0.0, 0.98);
}

CellIdentity mint_identity(IspId isp, bool cdma, std::uint32_t seq, Rng& rng) {
  if (cdma) {
    CdmaCellId id;
    id.sid = static_cast<std::uint16_t>(13568 + rng.uniform_int(0, 63));
    id.nid = static_cast<std::uint16_t>(rng.uniform_int(1, 199));
    id.bid = seq + 1;
    return id;
  }
  CellGlobalId id;
  id.mcc = 460;
  id.mnc = isp_profile(isp).mnc;
  id.lac = static_cast<std::uint32_t>(rng.uniform_int(0x1000, 0xFFFE));
  id.cid = seq + 1;
  return id;
}

}  // namespace

std::vector<BaseStation::Spec> generate_deployment(const DeploymentConfig& config, Rng& rng) {
  std::vector<BaseStation::Spec> specs;
  specs.reserve(config.bs_count);
  const MarginalScale scale = marginal_scale();
  // Lognormal hazard with unit median: exp(sigma * N(0,1)).
  for (std::uint32_t i = 0; i < config.bs_count; ++i) {
    BaseStation::Spec s;
    s.index = i;
    s.isp = sample_isp(rng);
    s.location = sample_location(rng);
    s.rat_mask = sample_rat_mask(s.location, scale, rng);
    // ISP-B runs a legacy CDMA network for its 2G/3G footprint (footnote 3).
    const bool legacy_only =
        (s.rat_mask & ((1u << index_of(Rat::k4G)) | (1u << index_of(Rat::k5G)))) == 0;
    s.cdma = s.isp == IspId::kIspB && legacy_only;
    s.identity = mint_identity(s.isp, s.cdma, i, rng);
    s.hazard_multiplier = rng.lognormal(0.0, kHazardSigma);
    s.load = sample_load(s.location, s.isp, rng);
    s.neighbor_count = sample_neighbor_count(s.location, rng);
    s.disrepair =
        s.location == LocationClass::kRemote && rng.bernoulli(kRemoteDisrepairFrac);
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace cellrel

#include "radio/modem.h"

#include <algorithm>

namespace cellrel {

namespace {

// Command execution latencies (means). Setup negotiation is dominated by the
// RRC connection + NAS attach round trips; re-registration and radio restart
// are progressively heavier, matching the O1 < O2 < O3 ordering the paper's
// Eq. 1 assumes for the three recovery operations.
constexpr double kSetupLatencyMeanSec = 0.35;
constexpr double kDeactivateLatencyMeanSec = 0.15;
constexpr double kReregisterLatencyMeanSec = 2.0;
constexpr double kRadioRestartLatencyMeanSec = 6.0;

}  // namespace

ModemSimulator::ModemSimulator(Rng rng) : rng_(rng) {}

FailCause ModemSimulator::pick_failure_cause(const ChannelConditions& cond) {
  // Handover failures carry the inter-RAT transfer codes (§3.2 lists
  // IRAT_HANDOVER_FAILED among the physical-layer causes).
  if (cond.in_handover && rng_.bernoulli(0.12)) {
    const double u = rng_.next_double();
    if (u < 0.5) return FailCause::kIratHandoverFailed;
    if (u < 0.85) return FailCause::kUnpreferredRat;
    return FailCause::kHandoffPreferenceChanged;
  }
  // EMM-tagged failures dominate at dense deployments; otherwise draw from
  // the calibrated Table 2 distribution. Very weak channels skew physical.
  if (cond.emm_barring_prob > 0.0 && rng_.bernoulli(cond.emm_barring_prob /
          std::max(1e-9, cond.emm_barring_prob + cond.base_failure_prob))) {
    return sampler_.sample_emm_failure(rng_);
  }
  if (cond.level == SignalLevel::kLevel0 && rng_.bernoulli(0.5)) {
    return rng_.bernoulli(0.6) ? FailCause::kSignalLost : FailCause::kNoService;
  }
  return sampler_.sample_true_failure(rng_);
}

ModemResult ModemSimulator::setup_data_call(const ChannelConditions& cond) {
  ModemResult r;
  r.latency = SimDuration::seconds(rng_.exponential(kSetupLatencyMeanSec));
  if (cond.driver_fault) {
    r.success = false;
    r.cause = FailCause::kRadioNotAvailable;
    return r;
  }
  // Rational rejection by an overloaded BS: reported as a failure by the
  // radio, later filtered as a false positive by Android-MOD.
  if (rng_.bernoulli(cond.overload_rejection_prob)) {
    r.success = false;
    r.cause = rng_.bernoulli(0.6) ? FailCause::kInsufficientResources
                                  : FailCause::kCongestion;
    r.rational_rejection = true;
    return r;
  }
  const double genuine = std::clamp(cond.base_failure_prob + cond.emm_barring_prob, 0.0, 1.0);
  if (rng_.bernoulli(genuine)) {
    r.success = false;
    r.cause = pick_failure_cause(cond);
    return r;
  }
  return r;
}

ModemResult ModemSimulator::deactivate_data_call() {
  ModemResult r;
  r.latency = SimDuration::seconds(rng_.exponential(kDeactivateLatencyMeanSec));
  return r;
}

ModemResult ModemSimulator::reregister(const ChannelConditions& cond) {
  ModemResult r;
  r.latency = SimDuration::seconds(kReregisterLatencyMeanSec * rng_.uniform(0.7, 1.5));
  if (cond.level == SignalLevel::kLevel0 && rng_.bernoulli(0.35)) {
    r.success = false;
    r.cause = FailCause::kGprsRegistrationFail;
  }
  return r;
}

ModemResult ModemSimulator::restart_radio() {
  ModemResult r;
  r.latency = SimDuration::seconds(kRadioRestartLatencyMeanSec * rng_.uniform(0.8, 1.4));
  return r;
}

}  // namespace cellrel

// Baseband modem simulator.
//
// The study observes the modem only through the outcomes of the commands the
// framework issues (setup/teardown data calls, re-register, radio restart)
// and the error codes those commands return. This simulator reproduces that
// observable surface: command outcomes are drawn from the serving channel's
// conditions, and failures carry DataFailCause codes with the catalogue's
// calibrated distribution.

#ifndef CELLREL_RADIO_MODEM_H
#define CELLREL_RADIO_MODEM_H


#include "common/rng.h"
#include "common/sim_time.h"
#include "radio/fail_cause.h"
#include "radio/signal.h"

namespace cellrel {

/// Point-in-time conditions of the channel a command executes against.
/// Produced by the base-station / environment model, consumed by the modem.
struct ChannelConditions {
  Rat rat = Rat::k4G;
  SignalLevel level = SignalLevel::kLevel3;
  /// Probability that the serving BS rationally rejects a setup (overload).
  double overload_rejection_prob = 0.0;
  /// Probability that mobility management bars access (dense deployments).
  double emm_barring_prob = 0.0;
  /// Residual probability of a genuine setup failure on this channel.
  double base_failure_prob = 0.0;
  /// True when the local modem driver is wedged (system-side fault).
  bool driver_fault = false;
  /// True while this setup belongs to an inter-RAT handover: failures then
  /// skew towards the handover-specific causes (IRAT_HANDOVER_FAILED,
  /// UNPREFERRED_RAT, HANDOFF_PREFERENCE_CHANGED).
  bool in_handover = false;
};

/// Outcome of a modem command.
struct ModemResult {
  bool success = true;
  FailCause cause = FailCause::kNone;
  SimDuration latency = SimDuration::zero();
  /// Ground truth: the failure was a rational rejection by an overloaded BS
  /// (a false positive for the study). Never consulted by filter code.
  bool rational_rejection = false;
};

/// Simulates a baseband modem's command execution.
///
/// The modem holds no state beyond its random stream: per-command
/// stochastic outcomes are pure functions of (conditions, rng), which keeps
/// devices independent and campaigns reproducible.
class ModemSimulator {
 public:
  explicit ModemSimulator(Rng rng);

  /// SETUP_DATA_CALL: attempts to activate a PDP context / EPS bearer.
  ModemResult setup_data_call(const ChannelConditions& cond);

  /// DEACTIVATE_DATA_CALL: tears down the data call (used by recovery
  /// stage 1, "cleaning up and restarting the current connection").
  ModemResult deactivate_data_call();

  /// Detach + re-attach network registration (recovery stage 2).
  ModemResult reregister(const ChannelConditions& cond);

  /// Power-cycles the radio (recovery stage 3). Takes the longest.
  ModemResult restart_radio();

 private:
  FailCause pick_failure_cause(const ChannelConditions& cond);

  Rng rng_;
  FailCauseSampler sampler_;
};

}  // namespace cellrel

#endif  // CELLREL_RADIO_MODEM_H

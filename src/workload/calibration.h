// Calibration constants derived from the paper's published statistics.
//
// We do not possess the proprietary 70M-device dataset; instead, the fleet
// generator plants hazards drawn from the published marginals (Table 1,
// Table 2, Figs. 2-17) and the campaign re-measures every quantity through
// the real telephony + Android-MOD + analysis pipeline. Everything below is
// a ground-truth *input*; the benches compare the re-measured outputs
// against the same paper numbers. They are constants: the campaign reads
// default_calibration(), and no scenario overrides them.

#ifndef CELLREL_WORKLOAD_CALIBRATION_H
#define CELLREL_WORKLOAD_CALIBRATION_H

#include <array>

#include "bs/isp.h"
#include "common/piecewise.h"
#include "device/device.h"
#include "radio/rat.h"

namespace cellrel {

struct Calibration {
  /// Fraction of failing devices that ever see Out_of_Service (§3.1: 95% of
  /// ALL phones see none; with ~23% prevalence that leaves ~20% of failing
  /// devices OOS-prone).
  double oos_prone_fraction = 0.20;

  // --- Per-ISP user-prevalence multipliers (§3.3: 27.1 / 20.1 / 14.7% for
  // B / A / C against a ~20.4% subscriber-weighted mean).
  std::array<double, kIspCount> isp_prevalence_factor = {0.985, 1.33, 0.72};
  /// Per-ISP failure-count multipliers (Fig. 13: frequency B > A > C);
  /// subscriber-weighted mean ~1.
  std::array<double, kIspCount> isp_frequency_factor = {1.0, 1.18, 0.88};

  // --- Data_Stall auto-recovery (post-detection) duration CDF.
  // Anchors encode Fig. 10 (60% fixed within 10 s), Fig. 4's body/tail
  // (70.8% of all failures < 30 s; maximum 91,770 s) and the >80%-within-
  // 300 s note of §2.2. The un-intervened tail is heavier than the observed
  // Fig. 4 tail because vanilla recovery truncates it at 60 s+.
  PiecewiseCdf stall_auto_recovery_cdf{
      {10.0, 0.60}, {30.0, 0.70},   {120.0, 0.82},  {300.0, 0.88},
      {600.0, 0.92}, {3600.0, 0.975}, {20000.0, 0.995}, {91770.0, 1.0}};

  // --- Stall hardness classes. "Easy" stalls resolve on their own (the
  // Fig. 10 curve) or yield to the first recovery operation (§3.2: 75%).
  // "Hard" stalls are recovery-limited: each operation only succeeds with a
  // small per-execution probability, so they take several recovery cycles —
  // the population whose duration scales with the probation schedule and
  // produces the paper's 38% duration reduction under TIMP. "Unrecoverable"
  // stalls (BS-side outages at neglected sites) end only when the network
  // heals.
  double stall_hard_fraction = 0.18;
  double stall_unrecoverable_fraction = 0.05;
  /// Hard stalls scale the per-stage effectiveness by U(lo, hi).
  double stall_hard_factor_lo = 0.03;
  double stall_hard_factor_hi = 0.12;
  /// Auto-recovery for hard stalls (seconds, lognormal; rarely binds before
  /// the recovery loop succeeds).
  double stall_hard_mu = 8.0;
  double stall_hard_sigma = 1.0;
  /// Unrecoverable stalls last until the network side heals (lognormal,
  /// capped at the paper's maximum observed duration).
  double stall_unrecoverable_mu = 7.2;
  double stall_unrecoverable_sigma = 1.3;
  double max_failure_duration_s = 91'770.0;

  /// Stage effectiveness on easy stalls (§3.2: stage 1 fixes 75%).
  std::array<double, 3> stage_effectiveness = {0.75, 0.90, 0.99};

  /// Users manually reset the connection after ~30 s (§3.2 survey); the
  /// reset only helps stalls a connection restart can fix (easy ones).
  double user_reset_probability = 0.35;
  double user_reset_mean_s = 30.0;
  double user_reset_stddev_s = 8.0;
  double user_reset_success = 0.5;

  // --- Stall episode sub-kinds (prober false-positive classes).
  double stall_system_side_fraction = 0.07;
  double stall_dns_only_fraction = 0.03;

  // --- Out_of_Service episode durations (seconds, lognormal).
  double oos_duration_mu = 4.0;   // median ~55 s, mean ~100 s
  double oos_duration_sigma = 1.1;
  /// Long-neglected remote sites hold devices out of service much longer.
  double oos_disrepair_multiplier = 10.0;

  // --- Setup-error episodes: events per episode ~ 1 + Geometric(p).
  double setup_retries_geometric_p = 0.5;

  // --- False-positive extras: per true episode, expected number of
  // additional false-positive episodes of each kind.
  double fp_overload_rate = 0.12;
  double fp_voice_call_rate = 0.04;
  double fp_manual_disconnect_rate = 0.03;
  double fp_balance_rate = 0.01;

  // --- Session hazard model -------------------------------------------
  /// Weight of the (RAT, level) risk table term.
  double hazard_level_weight = 0.55;
  /// Weight of the BS hazard multiplier excess (Zipf skew) term.
  double hazard_bs_weight = 0.05;
  /// Weight of the EMM barring probability (dense hubs) term.
  double hazard_emm_weight = 2.2;
  /// Extra hazard on disrepair (remote) sites.
  double hazard_disrepair_bonus = 0.35;
  /// Weight of the transition-risk term: (risk(to) - risk(from))+ plus a
  /// flat per-transition disruption cost.
  double hazard_transition_weight = 1.8;
  double hazard_transition_flat = 0.10;
  /// Extra hazard while camped on weak (level <= 1) NR: Android 10 keeps
  /// re-selecting / handing over at the 5G coverage edge ("this example is
  /// not a rare case but happens frequently", §3.2).
  double hazard_weak_5g_bonus = 0.38;

  /// RAT utilization multiplier on the whole session hazard: the idle 3G
  /// network faces far less resource contention than the busy 2G/4G/5G
  /// layers and therefore fails less per served session (§3.3).
  std::array<double, kRatCount> hazard_rat_utilization = {1.0, 0.45, 1.05, 1.1};

  /// Cap on any single session's failure probability.
  double session_failure_cap = 0.9;

  // --- Session structure ---
  /// Minimum sessions per device over the campaign window.
  int min_sessions = 48;
  /// Sessions per expected failure episode (keeps per-session hazard ~1/4).
  double sessions_per_episode = 4.0;
  /// Mean session dwell time (connected-time accounting), seconds.
  double session_dwell_mean_s = 2700.0;

  /// Mean susceptibility of the lognormal(0, sigma) draw used when scaling
  /// per-device failure counts (E[lognormal(0,1.1)] = e^{0.605}).
  double susceptibility_mean = 1.832;
};

/// The calibration every campaign runs (paper values).
const Calibration& default_calibration();

/// Expected number of trace records `profile` will upload over a campaign:
/// the calibrated per-device event target (prevalence-weighted) plus the
/// false-positive and legacy extras that ride along. Sizes the shards'
/// record batches; an estimate, not a bound.
double expected_device_records(const DeviceProfile& profile);

}  // namespace cellrel

#endif  // CELLREL_WORKLOAD_CALIBRATION_H

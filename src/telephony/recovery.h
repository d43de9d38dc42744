// Three-stage progressive Data_Stall recovery (§3.2, §4.2).
//
// Vanilla Android sequentially tries three operations of increasing weight —
// (1) cleaning up and restarting the current connection, (2) re-registering
// into the network, (3) restarting the radio — waiting one minute of
// "probation" before each in case the stall already resolved. The probation
// schedule is a strategy: the vanilla schedule is {60, 60, 60} s, the
// paper's TIMP-optimized schedule is {21, 6, 16} s (computed by
// src/timp/recovery_optimizer, not hard-coded here). Each probation check
// reads the device's network stack: the stall persists while a fault is
// injected.

#ifndef CELLREL_TELEPHONY_RECOVERY_H
#define CELLREL_TELEPHONY_RECOVERY_H

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "net/network_stack.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace cellrel {

/// The three progressive recovery operations.
enum class RecoveryStage : std::uint8_t {
  kCleanupConnection = 0,  // light: tear down + re-setup the data call
  kReregister = 1,         // moderate: detach/re-attach network registration
  kRestartRadio = 2,       // heavy: power-cycle the radio component
};

inline constexpr std::size_t kRecoveryStageCount = 3;

/// Safety cap on recovery cycles per episode: an episode still stalled after
/// this many three-stage cycles ends as kExhausted.
inline constexpr std::uint32_t kMaxRecoveryCycles = 100;

std::string_view to_string(RecoveryStage s);

/// Probation schedule strategy: seconds to wait before executing each stage.
struct ProbationSchedule {
  std::array<SimDuration, kRecoveryStageCount> probation = {
      SimDuration::seconds(60.0), SimDuration::seconds(60.0), SimDuration::seconds(60.0)};
  std::string_view name = "vanilla-60s";
};

/// The vanilla Android schedule (fixed one-minute probations).
ProbationSchedule vanilla_probation_schedule();

/// The TIMP-optimized schedule (§4.3): the paper's 21 / 6 / 16 s probations,
/// which the RecoveryOptimizer reproduces on the calibrated curves.
ProbationSchedule timp_probation_schedule();

/// Builds a schedule from three probation values in seconds.
ProbationSchedule make_probation_schedule(double pro0_s, double pro1_s, double pro2_s,
                                          std::string_view name);

/// How one recovery episode ended.
enum class RecoveryOutcome : std::uint8_t {
  kAutoRecovered,     // stall cleared during a probation window
  kFixedByStage,      // a recovery operation cleared it
  kUserReset,         // the user manually reset the connection
  kExhausted,         // the cycle cap was reached with the stall persisting
  kAborted,           // no path ends an episode so; kept for the zero
                      // recovery.outcome.aborted counter every export carries
};

std::string_view to_string(RecoveryOutcome o);

/// Record of a completed recovery episode (consumed by analysis and TIMP).
struct RecoveryEpisode {
  SimTime started_at;
  SimTime ended_at;
  RecoveryOutcome outcome = RecoveryOutcome::kAutoRecovered;
  /// Valid when outcome == kFixedByStage.
  RecoveryStage fixed_by = RecoveryStage::kCleanupConnection;
  /// Stage executions across all cycles.
  std::uint32_t stages_executed = 0;
  /// Completed three-stage cycles before the episode ended (Android repeats
  /// the progressive sequence while the stall persists).
  std::uint32_t cycles = 0;
  SimDuration duration() const { return ended_at - started_at; }
};

/// Drives one device's Data_Stall recovery state machine on the simulator.
class DataStallRecoverer {
 public:
  /// Supplied at construction and fixed for the recoverer's life. Either
  /// hook may be empty: then no stage operation fixes the stall, or no sink
  /// is told.
  struct Hooks {
    /// Executes the stage's operation; returns true if the network-side
    /// problem is now fixed (environment decides; ~75% for stage 1, §3.2).
    /// Receives the stage and must also account the operation's latency.
    std::function<bool(RecoveryStage)> execute_stage;
    /// Invoked once per finished episode.
    std::function<void(const RecoveryEpisode&)> on_episode_complete;
  };

  /// Resolves its "recovery.*" metric handles in `metrics` here, once:
  /// per-stage execution counters, per-outcome episode counters, and the
  /// episode duration (sim time). A probation check finds the stall over
  /// when `stack` carries no fault.
  DataStallRecoverer(Simulator& sim, const NetworkStack& stack, obs::MetricSink& metrics,
                     ProbationSchedule schedule, Hooks hooks);

  DataStallRecoverer(const DataStallRecoverer&) = delete;
  DataStallRecoverer& operator=(const DataStallRecoverer&) = delete;

  const ProbationSchedule& schedule() const { return schedule_; }

  /// Begins an episode at stall-detection time. No-op if one is running.
  void on_stall_detected();

  /// The stall cleared on its own (auto-recovery) or the user reset the
  /// connection; ends the episode.
  void on_stall_cleared();
  void on_user_reset();

  bool episode_active() const { return active_; }

 private:
  /// Resolved once at construction; no handle is null.
  struct Metrics {
    obs::Counter* episodes = nullptr;
    std::array<obs::Counter*, kRecoveryStageCount> stage_executed = {};
    std::array<obs::Counter*, 5> outcome = {};
    obs::SimTimerStat* episode_duration = nullptr;
  };

  void arm_probation();
  void probation_expired();
  void finish(RecoveryOutcome outcome);
  void record_episode(const RecoveryEpisode& ep);

  Simulator& sim_;
  const NetworkStack& stack_;
  ProbationSchedule schedule_;
  Hooks hooks_;
  ScheduledEvent pending_;
  bool active_ = false;
  std::uint8_t next_stage_ = 0;
  std::uint32_t cycles_ = 0;
  std::uint32_t stages_executed_ = 0;
  SimTime started_at_;
  Metrics metrics_;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_RECOVERY_H

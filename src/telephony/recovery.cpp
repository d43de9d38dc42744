#include "telephony/recovery.h"

#include <utility>

#include "common/check.h"

namespace cellrel {

std::string_view to_string(RecoveryStage s) {
  switch (s) {
    case RecoveryStage::kCleanupConnection: return "cleanup-connection";
    case RecoveryStage::kReregister: return "reregister";
    case RecoveryStage::kRestartRadio: return "restart-radio";
  }
  return "?";
}

std::string_view to_string(RecoveryOutcome o) {
  switch (o) {
    case RecoveryOutcome::kAutoRecovered: return "auto-recovered";
    case RecoveryOutcome::kFixedByStage: return "fixed-by-stage";
    case RecoveryOutcome::kUserReset: return "user-reset";
    case RecoveryOutcome::kExhausted: return "exhausted";
    case RecoveryOutcome::kAborted: return "aborted";
  }
  return "?";
}

ProbationSchedule vanilla_probation_schedule() { return ProbationSchedule{}; }

ProbationSchedule timp_probation_schedule() {
  return make_probation_schedule(21.0, 6.0, 16.0, "timp-optimized");
}

ProbationSchedule make_probation_schedule(double pro0_s, double pro1_s, double pro2_s,
                                          std::string_view name) {
  ProbationSchedule s;
  s.probation = {SimDuration::seconds(pro0_s), SimDuration::seconds(pro1_s),
                 SimDuration::seconds(pro2_s)};
  s.name = name;
  return s;
}

DataStallRecoverer::DataStallRecoverer(Simulator& sim, const NetworkStack& stack,
                                       obs::MetricSink& metrics, ProbationSchedule schedule,
                                       Hooks hooks)
    : sim_(sim), stack_(stack), schedule_(std::move(schedule)), hooks_(std::move(hooks)) {
  metrics_.episodes = &metrics.counter("recovery.episodes");
  for (std::size_t i = 0; i < kRecoveryStageCount; ++i) {
    metrics_.stage_executed[i] = &metrics.counter(
        std::string("recovery.stage.") +
        std::string(to_string(static_cast<RecoveryStage>(i))));
  }
  for (std::size_t i = 0; i < metrics_.outcome.size(); ++i) {
    metrics_.outcome[i] = &metrics.counter(
        std::string("recovery.outcome.") +
        std::string(to_string(static_cast<RecoveryOutcome>(i))));
  }
  metrics_.episode_duration = &metrics.sim_timer("recovery.episode.duration");
}

void DataStallRecoverer::record_episode(const RecoveryEpisode& ep) {
  metrics_.outcome[static_cast<std::size_t>(ep.outcome)]->add();
  metrics_.episode_duration->record(ep.duration());
}

void DataStallRecoverer::on_stall_detected() {
  if (active_) return;
  active_ = true;
  next_stage_ = 0;
  cycles_ = 0;
  stages_executed_ = 0;
  started_at_ = sim_.now();
  metrics_.episodes->add();
  arm_probation();
}

void DataStallRecoverer::arm_probation() {
  CELLREL_CHECK_OP(std::size_t{next_stage_}, <, kRecoveryStageCount);
  const SimDuration wait = schedule_.probation[next_stage_];
  pending_ = sim_.schedule_after(wait, [this] { probation_expired(); });
}

void DataStallRecoverer::probation_expired() {
  if (!active_) return;
  // "Before carrying out each operation, Android would wait ... to watch
  // whether the problem has already been fixed."
  if (stack_.fault() == NetworkFault::kNone) {
    finish(RecoveryOutcome::kAutoRecovered);
    return;
  }
  const auto stage = static_cast<RecoveryStage>(next_stage_);
  ++stages_executed_;
  metrics_.stage_executed[next_stage_]->add();
  const bool fixed = hooks_.execute_stage && hooks_.execute_stage(stage);
  if (fixed) {
    RecoveryEpisode ep;
    ep.started_at = started_at_;
    ep.ended_at = sim_.now();
    ep.outcome = RecoveryOutcome::kFixedByStage;
    ep.fixed_by = stage;
    ep.stages_executed = stages_executed_;
    ep.cycles = cycles_;
    active_ = false;
    record_episode(ep);
    if (hooks_.on_episode_complete) hooks_.on_episode_complete(ep);
    return;
  }
  ++next_stage_;
  if (next_stage_ >= kRecoveryStageCount) {
    // Android repeats the progressive sequence while the stall persists;
    // wrap back to the first stage up to the safety cap.
    ++cycles_;
    if (cycles_ >= kMaxRecoveryCycles) {
      finish(RecoveryOutcome::kExhausted);
      return;
    }
    next_stage_ = 0;
  }
  arm_probation();
}

void DataStallRecoverer::finish(RecoveryOutcome outcome) {
  if (!active_) return;
  pending_.cancel();
  RecoveryEpisode ep;
  ep.started_at = started_at_;
  ep.ended_at = sim_.now();
  ep.outcome = outcome;
  ep.stages_executed = stages_executed_;
  ep.cycles = cycles_;
  active_ = false;
  record_episode(ep);
  if (hooks_.on_episode_complete) hooks_.on_episode_complete(ep);
}

void DataStallRecoverer::on_stall_cleared() { finish(RecoveryOutcome::kAutoRecovered); }

void DataStallRecoverer::on_user_reset() { finish(RecoveryOutcome::kUserReset); }

}  // namespace cellrel

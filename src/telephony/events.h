// Failure-event taxonomy, listener interface and the per-device event bus.
//
// These mirror the notification surface of Android's telephony service that
// Android-MOD instruments (§2.2): cellular failure events are delivered to
// registered listeners together with whatever context the framework has.
// One FailureEventBus per device stack is that surface: every source (setup
// errors, stalls, service state, SMS and voice) raises through it, it stamps
// each event with the serving cell, and it dispatches to the listeners in
// registration order. The rest of the in-situ enrichment (cell identity,
// APN, false-positive verdicts) is performed by the monitoring service in
// src/core.

#ifndef CELLREL_TELEPHONY_EVENTS_H
#define CELLREL_TELEPHONY_EVENTS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bs/base_station.h"
#include "common/names.h"
#include "common/sim_time.h"
#include "radio/fail_cause.h"
#include "radio/rat.h"
#include "radio/signal.h"

namespace cellrel {

// FailureType and FalsePositiveKind (with to_string/parse round trips) live
// in common/names.h so the CLI and analysis layers share one spelling.

/// A failure event as the framework reports it to listeners.
struct FailureEvent {
  FailureType type = FailureType::kDataSetupError;
  SimTime at;
  // Radio context available at notification time.
  Rat rat = Rat::k4G;
  SignalLevel level = SignalLevel::kLevel0;
  BsIndex bs = kInvalidBs;
  FailCause cause = FailCause::kNone;  // setup errors only
  // Ground truth for validation (never consulted by filters).
  FalsePositiveKind ground_truth_fp = FalsePositiveKind::kNone;
};

/// Listener interface the monitoring service registers against the
/// connection-management service (the instrumentation hook of §2.2).
class FailureEventListener {
 public:
  virtual ~FailureEventListener() = default;
  virtual void on_failure_event(const FailureEvent& event) = 0;
  /// Signals that an ongoing failure episode ended: OOS, a stall, or a
  /// Data_Setup_Error episode (the connection reached Active or Inactive).
  virtual void on_failure_cleared(FailureType type, SimTime at) = 0;
};

/// The serving cell the connectivity engine keeps current so failure events
/// carry the right in-situ information.
struct CellContext {
  BsIndex bs = kInvalidBs;
  Rat rat = Rat::k4G;
  SignalLevel level = SignalLevel::kLevel0;
};

/// One device stack's failure-event channel. Registration order is dispatch
/// order, which fixes the order same-time follow-up events are scheduled in
/// — part of the campaign's determinism contract.
class FailureEventBus {
 public:
  /// Appends `l` to the dispatch list; null and duplicates are ignored.
  void add_listener(FailureEventListener* l);
  void remove_listener(FailureEventListener* l);

  void set_cell_context(const CellContext& ctx) { cell_ = ctx; }

  /// Stamps a new event with the serving cell and delivers it.
  void raise(FailureType type, SimTime at, FailCause cause = FailCause::kNone,
             FalsePositiveKind ground_truth = FalsePositiveKind::kNone);
  /// Signals that an ongoing episode of `type` ended.
  void clear(FailureType type, SimTime at);

 private:
  std::vector<FailureEventListener*> listeners_;
  CellContext cell_;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_EVENTS_H

// The data-connection life-cycle state machine (paper Fig. 1).
//
// Android models each cellular data connection with five states: Inactive,
// Activating, Retrying, Active, and Disconnect. We reproduce the machine
// with explicit transition validation so illegal framework behaviour is a
// programming error caught in tests. The machine tells nobody: its owner,
// DcTracker, clears the Data_Setup_Error episode on the device's failure
// bus right after each transition to Active or Inactive.

#ifndef CELLREL_TELEPHONY_DATA_CONNECTION_H
#define CELLREL_TELEPHONY_DATA_CONNECTION_H

#include <cstdint>
#include <string_view>

#include "common/sim_time.h"

namespace cellrel {

/// The five connection states of Fig. 1.
enum class DcState : std::uint8_t {
  kInactive = 0,
  kActivating = 1,
  kRetrying = 2,
  kActive = 3,
  kDisconnect = 4,
};

std::string_view to_string(DcState s);

/// Valid transitions of the Fig. 1 machine.
bool dc_transition_allowed(DcState from, DcState to);

/// One data connection's state with transition enforcement.
class DataConnection {
 public:
  DataConnection() = default;

  DcState state() const { return state_; }
  bool is_active() const { return state_ == DcState::kActive; }

  /// Moves to `next`; throws std::logic_error on an illegal transition.
  void transition(DcState next, SimTime at);

  /// Counters for analysis / invariant checks.
  std::uint64_t transition_count() const { return transitions_; }
  std::uint64_t retry_count() const { return retries_; }
  SimTime last_transition_at() const { return last_transition_; }

 private:
  DcState state_ = DcState::kInactive;
  std::uint64_t transitions_ = 0;
  std::uint64_t retries_ = 0;
  SimTime last_transition_;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_DATA_CONNECTION_H

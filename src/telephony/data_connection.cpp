#include "telephony/data_connection.h"

#include <stdexcept>
#include <string>

namespace cellrel {

std::string_view to_string(DcState s) {
  switch (s) {
    case DcState::kInactive: return "Inactive";
    case DcState::kActivating: return "Activating";
    case DcState::kRetrying: return "Retrying";
    case DcState::kActive: return "Active";
    case DcState::kDisconnect: return "Disconnect";
  }
  return "?";
}

bool dc_transition_allowed(DcState from, DcState to) {
  if (from == to) return false;
  switch (from) {
    case DcState::kInactive:
      // Setup begins.
      return to == DcState::kActivating;
    case DcState::kActivating:
      // Success, a retriable setup error, or teardown mid-activation.
      return to == DcState::kActive || to == DcState::kRetrying ||
             to == DcState::kDisconnect || to == DcState::kInactive;
    case DcState::kRetrying:
      // Another attempt, giving up, or teardown.
      return to == DcState::kActivating || to == DcState::kInactive ||
             to == DcState::kDisconnect;
    case DcState::kActive:
      // Normal or failure-driven teardown.
      return to == DcState::kDisconnect;
    case DcState::kDisconnect:
      // Teardown completes.
      return to == DcState::kInactive;
  }
  return false;
}

void DataConnection::transition(DcState next, SimTime at) {
  if (!dc_transition_allowed(state_, next)) {
    throw std::logic_error("DataConnection: illegal transition " +
                           std::string(to_string(state_)) + " -> " +
                           std::string(to_string(next)));
  }
  state_ = next;
  ++transitions_;
  if (next == DcState::kRetrying) ++retries_;
  last_transition_ = at;
}

}  // namespace cellrel

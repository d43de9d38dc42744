#include "telephony/service_state.h"

namespace cellrel {

std::string_view to_string(ServiceState s) {
  switch (s) {
    case ServiceState::kInService: return "IN_SERVICE";
    case ServiceState::kOutOfService: return "OUT_OF_SERVICE";
    case ServiceState::kEmergencyOnly: return "EMERGENCY_ONLY";
    case ServiceState::kPowerOff: return "POWER_OFF";
  }
  return "?";
}

void ServiceStateTracker::set_state(ServiceState next, SimTime at) {
  if (next == state_) return;
  const ServiceState from = state_;
  state_ = next;
  if (next == ServiceState::kOutOfService) ++oos_episodes_;
  for (const auto& obs : observers_) obs(from, next, at);
}

}  // namespace cellrel

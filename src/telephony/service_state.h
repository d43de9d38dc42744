// ServiceState tracking (Android's ServiceState / Out_of_Service marker).

#ifndef CELLREL_TELEPHONY_SERVICE_STATE_H
#define CELLREL_TELEPHONY_SERVICE_STATE_H

#include <cstdint>

namespace cellrel {

/// Registration states mirroring android.telephony.ServiceState.
enum class ServiceState : std::uint8_t {
  kInService = 0,
  kOutOfService = 1,
  kEmergencyOnly = 2,
  kPowerOff = 3,
};

/// Tracks the device's service state and counts Out_of_Service episodes.
class ServiceStateTracker {
 public:
  ServiceState state() const { return state_; }
  bool out_of_service() const { return state_ == ServiceState::kOutOfService; }

  void set_state(ServiceState next) {
    if (next == ServiceState::kOutOfService && state_ != next) ++oos_episodes_;
    state_ = next;
  }

  std::uint64_t oos_episode_count() const { return oos_episodes_; }

 private:
  ServiceState state_ = ServiceState::kInService;
  std::uint64_t oos_episodes_ = 0;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_SERVICE_STATE_H

// ServiceState tracking (Android's ServiceState / Out_of_Service marker).

#ifndef CELLREL_TELEPHONY_SERVICE_STATE_H
#define CELLREL_TELEPHONY_SERVICE_STATE_H

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "common/sim_time.h"

namespace cellrel {

/// Registration states mirroring android.telephony.ServiceState.
enum class ServiceState : std::uint8_t {
  kInService = 0,
  kOutOfService = 1,
  kEmergencyOnly = 2,
  kPowerOff = 3,
};

std::string_view to_string(ServiceState s);

/// Tracks the device's service state and measures Out_of_Service episodes.
class ServiceStateTracker {
 public:
  using Observer = std::function<void(ServiceState from, ServiceState to, SimTime at)>;

  ServiceState state() const { return state_; }
  bool out_of_service() const { return state_ == ServiceState::kOutOfService; }

  void set_state(ServiceState next, SimTime at);
  void observe(Observer obs) { observers_.push_back(std::move(obs)); }

  std::uint64_t oos_episode_count() const { return oos_episodes_; }

 private:
  ServiceState state_ = ServiceState::kInService;
  std::uint64_t oos_episodes_ = 0;
  std::vector<Observer> observers_;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_SERVICE_STATE_H

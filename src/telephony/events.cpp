#include "telephony/events.h"

#include <algorithm>

namespace cellrel {

void FailureEventBus::add_listener(FailureEventListener* l) {
  if (l && std::find(listeners_.begin(), listeners_.end(), l) == listeners_.end()) {
    listeners_.push_back(l);
  }
}

void FailureEventBus::remove_listener(FailureEventListener* l) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), l), listeners_.end());
}

void FailureEventBus::raise(FailureType type, SimTime at, FailCause cause,
                            FalsePositiveKind ground_truth) {
  FailureEvent event;
  event.type = type;
  event.at = at;
  event.rat = cell_.rat;
  event.level = cell_.level;
  event.bs = cell_.bs;
  event.cause = cause;
  event.ground_truth_fp = ground_truth;
  for (auto* l : listeners_) l->on_failure_event(event);
}

void FailureEventBus::clear(FailureType type, SimTime at) {
  for (auto* l : listeners_) l->on_failure_cleared(type, at);
}

}  // namespace cellrel

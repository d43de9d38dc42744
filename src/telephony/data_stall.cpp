#include "telephony/data_stall.h"

#include "common/check.h"

namespace cellrel {

namespace {

/// Outbound-segment threshold (Android: "over 10").
constexpr std::uint64_t kSentThreshold = 10;
/// Poll cadence against the kernel counters.
constexpr SimDuration kCheckInterval = SimDuration::seconds(10.0);

}  // namespace

DataStallDetector::DataStallDetector(Simulator& sim, const TcpSegmentCounters& tcp,
                                     const NetworkStack& stack, FailureEventBus& events,
                                     obs::MetricSink& metrics)
    : sim_(sim),
      tcp_(tcp),
      stack_(stack),
      events_(events),
      metrics_{metrics.counter("data_stall.checks"), metrics.counter("data_stall.episodes"),
               metrics.sim_timer("data_stall.episode.duration")} {}

void DataStallDetector::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void DataStallDetector::stop() {
  running_ = false;
  next_check_.cancel();
}

void DataStallDetector::schedule_next() {
  if (!running_) return;
  next_check_ = sim_.schedule_after(kCheckInterval, [this] {
    check();
    schedule_next();
  });
}

void DataStallDetector::poll_now() { check(); }

FalsePositiveKind DataStallDetector::ground_truth() const {
  switch (stack_.fault()) {
    case NetworkFault::kFirewallMisconfig:
    case NetworkFault::kProxyBroken:
    case NetworkFault::kModemDriverWedged:
      return FalsePositiveKind::kSystemSideStall;
    case NetworkFault::kDnsOutage:
      return FalsePositiveKind::kDnsResolutionOnly;
    default:
      return FalsePositiveKind::kNone;
  }
}

void DataStallDetector::check() {
  const SimTime now = sim_.now();
  // The detector is a two-state machine (quiet <-> episode); an episode can
  // only have started in the past.
  CELLREL_CHECK(!episode_active_ || episode_started_ <= now)
      << "episode started at " << to_string(episode_started_) << ", now "
      << to_string(now);
  metrics_.checks.add();
  const bool suspected = tcp_.stall_suspected(now, kSentThreshold);
  if (suspected && !episode_active_) {
    episode_active_ = true;
    episode_started_ = now;
    metrics_.episodes.add();
    events_.raise(FailureType::kDataStall, now, FailCause::kNone, ground_truth());
  } else if (!suspected && episode_active_) {
    episode_active_ = false;
    metrics_.episode_duration.record(now - episode_started_);
    events_.clear(FailureType::kDataStall, now);
  }
}

}  // namespace cellrel

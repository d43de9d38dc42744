// Data_Stall detection (Android's detector, §2.1).
//
// "When there have been over 10 outbound TCP segments but not a single
// inbound TCP segment during the last minute, a Data_Stall failure is
// reported to both relevant system services and user-space apps." The
// detector polls the kernel TCP counters every 10 s, raises one event on the
// stack's FailureEventBus at the start of each suspected episode (stamped
// with the bus's serving cell), and clears it when the predicate clears.

#ifndef CELLREL_TELEPHONY_DATA_STALL_H
#define CELLREL_TELEPHONY_DATA_STALL_H

#include "net/network_stack.h"
#include "net/tcp_stats.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "telephony/events.h"

namespace cellrel {

class DataStallDetector {
 public:
  /// Raises on `events`; resolves its "data_stall.*" metric handles in
  /// `metrics` here, once.
  DataStallDetector(Simulator& sim, const TcpSegmentCounters& tcp, const NetworkStack& stack,
                    FailureEventBus& events, obs::MetricSink& metrics);

  DataStallDetector(const DataStallDetector&) = delete;
  DataStallDetector& operator=(const DataStallDetector&) = delete;

  /// Starts/stops periodic polling.
  void start();
  void stop();

  bool episode_active() const { return episode_active_; }

  /// Forces an immediate predicate check (used when traffic or fault state
  /// changes faster than the poll cadence).
  void poll_now();

 private:
  struct Metrics {
    obs::Counter& checks;
    obs::Counter& episodes;
    obs::SimTimerStat& episode_duration;
  };

  void schedule_next();
  void check();
  FalsePositiveKind ground_truth() const;

  Simulator& sim_;
  const TcpSegmentCounters& tcp_;
  const NetworkStack& stack_;
  FailureEventBus& events_;
  Metrics metrics_;
  ScheduledEvent next_check_;
  bool running_ = false;
  bool episode_active_ = false;
  SimTime episode_started_;
};

}  // namespace cellrel

#endif  // CELLREL_TELEPHONY_DATA_STALL_H

// Network-state probing component (§2.2).
//
// Once a suspicious Data_Stall is detected, Android-MOD probes the network
// to (a) rule out device-side false positives and (b) measure the stall's
// duration with <= 5 s error instead of vanilla Android's one-minute
// granularity. Each round simultaneously sends:
//   * an ICMP echo to 127.0.0.1          (timeout 1 s, per RFC 5508 practice)
//   * an ICMP echo to each assigned DNS server (timeout 1 s)
//   * a DNS query for the dedicated test server's name to each DNS server
//                                        (timeout 5 s, per RFC 1536 practice)
// Classification:
//   * localhost times out                      -> system-side false positive
//   * DNS times out, ICMP to the servers is OK -> resolver false positive
//   * everything towards the network times out -> stall persists, next round
//   * a DNS answer arrives                     -> stall over; sum durations
// Past 1200 s of stall the timeouts double every round (overhead control);
// once either timeout exceeds 60 s the prober reverts to Android's original
// fixed-interval detection, which sends no probe. The network stack decides
// each probe's outcome when it is sent; the prober schedules the reply's
// arrival itself. An episode ends only by classification, once every reply
// of its last round has arrived, so no reply is ever in flight after it
// ends. Every round sends the same probes, so a round's traffic is a
// constant (kProbeRoundMessages, kProbeRoundBytes) and the monitor accounts
// an episode's traffic from its round count.

#ifndef CELLREL_CORE_PROBER_H
#define CELLREL_CORE_PROBER_H

#include <cstdint>
#include <functional>

#include "common/sim_time.h"
#include "net/network_stack.h"
#include "sim/event_queue.h"

namespace cellrel {

/// Probes sent per round: an ICMP echo to localhost, and an ICMP echo and a
/// DNS query to each DNS server.
inline constexpr std::uint32_t kProbeRoundMessages = 1 + 2 * kDnsServerCount;
/// Their wire bytes: a 64-byte ICMP echo with standard payload and an
/// 80-byte single-question DNS query.
inline constexpr std::uint64_t kProbeRoundBytes =
    64 * (1 + kDnsServerCount) + 80 * kDnsServerCount;

/// Final classification of one probed stall episode.
enum class ProbeEpisodeResult : std::uint8_t {
  kNetworkStallResolved = 0,   // true Data_Stall; duration measured
  kSystemSideFalsePositive,    // firewall/proxy/driver problem
  kDnsOnlyFalsePositive,       // resolver outage only
};

/// Runs the probing state machine for one stall episode.
class NetworkStateProber {
 public:
  struct Report {
    ProbeEpisodeResult result = ProbeEpisodeResult::kNetworkStallResolved;
    SimDuration measured_duration = SimDuration::zero();
    std::uint32_t rounds = 0;
    bool reverted_to_fallback = false;
  };
  using CompletionCallback = std::function<void(const Report&)>;

  NetworkStateProber(Simulator& sim, NetworkStack& stack);

  NetworkStateProber(const NetworkStateProber&) = delete;
  NetworkStateProber& operator=(const NetworkStateProber&) = delete;

  /// Begins probing a stall first suspected at `stall_started`. `on_done`
  /// fires exactly once. Only one episode may run at a time.
  void start(SimTime stall_started, CompletionCallback on_done);

  bool active() const { return active_; }

 private:
  /// What one round's replies have shown so far.
  struct RoundState {
    std::uint32_t pending = 0;  // replies still in flight
    bool localhost_answered = false;
    bool dns_icmp_answered = false;   // by any DNS server
    bool dns_query_answered = false;  // by any DNS server
  };

  void run_round();
  /// Schedules `outcome`'s arrival at its `elapsed`, where an answer sets
  /// `flag`.
  void await(bool RoundState::*flag, const ProbeOutcome& outcome);
  void classify_round();
  void fallback_check();
  void finish(ProbeEpisodeResult result);

  Simulator& sim_;
  NetworkStack& stack_;
  CompletionCallback on_done_;
  RoundState round_;
  ScheduledEvent pending_fallback_;
  SimTime stall_started_;
  SimDuration icmp_timeout_;
  SimDuration dns_timeout_;
  std::uint32_t rounds_ = 0;
  bool active_ = false;
  bool fallback_mode_ = false;
};

}  // namespace cellrel

#endif  // CELLREL_CORE_PROBER_H

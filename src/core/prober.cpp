#include "core/prober.h"

#include <utility>

#include "common/check.h"

namespace cellrel {

namespace {
// The probe ladder of §2.2: per-round timeouts, the stall age past which
// they double each round, the timeout past which probing reverts to
// vanilla detection, and that detection's fixed cadence.
constexpr SimDuration kIcmpTimeout = SimDuration::seconds(1.0);
constexpr SimDuration kDnsTimeout = SimDuration::seconds(5.0);
constexpr SimDuration kBackoffThreshold = SimDuration::seconds(1200.0);
constexpr SimDuration kRevertThreshold = SimDuration::seconds(60.0);
constexpr SimDuration kFallbackInterval = SimDuration::seconds(60.0);
}  // namespace

NetworkStateProber::NetworkStateProber(Simulator& sim, NetworkStack& stack)
    : sim_(sim), stack_(stack) {}

void NetworkStateProber::start(SimTime stall_started, CompletionCallback on_done) {
  CELLREL_CHECK(!active_) << "prober restarted while a probe round is in flight";
  active_ = true;
  fallback_mode_ = false;
  stall_started_ = stall_started;
  on_done_ = std::move(on_done);
  icmp_timeout_ = kIcmpTimeout;
  dns_timeout_ = kDnsTimeout;
  rounds_ = 0;
  run_round();
}

void NetworkStateProber::finish(ProbeEpisodeResult result) {
  active_ = false;
  pending_fallback_.cancel();
  const Report report{result, sim_.now() - stall_started_, rounds_, fallback_mode_};
  if (auto cb = std::exchange(on_done_, nullptr)) cb(report);
}

void NetworkStateProber::run_round() {
  // Multiplicative back-off once the stall outlives the threshold.
  if (rounds_ > 0 && sim_.now() - stall_started_ > kBackoffThreshold) {
    icmp_timeout_ = icmp_timeout_ * 2.0;
    dns_timeout_ = dns_timeout_ * 2.0;
  }
  if (icmp_timeout_ > kRevertThreshold || dns_timeout_ > kRevertThreshold) {
    // Give up on active probing; vanilla detection takes over.
    fallback_mode_ = true;
    fallback_check();
    return;
  }
  ++rounds_;
  round_ = RoundState{kProbeRoundMessages};

  await(&RoundState::localhost_answered, stack_.icmp_localhost(icmp_timeout_));
  for (std::uint32_t s = 0; s < kDnsServerCount; ++s) {
    await(&RoundState::dns_icmp_answered, stack_.icmp_dns_server(s, icmp_timeout_));
    await(&RoundState::dns_query_answered, stack_.dns_query(s, dns_timeout_));
  }
}

void NetworkStateProber::await(bool RoundState::*flag, const ProbeOutcome& outcome) {
  sim_.schedule_after(outcome.elapsed, [this, flag, answered = outcome.answered] {
    CELLREL_DCHECK(active_) << "probe reply after the episode ended";
    if (answered) round_.*flag = true;
    if (--round_.pending == 0) classify_round();
  });
}

void NetworkStateProber::classify_round() {
  // Problem at the system side rather than the network side (§2.2).
  if (!round_.localhost_answered) {
    finish(ProbeEpisodeResult::kSystemSideFalsePositive);
    return;
  }
  if (round_.dns_query_answered) {
    // Name resolution works again: the stall is over; the accumulated round
    // durations approximate the failure duration within one round (<= 5 s).
    finish(ProbeEpisodeResult::kNetworkStallResolved);
    return;
  }
  // No DNS answers. If the servers answered ICMP, only resolution is broken.
  if (round_.dns_icmp_answered) {
    finish(ProbeEpisodeResult::kDnsOnlyFalsePositive);
    return;
  }
  // Everything towards the network timed out: the stall persists.
  run_round();
}

void NetworkStateProber::fallback_check() {
  // Vanilla Android re-evaluates the stall on its fixed cadence. We consult
  // the same observable its detector would: whether traffic flows again. A
  // healthy or dns-only fault state means inbound segments would resume.
  const NetworkFault f = stack_.fault();
  const bool still_stalled = f == NetworkFault::kNetworkStall || is_system_side(f);
  if (!still_stalled) {
    finish(ProbeEpisodeResult::kNetworkStallResolved);
    return;
  }
  pending_fallback_ =
      sim_.schedule_after(kFallbackInterval, [this] { fallback_check(); });
}

}  // namespace cellrel

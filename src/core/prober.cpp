#include "core/prober.h"

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

// Wire sizes for overhead accounting: ICMP echo with standard payload and a
// typical single-question DNS query.
constexpr std::uint64_t kIcmpBytes = 64;
constexpr std::uint64_t kDnsBytes = 80;
}  // namespace

std::string_view to_string(ProbeEpisodeResult r) {
  switch (r) {
    case ProbeEpisodeResult::kNetworkStallResolved: return "network-stall-resolved";
    case ProbeEpisodeResult::kSystemSideFalsePositive: return "system-side-false-positive";
    case ProbeEpisodeResult::kDnsOnlyFalsePositive: return "dns-only-false-positive";
    case ProbeEpisodeResult::kAborted: return "aborted";
  }
  return "?";
}

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

void NetworkStateProber::abort() {
  if (!active_) return;
  ++generation_;
  pending_fallback_.cancel();
  finish(ProbeEpisodeResult::kAborted);
}

void NetworkStateProber::finish(ProbeEpisodeResult result) {
  active_ = false;
  ++generation_;
  pending_fallback_.cancel();
  Report report;
  report.result = result;
  report.measured_duration = sim_.now() - stall_started_;
  report.rounds = rounds_;
  report.reverted_to_fallback = fallback_mode_;
  if (on_done_) {
    auto cb = std::move(on_done_);
    on_done_ = nullptr;
    cb(report);
  }
}

void NetworkStateProber::run_round() {
  if (!active_) return;
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
  round_ = RoundState{};
  round_.expected_dns = static_cast<std::uint32_t>(stack_.dns_server_count());
  const std::uint64_t gen = generation_;

  messages_sent_ += 1 + 2ull * round_.expected_dns;
  bytes_sent_ += kIcmpBytes * (1 + round_.expected_dns) + kDnsBytes * round_.expected_dns;

  stack_.icmp_localhost(icmp_timeout_, [this, gen](const ProbeOutcome& o) {
    if (gen != generation_) return;
    round_.localhost_done = true;
    round_.localhost_answered = o.answered;
    round_probe_done();
  });
  for (std::uint32_t s = 0; s < round_.expected_dns; ++s) {
    stack_.icmp_dns_server(s, icmp_timeout_, [this, gen](const ProbeOutcome& o) {
      if (gen != generation_) return;
      ++round_.dns_icmp_done;
      if (o.answered) ++round_.dns_icmp_answered;
      round_probe_done();
    });
    stack_.dns_query(s, dns_timeout_, [this, gen](const ProbeOutcome& o) {
      if (gen != generation_) return;
      ++round_.dns_query_done;
      if (o.answered) ++round_.dns_query_answered;
      round_probe_done();
    });
  }
}

void NetworkStateProber::round_probe_done() {
  if (!round_.localhost_done || round_.dns_icmp_done < round_.expected_dns ||
      round_.dns_query_done < round_.expected_dns) {
    return;  // round still in flight
  }
  classify_round();
}

void NetworkStateProber::classify_round() {
  if (!active_) return;
  // Problem at the system side rather than the network side (§2.2).
  if (!round_.localhost_answered) {
    finish(ProbeEpisodeResult::kSystemSideFalsePositive);
    return;
  }
  if (round_.dns_query_answered > 0) {
    // Name resolution works again: the stall is over; the accumulated round
    // durations approximate the failure duration within one round (<= 5 s).
    finish(ProbeEpisodeResult::kNetworkStallResolved);
    return;
  }
  // No DNS answers. If the servers answered ICMP, only resolution is broken.
  if (round_.dns_icmp_answered > 0) {
    finish(ProbeEpisodeResult::kDnsOnlyFalsePositive);
    return;
  }
  // Everything towards the network timed out: the stall persists.
  run_round();
}

void NetworkStateProber::fallback_check() {
  if (!active_) return;
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

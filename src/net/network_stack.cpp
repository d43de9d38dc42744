#include "net/network_stack.h"

namespace cellrel {

std::string_view to_string(NetworkFault fault) {
  switch (fault) {
    case NetworkFault::kNone: return "none";
    case NetworkFault::kNetworkStall: return "network-stall";
    case NetworkFault::kFirewallMisconfig: return "firewall-misconfig";
    case NetworkFault::kProxyBroken: return "proxy-broken";
    case NetworkFault::kModemDriverWedged: return "modem-driver-wedged";
    case NetworkFault::kDnsOutage: return "dns-outage";
  }
  return "?";
}

std::optional<NetworkFault> parse_network_fault(std::string_view name) {
  for (const NetworkFault f : kAllNetworkFaults) {
    if (name == to_string(f)) return f;
  }
  return std::nullopt;
}

NetworkStack::NetworkStack(Rng rng) : rng_(rng) {}

ProbeOutcome NetworkStack::answer(bool reachable, SimDuration rtt_mean, SimDuration timeout) {
  if (!reachable) return {false, timeout};
  const SimDuration rtt = SimDuration::seconds(rng_.exponential(rtt_mean.to_seconds()));
  // Late answers count as timeouts, exactly as the prober perceives them.
  if (rtt >= timeout) return {false, timeout};
  return {true, rtt};
}

ProbeOutcome NetworkStack::icmp_localhost(SimDuration timeout) {
  // The loopback probe fails only for system-side faults.
  const bool reachable = !is_system_side(fault_);
  return answer(reachable, SimDuration::milliseconds(1), timeout);
}

ProbeOutcome NetworkStack::icmp_dns_server(std::size_t /*server*/, SimDuration timeout) {
  // Reaching the resolver requires a working data path; a pure DNS outage
  // leaves ICMP fine. System-side faults block everything outbound too.
  const bool reachable = fault_ == NetworkFault::kNone || fault_ == NetworkFault::kDnsOutage;
  return answer(reachable, SimDuration::milliseconds(45), timeout);
}

ProbeOutcome NetworkStack::dns_query(std::size_t /*server*/, SimDuration timeout) {
  const bool reachable = fault_ == NetworkFault::kNone;
  return answer(reachable, SimDuration::milliseconds(60), timeout);
}

}  // namespace cellrel

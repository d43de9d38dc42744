// Device network-stack simulator with fault injection.
//
// Android-MOD's probing component (§2.2) distinguishes three situations when
// a Data_Stall is suspected:
//   * system-side fault  — ICMP to 127.0.0.1 times out (firewall misconfig,
//     broken proxy, wedged modem driver)  -> false positive;
//   * resolver fault     — DNS queries time out but ICMP to the DNS servers
//     answers                              -> false positive;
//   * network-side stall — everything towards the network times out
//                                          -> true Data_Stall.
// This class simulates exactly those observable behaviours, driven by an
// injected fault state. Each probe returns its outcome when it is sent; the
// prober schedules the answer (or the timeout) at the outcome's `elapsed`.
// Every device has kDnsServerCount DNS servers.

#ifndef CELLREL_NET_NETWORK_STACK_H
#define CELLREL_NET_NETWORK_STACK_H

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/rng.h"
#include "common/sim_time.h"

namespace cellrel {

/// Injected condition of the device's data path.
enum class NetworkFault : std::uint8_t {
  kNone = 0,            // healthy: everything answers
  kNetworkStall,        // true Data_Stall: nothing beyond the device answers
  kFirewallMisconfig,   // system-side: even localhost unreachable
  kProxyBroken,         // system-side: localhost unreachable (userspace path)
  kModemDriverWedged,   // system-side: localhost probe path broken
  kDnsOutage,           // resolver-side: DNS dead, ICMP to resolver fine
};

std::string_view to_string(NetworkFault fault);

/// Every NetworkFault value, in declaration order — the domain scenario-level
/// fault schedules and the fault-transition property tests iterate over.
inline constexpr std::array<NetworkFault, 6> kAllNetworkFaults = {
    NetworkFault::kNone,           NetworkFault::kNetworkStall,
    NetworkFault::kFirewallMisconfig, NetworkFault::kProxyBroken,
    NetworkFault::kModemDriverWedged, NetworkFault::kDnsOutage,
};

/// Parses the to_string() spelling (e.g. "modem-driver-wedged") back to the
/// enum. Returns std::nullopt for unknown names; round-trips every value of
/// kAllNetworkFaults.
std::optional<NetworkFault> parse_network_fault(std::string_view name);

/// True when the fault lives on the device (probing classifies it as a
/// false positive rather than a cellular failure).
constexpr bool is_system_side(NetworkFault f) {
  return f == NetworkFault::kFirewallMisconfig || f == NetworkFault::kProxyBroken ||
         f == NetworkFault::kModemDriverWedged;
}

/// DNS servers assigned to every device; the prober probes each of them.
inline constexpr std::uint32_t kDnsServerCount = 2;

/// Result of one probe (ICMP echo or DNS query).
struct ProbeOutcome {
  bool answered = false;
  SimDuration elapsed = SimDuration::zero();  // RTT if answered, else timeout
};

/// The device-side network stack the prober exercises.
class NetworkStack {
 public:
  explicit NetworkStack(Rng rng);

  NetworkStack(const NetworkStack&) = delete;
  NetworkStack& operator=(const NetworkStack&) = delete;

  /// Current injected fault; the campaign flips this when synthesizing
  /// stalls and device-side problems.
  NetworkFault fault() const { return fault_; }
  void inject_fault(NetworkFault fault) { fault_ = fault; }

  /// ICMP echo to 127.0.0.1; `timeout` per §2.2 defaults to 1 s at callers.
  [[nodiscard]] ProbeOutcome icmp_localhost(SimDuration timeout);

  /// ICMP echo to the i-th assigned DNS server (i < kDnsServerCount).
  [[nodiscard]] ProbeOutcome icmp_dns_server(std::size_t server, SimDuration timeout);

  /// DNS query (for the dedicated test server's name) to the i-th server.
  [[nodiscard]] ProbeOutcome dns_query(std::size_t server, SimDuration timeout);

 private:
  ProbeOutcome answer(bool reachable, SimDuration rtt_mean, SimDuration timeout);

  Rng rng_;
  NetworkFault fault_ = NetworkFault::kNone;
};

}  // namespace cellrel

#endif  // CELLREL_NET_NETWORK_STACK_H

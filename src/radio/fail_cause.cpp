#include "radio/fail_cause.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace cellrel {

std::string_view to_string(ProtocolLayer layer) {
  switch (layer) {
    case ProtocolLayer::kPhysical: return "physical";
    case ProtocolLayer::kLinkMac: return "link/MAC";
    case ProtocolLayer::kNetwork: return "network";
    case ProtocolLayer::kOther: return "other";
  }
  return "?";
}

namespace {

using PL = ProtocolLayer;

constexpr bool kFp = true;  // readability marker for the table below

std::vector<FailCauseInfo> build_catalog() {
  return {
      // Table 2 top-10 (true failures).
      {FailCause::kGprsRegistrationFail, "GPRS_REGISTRATION_FAIL",
       "Failures due to unsuccessful GPRS registration", PL::kNetwork, false},
      {FailCause::kSignalLost, "SIGNAL_LOST",
       "Failures due to network/modem disconnection", PL::kPhysical, false},
      {FailCause::kNoService, "NO_SERVICE",
       "No service during connection setup", PL::kPhysical, false},
      {FailCause::kInvalidEmmState, "INVALID_EMM_STATE",
       "Invalid state of EPS Mobility Management in LTE", PL::kNetwork, false},
      {FailCause::kUnpreferredRat, "UNPREFERRED_RAT",
       "Current RAT is no longer the preferred RAT", PL::kOther, false},
      {FailCause::kPppTimeout, "PPP_TIMEOUT",
       "Failures at the Point-to-Point Protocol setup stage due to a timeout",
       PL::kLinkMac, false},
      {FailCause::kNoHybridHdrService, "NO_HYBRID_HDR_SERVICE",
       "No hybrid High-Data-Rate service", PL::kPhysical, false},
      {FailCause::kPdpLowerlayerError, "PDP_LOWERLAYER_ERROR",
       "Packet Data Protocol error due to radio resource control failures or a "
       "forbidden PLMN",
       PL::kNetwork, false},
      {FailCause::kMaxAccessProbe, "MAX_ACCESS_PROBE",
       "Exceeding maximum number of access probes", PL::kPhysical, false},
      {FailCause::kIratHandoverFailed, "IRAT_HANDOVER_FAILED",
       "Unsuccessful transfer of data call during an Inter-RAT handover",
       PL::kPhysical, false},
      // EMM / mobility management.
      {FailCause::kEmmAccessBarred, "EMM_ACCESS_BARRED",
       "EPS mobility management access barred", PL::kNetwork, false},
      {FailCause::kEmmAccessBarredInfinite, "EMM_ACCESS_BARRED_INFINITE_RETRY",
       "EMM access barred with infinite retry", PL::kNetwork, false},
      {FailCause::kEmmDetached, "EMM_DETACHED",
       "UE is detached from EPS mobility management", PL::kNetwork, false},
      {FailCause::kNasSignalling, "NAS_SIGNALLING",
       "Non-access-stratum signalling error", PL::kNetwork, false},
      {FailCause::kEsmFailure, "ESM_FAILURE",
       "EPS session management procedure failure", PL::kNetwork, false},
      {FailCause::kMmeRejection, "MME_REJECTION",
       "Rejected by the Mobility Management Entity", PL::kNetwork, false},
      {FailCause::kTrackingAreaUpdateFail, "TRACKING_AREA_UPDATE_FAIL",
       "Tracking area update procedure failed", PL::kNetwork, false},
      // Rational rejections (false-positive correlated).
      {FailCause::kInsufficientResources, "INSUFFICIENT_RESOURCES",
       "Base station rejected setup for lack of resources (overload)", PL::kNetwork, kFp},
      {FailCause::kNetworkFailure, "NETWORK_FAILURE",
       "Network-side failure during activation (often transient overload)", PL::kNetwork, kFp},
      {FailCause::kCongestion, "CONGESTION",
       "Network congestion; setup rationally rejected", PL::kNetwork, kFp},
      {FailCause::kAccessClassDsacRejection, "ACCESS_CLASS_DSAC_REJECTION",
       "Domain-specific access control rejection", PL::kNetwork, kFp},
      {FailCause::kServiceOptionOutOfOrder, "SERVICE_OPTION_OUT_OF_ORDER",
       "Requested service option temporarily out of order", PL::kNetwork, kFp},
      {FailCause::kOperatorBarred, "OPERATOR_BARRED",
       "Operator-determined barring", PL::kNetwork, kFp},
      {FailCause::kNasRequestRejectedByNetwork, "NAS_REQUEST_REJECTED_BY_NETWORK",
       "NAS request rejected by the network", PL::kNetwork, kFp},
      // Subscription / account (false-positive correlated).
      {FailCause::kOperatorDeterminedBarring, "OPERATOR_DETERMINED_BARRING",
       "Barred by operator, e.g. insufficient account balance", PL::kOther, kFp},
      {FailCause::kServiceOptionNotSubscribed, "SERVICE_OPTION_NOT_SUBSCRIBED",
       "Requested service option not subscribed", PL::kOther, kFp},
      {FailCause::kSimCardChanged, "SIM_CARD_CHANGED",
       "SIM card changed or removed", PL::kOther, kFp},
      {FailCause::kUserAuthentication, "USER_AUTHENTICATION",
       "User authentication failed", PL::kLinkMac, false},
      // Network layer.
      {FailCause::kIpAddressMismatch, "IP_ADDRESS_MISMATCH",
       "IP address mismatch during handover", PL::kNetwork, false},
      {FailCause::kIpv4ConnectionsLimitReached, "IPV4_CONNECTIONS_LIMIT_REACHED",
       "IPv4 connection limit reached", PL::kNetwork, false},
      {FailCause::kUnknownPdpAddressType, "UNKNOWN_PDP_ADDRESS_TYPE",
       "Unknown PDP address or type", PL::kNetwork, false},
      {FailCause::kOnlyIpv4Allowed, "ONLY_IPV4_ALLOWED",
       "Only IPv4 addresses allowed on this APN", PL::kNetwork, false},
      {FailCause::kOnlyIpv6Allowed, "ONLY_IPV6_ALLOWED",
       "Only IPv6 addresses allowed on this APN", PL::kNetwork, false},
      {FailCause::kMissingUnknownApn, "MISSING_UNKNOWN_APN",
       "Missing or unknown access point name", PL::kNetwork, false},
      {FailCause::kPdnConnDoesNotExist, "PDN_CONN_DOES_NOT_EXIST",
       "PDN connection does not exist", PL::kNetwork, false},
      {FailCause::kMultiConnToSameApnNotAllowed, "MULTI_CONN_TO_SAME_PDN_NOT_ALLOWED",
       "Multiple connections to the same PDN not allowed", PL::kNetwork, false},
      {FailCause::kPdpActivateMaxRetryFailed, "PDP_ACTIVATE_MAX_RETRY_FAILED",
       "PDP context activation exceeded maximum retries", PL::kNetwork, false},
      {FailCause::kApnTypeConflict, "APN_TYPE_CONFLICT",
       "APN type conflict between concurrent requests", PL::kNetwork, false},
      {FailCause::kInvalidPcscfAddr, "INVALID_PCSCF_ADDR",
       "Invalid P-CSCF address received", PL::kNetwork, false},
      // Link / MAC layer.
      {FailCause::kLlcSndcpFailure, "LLC_SNDCP_FAILURE",
       "LLC or SNDCP layer failure", PL::kLinkMac, false},
      {FailCause::kPppAuthFailure, "PPP_AUTH_FAILURE",
       "PPP authentication failed", PL::kLinkMac, false},
      {FailCause::kPppOptionMismatch, "PPP_OPTION_MISMATCH",
       "PPP option negotiation mismatch", PL::kLinkMac, false},
      {FailCause::kPppProtocolNotSupported, "PPP_PROTOCOL_NOT_SUPPORTED",
       "PPP protocol rejected by the peer", PL::kLinkMac, false},
      {FailCause::kAuthFailureOnEmergencyCall, "AUTH_FAILURE_ON_EMERGENCY_CALL",
       "Authentication failure on emergency call setup", PL::kLinkMac, false},
      // Physical / radio.
      {FailCause::kRadioPowerOff, "RADIO_POWER_OFF",
       "Radio is powered off (e.g. airplane mode)", PL::kPhysical, kFp},
      {FailCause::kTetheredCallActive, "TETHERED_CALL_ACTIVE",
       "Concurrent tethered call is active", PL::kOther, kFp},
      {FailCause::kRadioAccessBearerFailure, "RADIO_ACCESS_BEARER_FAILURE",
       "Radio access bearer could not be established", PL::kPhysical, false},
      {FailCause::kRadioNotAvailable, "RADIO_NOT_AVAILABLE",
       "Radio hardware not available", PL::kPhysical, false},
      {FailCause::kLostConnection, "LOST_CONNECTION",
       "Air-interface connection lost", PL::kPhysical, false},
      {FailCause::kModemRestart, "MODEM_RESTART",
       "Modem restarted during the call", PL::kPhysical, false},
      {FailCause::kModemCrash, "MODEM_CRASH",
       "Modem crashed", PL::kPhysical, false},
      {FailCause::kRfUnavailable, "RF_UNAVAILABLE",
       "RF front-end unavailable", PL::kPhysical, false},
      {FailCause::kHandoffPreferenceChanged, "HANDOFF_PREFERENCE_CHANGED",
       "Handoff preference changed mid-setup", PL::kPhysical, false},
      {FailCause::kDataCallDroppedByModem, "DATA_CALL_DROPPED_BY_MODEM",
       "Modem dropped the data call", PL::kPhysical, false},
      // CDMA / legacy.
      {FailCause::kCdmaLockedUntilPowerCycle, "CDMA_LOCKED_UNTIL_POWER_CYCLE",
       "CDMA device locked until power cycle", PL::kPhysical, false},
      {FailCause::kCdmaIntercept, "CDMA_INTERCEPT",
       "CDMA intercept order received", PL::kNetwork, false},
      {FailCause::kCdmaReorder, "CDMA_REORDER",
       "CDMA reorder tone received", PL::kNetwork, false},
      {FailCause::kCdmaReleaseDueToSoRejection, "CDMA_RELEASE_DUE_TO_SO_REJECTION",
       "CDMA release due to service-option rejection", PL::kNetwork, false},
      {FailCause::kCdmaIncomingCall, "CDMA_INCOMING_CALL",
       "Data setup interrupted by an incoming CDMA voice call", PL::kOther, kFp},
      {FailCause::kCdmaAlertStop, "CDMA_ALERT_STOP",
       "CDMA alert-stop order received", PL::kNetwork, false},
      {FailCause::kFadeTimeout, "FADE_TIMEOUT",
       "Air-interface fade before acquisition", PL::kPhysical, false},
      // Device-side / local.
      {FailCause::kUnacceptableNetworkParameter, "UNACCEPTABLE_NETWORK_PARAMETER",
       "Unacceptable network parameter", PL::kOther, false},
      {FailCause::kProtocolErrors, "PROTOCOL_ERRORS",
       "Unspecified protocol error", PL::kNetwork, false},
      {FailCause::kInternalCallPreemptedByEmergency, "INTERNAL_CALL_PREEMPT_BY_EMERGENCY",
       "Data call pre-empted by an emergency call", PL::kOther, kFp},
      {FailCause::kDataSettingsDisabled, "DATA_SETTINGS_DISABLED",
       "Mobile data disabled by the user", PL::kOther, kFp},
      {FailCause::kDataRoamingSettingsDisabled, "DATA_ROAMING_SETTINGS_DISABLED",
       "Data roaming disabled by the user", PL::kOther, kFp},
      {FailCause::kPreferredDataSwitched, "PREFERRED_DATA_SWITCHED",
       "Preferred data subscription switched", PL::kOther, kFp},
      {FailCause::kUnknown, "UNKNOWN_DATA_CALL_FAILURE",
       "Unknown data call failure", PL::kOther, false},
  };
}

}  // namespace

const FailCauseCatalog& FailCauseCatalog::instance() {
  static const FailCauseCatalog catalog;
  return catalog;
}

namespace {

bool code_before(const FailCauseInfo* info, FailCause cause) { return info->cause < cause; }
bool name_before(const FailCauseInfo* info, std::string_view name) { return info->name < name; }

}  // namespace

FailCauseCatalog::FailCauseCatalog() : infos_(build_catalog()) {
  for (const FailCauseInfo& i : infos_) by_code_.push_back(&i);
  by_name_ = by_code_;
  // Stable, so of two entries sharing a code or a name the first one wins,
  // as in a scan of the catalogue.
  std::stable_sort(by_code_.begin(), by_code_.end(),
                   [](const auto* a, const auto* b) { return code_before(a, b->cause); });
  std::stable_sort(by_name_.begin(), by_name_.end(),
                   [](const auto* a, const auto* b) { return name_before(a, b->name); });
  unknown_ = find(FailCause::kUnknown);
  CELLREL_CHECK(unknown_ != nullptr);
}

const FailCauseInfo* FailCauseCatalog::find(FailCause cause) const {
  const auto it = std::lower_bound(by_code_.begin(), by_code_.end(), cause, code_before);
  return it != by_code_.end() && (*it)->cause == cause ? *it : nullptr;
}

const FailCauseInfo& FailCauseCatalog::info(FailCause cause) const {
  // Unknown codes degrade to the generic entry rather than throwing: the
  // modem may surface vendor-specific codes outside the catalogue.
  const FailCauseInfo* found = find(cause);
  return found != nullptr ? *found : *unknown_;
}

std::optional<FailCause> FailCauseCatalog::by_name(std::string_view name) const {
  const auto it = std::lower_bound(by_name_.begin(), by_name_.end(), name, name_before);
  if (it == by_name_.end() || (*it)->name != name) return std::nullopt;
  return (*it)->cause;
}

std::string_view to_string(FailCause cause) {
  return FailCauseCatalog::instance().info(cause).name;
}

namespace {

// Table 2 shares (percent of true Data_Setup_Error failures).
struct Top10Share {
  FailCause cause;
  double percent;
};
constexpr std::array<Top10Share, 10> kTable2 = {{
    {FailCause::kGprsRegistrationFail, 12.8},
    {FailCause::kSignalLost, 7.2},
    {FailCause::kNoService, 6.5},
    {FailCause::kInvalidEmmState, 4.9},
    {FailCause::kUnpreferredRat, 4.3},
    {FailCause::kPppTimeout, 3.5},
    {FailCause::kNoHybridHdrService, 2.2},
    {FailCause::kPdpLowerlayerError, 1.9},
    {FailCause::kMaxAccessProbe, 1.8},
    {FailCause::kIratHandoverFailed, 1.6},
}};

}  // namespace

FailCauseSampler::FailCauseSampler() {
  const auto& catalog = FailCauseCatalog::instance();

  std::vector<double> weights;
  double top10_total = 0.0;
  for (const auto& [cause, percent] : kTable2) {
    true_codes_.push_back(cause);
    weights.push_back(percent);
    top10_total += percent;
  }
  // The remaining (100 - 46.7)% is spread over the genuine-failure tail with
  // a geometrically decaying weight so no single tail code enters the top 10.
  std::vector<FailCause> tail;
  for (const auto& info : catalog.all()) {
    if (info.false_positive_correlated) continue;
    if (info.cause == FailCause::kNone) continue;
    const bool in_top10 =
        std::any_of(kTable2.begin(), kTable2.end(),
                    [&](const Top10Share& s) { return s.cause == info.cause; });
    if (!in_top10) tail.push_back(info.cause);
  }
  const double tail_total = 100.0 - top10_total;
  // Geometric decay over the tail, with the decay rate chosen so the whole
  // remaining mass is assigned while the largest tail share stays strictly
  // below IRAT_HANDOVER_FAILED's 1.6% (no tail code may displace a Table 2
  // entry). first = tail_total * (1 - d) / (1 - d^n) decreases in d, so a
  // simple bisection finds the smallest admissible decay.
  const double cap = 1.55;
  const auto n_tail = static_cast<double>(tail.size());
  double lo = 0.5, hi = 0.9999;
  for (int iter = 0; iter < 60; ++iter) {
    const double d = (lo + hi) / 2.0;
    const double first = tail_total * (1.0 - d) / (1.0 - std::pow(d, n_tail));
    (first > cap ? lo : hi) = d;
  }
  const double decay = hi;
  const double first = tail_total * (1.0 - decay) / (1.0 - std::pow(decay, n_tail));
  for (std::size_t i = 0; i < tail.size(); ++i) {
    true_codes_.push_back(tail[i]);
    weights.push_back(first * std::pow(decay, static_cast<double>(i)));
  }
  true_table_ = AliasTable{weights};

  emm_codes_ = {FailCause::kEmmAccessBarred, FailCause::kInvalidEmmState,
                FailCause::kEmmAccessBarredInfinite, FailCause::kTrackingAreaUpdateFail,
                FailCause::kMmeRejection};
}

FailCause FailCauseSampler::sample_true_failure(Rng& rng) const {
  return true_codes_[true_table_.sample(rng)];
}

FailCause FailCauseSampler::sample_emm_failure(Rng& rng) const {
  // EMM_ACCESS_BARRED and INVALID_EMM_STATE dominate (the two the paper
  // names); the rest share the remainder.
  const double u = rng.next_double();
  if (u < 0.40) return emm_codes_[0];
  if (u < 0.75) return emm_codes_[1];
  const auto i = static_cast<std::size_t>(rng.uniform_int(2, 4));
  return emm_codes_[i];
}

}  // namespace cellrel

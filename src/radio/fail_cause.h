// Android DataFailCause reproduction.
//
// When a data-call setup fails, the radio interface reports an error code
// drawn from Android's DataFailCause space (344 codes in the version the
// paper studied). We reproduce a representative catalogue: every code in the
// paper's Table 2, the codes named in the level-5 RSS analysis
// (EMM_ACCESS_BARRED etc.), the codes whose semantics mark *rational*
// rejections (used by the false-positive filter, e.g. congestion/overload),
// and a long tail of genuine failures across the protocol layers.

#ifndef CELLREL_RADIO_FAIL_CAUSE_H
#define CELLREL_RADIO_FAIL_CAUSE_H

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace cellrel {

/// Protocol layer at which a data-setup failure manifests (§3.2).
enum class ProtocolLayer : std::uint8_t {
  kPhysical,  // e.g. SIGNAL_LOST, IRAT_HANDOVER_FAILED
  kLinkMac,   // e.g. PPP_TIMEOUT, device authentication
  kNetwork,   // e.g. INVALID_EMM_STATE, IP allocation
  kOther,
};

std::string_view to_string(ProtocolLayer layer);

/// Data-setup failure codes (named subset of Android's DataFailCause).
/// Numeric values follow AOSP where the code exists there.
enum class FailCause : std::int32_t {
  kNone = 0,
  // --- Table 2 top-10 (true failures) ---
  kGprsRegistrationFail = 0x09,
  kSignalLost = 0x10004,
  kNoService = 0x1000A,
  kInvalidEmmState = 0x10016,
  kUnpreferredRat = 0x10008,
  kPppTimeout = 0x1000E,
  kNoHybridHdrService = 0x10013,
  kPdpLowerlayerError = 0x1000C,
  kMaxAccessProbe = 0x10002,
  kIratHandoverFailed = 0x10019,
  // --- EMM / mobility management (level-5 RSS analysis, §3.3) ---
  kEmmAccessBarred = 0x73,
  kEmmAccessBarredInfinite = 0x74,
  kEmmDetached = 0x10012,
  kNasSignalling = 0x0E,
  kEsmFailure = 0x2B,
  kMmeRejection = 0x7B,
  kTrackingAreaUpdateFail = 0x7C,
  // --- Rational rejections (false-positive correlated) ---
  kInsufficientResources = 0x1A,
  kNetworkFailure = 0x26,
  kCongestion = 0x8B9F,
  kAccessClassDsacRejection = 0x10015,
  kServiceOptionOutOfOrder = 0x22,
  kOperatorBarred = 0x08,
  kNasRequestRejectedByNetwork = 0x10,
  // --- Subscription / account (false-positive correlated) ---
  kOperatorDeterminedBarring = 0x09F,
  kServiceOptionNotSubscribed = 0x21,
  kSimCardChanged = 0x10bb8,
  kUserAuthentication = 0x1D,
  // --- Network layer failures ---
  kIpAddressMismatch = 0x79,
  kIpv4ConnectionsLimitReached = 0x10bc1,
  kUnknownPdpAddressType = 0x1C,
  kOnlyIpv4Allowed = 0x32,
  kOnlyIpv6Allowed = 0x33,
  kMissingUnknownApn = 0x1B,
  kPdnConnDoesNotExist = 0x36,
  kMultiConnToSameApnNotAllowed = 0x37,
  kPdpActivateMaxRetryFailed = 0x10bc6,
  kApnTypeConflict = 0x70,
  kInvalidPcscfAddr = 0x71,
  // --- Link / MAC layer failures ---
  kLlcSndcpFailure = 0x19,
  kPppAuthFailure = 0x10bd9,
  kPppOptionMismatch = 0x10bda,
  kPppProtocolNotSupported = 0x10bdb,
  kAuthFailureOnEmergencyCall = 0x10bbf,
  // --- Physical / radio failures ---
  kRadioPowerOff = 0x10005,
  kTetheredCallActive = 0x10006,
  kRadioAccessBearerFailure = 0x1000D,
  kRadioNotAvailable = 0x10023,
  kLostConnection = 0x10bfc,
  kModemRestart = 0x10bec,
  kModemCrash = 0x10bed,
  kRfUnavailable = 0x10bee,
  kHandoffPreferenceChanged = 0x10021,
  kDataCallDroppedByModem = 0x10bef,
  // --- CDMA / legacy ---
  kCdmaLockedUntilPowerCycle = 0x10bf0,
  kCdmaIntercept = 0x10bf1,
  kCdmaReorder = 0x10bf2,
  kCdmaReleaseDueToSoRejection = 0x10bf3,
  kCdmaIncomingCall = 0x10bf4,
  kCdmaAlertStop = 0x10bf5,
  kFadeTimeout = 0x10bf6,
  // --- Device-side / local ---
  kUnacceptableNetworkParameter = 0x10026,
  kProtocolErrors = 0x6F,
  kInternalCallPreemptedByEmergency = 0x10bc0,
  kDataSettingsDisabled = 0x10bc8,
  kDataRoamingSettingsDisabled = 0x10bc9,
  kPreferredDataSwitched = 0x10bca,
  kUnknown = 0x10000,
};

/// Static metadata for a failure code.
struct FailCauseInfo {
  FailCause cause = FailCause::kUnknown;
  std::string_view name;
  std::string_view description;
  ProtocolLayer layer = ProtocolLayer::kOther;
  /// True when the code denotes a *rational* rejection (BS overload, account
  /// state, local settings) that the study filters out as a false positive.
  bool false_positive_correlated = false;
};

/// Read-only catalogue of all modelled failure codes.
class FailCauseCatalog {
 public:
  /// The process-wide catalogue (immutable after construction).
  static const FailCauseCatalog& instance();

  std::span<const FailCauseInfo> all() const { return infos_; }
  /// The entry of `cause`; a code outside the catalogue gets kUnknown's.
  const FailCauseInfo& info(FailCause cause) const;
  std::optional<FailCause> by_name(std::string_view name) const;

 private:
  FailCauseCatalog();
  const FailCauseInfo* find(FailCause cause) const;  // null outside the catalogue

  std::vector<FailCauseInfo> infos_;
  // Binary-search indexes over infos_: sorted by code and by name.
  std::vector<const FailCauseInfo*> by_code_;
  std::vector<const FailCauseInfo*> by_name_;
  const FailCauseInfo* unknown_ = nullptr;
};

std::string_view to_string(FailCause cause);

/// Samples setup-failure codes with the marginal distribution the paper
/// reports in Table 2: the top-10 codes receive their published shares
/// (46.7% in total) and the remaining mass is spread over the genuine-
/// failure tail of the catalogue.
class FailCauseSampler {
 public:
  FailCauseSampler();

  /// Draws a *true* failure code (never a false-positive-correlated one).
  FailCause sample_true_failure(Rng& rng) const;

  /// Draws an EMM mobility-management failure (dense-deployment hubs).
  FailCause sample_emm_failure(Rng& rng) const;

 private:
  std::vector<FailCause> true_codes_;
  AliasTable true_table_;
  std::vector<FailCause> emm_codes_;
};

}  // namespace cellrel

#endif  // CELLREL_RADIO_FAIL_CAUSE_H

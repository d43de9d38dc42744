#include "workload/scenario.h"

#include <cstdlib>
#include <optional>
#include <string_view>
#include <utility>

#include "common/thread_pool.h"

namespace cellrel {

namespace {

/// Upper bound on an explicit worker-thread request. Far above any real
/// machine; catches sign errors and garbage input (e.g. "--threads -1"
/// wrapping to 4 billion) before a pool is sized from it.
constexpr std::uint32_t kMaxThreads = 4096;

/// A thread count given as text: only a plain decimal integer in
/// [0, kMaxThreads] counts (no sign, no blanks, no suffix).
std::optional<std::uint32_t> parse_thread_count(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint32_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
    if (value > kMaxThreads) return std::nullopt;
  }
  return value;
}

}  // namespace

std::uint32_t Scenario::resolve_threads() const {
  std::uint32_t resolved = threads;
  if (const char* env = std::getenv("CELLREL_THREADS")) {
    resolved = parse_thread_count(env).value_or(threads);
  }
  if (resolved == 0) {
    resolved = static_cast<std::uint32_t>(hardware_threads());
  }
  return resolved;
}

std::vector<ScenarioError> Scenario::validate() const {
  std::vector<ScenarioError> errors;
  if (device_count == 0) {
    errors.push_back({"device_count", "fleet must contain at least one device"});
  }
  if (!(campaign_days > 0.0)) {
    errors.push_back({"campaign_days", "campaign window must be positive"});
  }
  if (deployment.bs_count == 0) {
    errors.push_back({"deployment.bs_count", "deployment must contain at least one BS"});
  }
  if (threads > kMaxThreads) {
    errors.push_back({"threads", "worker-thread request exceeds " +
                                     std::to_string(kMaxThreads) +
                                     " (0 means one per hardware thread)"});
  }
  if (const char* env = std::getenv("CELLREL_THREADS"); env && !parse_thread_count(env)) {
    std::string message = "'";
    message += env;
    message += "' is not a worker-thread count (a decimal integer in [0, ";
    message += std::to_string(kMaxThreads);
    message += "]; 0 means one per hardware thread)";
    errors.push_back({"CELLREL_THREADS", std::move(message)});
  }
  if (!spill_dir.empty() && !stream) {
    errors.push_back({"spill_dir", "batch spilling requires streaming mode (set stream)"});
  }
  if (detect && !(detect_window_s >= 1.0)) {
    errors.push_back({"detect_window_s",
                      "detection window must be at least one simulated second"});
  }
  // Scenario-pack rules fire only when the corresponding feature is enabled,
  // so default (pack-free) scenarios validate exactly as before.
  if (mobility.enabled) {
    if (!(mobility.legs_per_day > 0.0) || mobility.legs_per_day > 48.0) {
      errors.push_back({"mobility.legs_per_day",
                        "movement legs per day must be in (0, 48] when the "
                        "mobility model is enabled"});
    }
    if (!(mobility.commuter_fraction >= 0.0) || mobility.commuter_fraction > 1.0) {
      errors.push_back({"mobility.commuter_fraction",
                        "commuter fraction must be a probability in [0, 1]"});
    }
  }
  if (incident.outage_enabled()) {
    if (!(incident.outage_days > 0.0)) {
      errors.push_back({"incident.outage_days",
                        "outage window must be positive when the outage is enabled"});
    }
    if (!(incident.outage_start_day >= 0.0)) {
      errors.push_back({"incident.outage_start_day",
                        "outage start must not precede the campaign origin"});
    }
    if (!(incident.outage_region_fraction > 0.0) ||
        incident.outage_region_fraction > 1.0) {
      errors.push_back({"incident.outage_region_fraction",
                        "affected region fraction must be in (0, 1]"});
    }
  } else if (incident.national_roaming) {
    errors.push_back({"incident.national_roaming",
                      "national roaming is an outage fallback; enable the "
                      "regional outage to use it"});
  }
  if (incident.degradation_enabled()) {
    if (incident.cluster_size == 0) {
      errors.push_back({"incident.cluster_size",
                        "degraded clusters must contain at least one BS"});
    }
    if (!(incident.degradation_days > 0.0)) {
      errors.push_back({"incident.degradation_days",
                        "degradation window must be positive when clusters are set"});
    }
    if (!(incident.degradation_start_day >= 0.0)) {
      errors.push_back({"incident.degradation_start_day",
                        "degradation start must not precede the campaign origin"});
    }
    if (!(incident.degradation_severity >= 1.0)) {
      errors.push_back({"incident.degradation_severity",
                        "degradation severity is a hazard multiplier and must be >= 1"});
    }
  }
  if (incident.fault_schedule_enabled()) {
    if (!(incident.fault_days > 0.0)) {
      errors.push_back({"incident.fault_days",
                        "fault-injection window must be positive when a fault "
                        "is scheduled"});
    }
    if (!(incident.fault_start_day >= 0.0)) {
      errors.push_back({"incident.fault_start_day",
                        "fault-injection start must not precede the campaign origin"});
    }
  }
  return errors;
}

std::string format_errors(const std::vector<ScenarioError>& errors) {
  std::string out;
  for (const ScenarioError& e : errors) {
    out += e.field;
    out += ": ";
    out += e.message;
    out += '\n';
  }
  return out;
}

}  // namespace cellrel

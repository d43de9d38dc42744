#include "core/monitor_service.h"

#include <cmath>
#include <utility>

#include "common/check.h"

namespace cellrel {

namespace {
// Wire bytes wrapped around each uploaded batch.
constexpr std::uint64_t kUploadEnvelopeBytes = 64;
}  // namespace

MonitorService::MonitorService(TelephonyManager& telephony, obs::MetricSink& metrics,
                               Identity identity, Sink sink, Config config)
    : telephony_(telephony),
      metrics_{metrics.counter("monitor.events.handled"),
               metrics.counter("monitor.records.written"),
               metrics.counter("monitor.records.filtered_fp"),
               metrics.counter("monitor.probe.rounds")},
      identity_(identity),
      config_(std::move(config)),
      prober_(telephony.simulator(), telephony.network()),
      sink_(std::move(sink)) {
  telephony_.register_failure_listener(this);
}

MonitorService::~MonitorService() { telephony_.unregister_failure_listener(this); }

TraceRecord MonitorService::base_record(const FailureEvent& event) const {
  TraceRecord r;
  r.device = identity_.device;
  r.model_id = identity_.model_id;
  r.isp = identity_.isp;
  r.type = event.type;
  r.at = event.at;
  r.rat = event.rat;
  r.level = event.level;
  r.bs = event.bs;
  if (config_.resolve_cell && event.bs != kInvalidBs) r.cell = config_.resolve_cell(event.bs);
  r.apn = telephony_.dc_tracker().apn();
  r.cause = event.cause;
  r.ground_truth_fp = event.ground_truth_fp;
  return r;
}

void MonitorService::write_record(TraceRecord record) {
  const std::size_t bytes = compressed_record_bytes(record);
  overhead_.on_trace_written(bytes);
  overhead_.add_failure_duration(record.duration);
  metrics_.records.add();
  if (record.filtered_false_positive) metrics_.filtered_fp.add();
  pending_bytes_ += bytes;
  pending_.push_back(std::move(record));
}

void MonitorService::upload() {
  if (pending_.empty()) return;
  overhead_.on_traces_uploaded(pending_bytes_ + kUploadEnvelopeBytes);
  pending_bytes_ = 0;
  sink_(std::span<TraceRecord>(pending_));
  pending_.clear();
}

void MonitorService::on_failure_event(const FailureEvent& event) {
  overhead_.on_event_handled();
  metrics_.events.add();
  const DeviceObservables obs =
      config_.observables ? config_.observables() : DeviceObservables{};
  switch (event.type) {
    case FailureType::kDataSetupError: {
      TraceRecord r = base_record(event);
      const FilterVerdict verdict = filter_.classify(event, obs);
      r.filtered_false_positive = verdict.false_positive;
      r.duration_method = DurationMethod::kStateTracking;
      if (!setup_episode_started_) setup_episode_started_ = event.at;
      open_setup_events_.push_back(std::move(r));
      break;
    }
    case FailureType::kDataStall: {
      if (open_stall_) break;  // already tracking this episode
      TraceRecord r = base_record(event);
      open_stall_ = std::move(r);
      if (config_.use_probing) {
        prober_.start(event.at,
                      [this](const NetworkStateProber::Report& rep) { on_probe_complete(rep); });
      }
      break;
    }
    case FailureType::kOutOfService: {
      TraceRecord r = base_record(event);
      const FilterVerdict verdict = filter_.classify(event, obs);
      r.filtered_false_positive = verdict.false_positive;
      r.duration_method = DurationMethod::kStateTracking;
      open_oos_ = std::move(r);
      break;
    }
    case FailureType::kSmsSendFail:
    case FailureType::kVoiceCallDrop: {
      // Legacy service failures: recorded as instantaneous events (<1% of
      // the dataset, §3.1).
      TraceRecord r = base_record(event);
      r.duration_method = DurationMethod::kNone;
      write_record(std::move(r));
      break;
    }
  }
}

void MonitorService::close_setup_episode(SimTime at) {
  if (!setup_episode_started_ || open_setup_events_.empty()) {
    setup_episode_started_.reset();
    open_setup_events_.clear();
    return;
  }
  const SimDuration episode = at - *setup_episode_started_;
  const double n = static_cast<double>(open_setup_events_.size());
  for (auto& r : open_setup_events_) {
    r.duration = episode * (1.0 / n);
    write_record(std::move(r));
  }
  open_setup_events_.clear();
  setup_episode_started_.reset();
}

void MonitorService::on_failure_cleared(FailureType type, SimTime at) {
  switch (type) {
    case FailureType::kDataSetupError:
      // The connection left the setup loop (Active or Inactive).
      close_setup_episode(at);
      break;
    case FailureType::kDataStall: {
      if (!open_stall_) break;
      if (config_.use_probing) break;  // the prober closes the episode
      // Vanilla fallback: duration known only at the detector's one-minute
      // granularity; round up to the next minute boundary.
      TraceRecord r = std::move(*open_stall_);
      open_stall_.reset();
      const double raw = (at - r.at).to_seconds();
      const double rounded = std::ceil(raw / 60.0) * 60.0;
      r.duration = SimDuration::seconds(rounded < 60.0 ? 60.0 : rounded);
      r.duration_method = DurationMethod::kAndroidFallback;
      write_record(std::move(r));
      break;
    }
    case FailureType::kOutOfService: {
      if (!open_oos_) break;
      TraceRecord r = std::move(*open_oos_);
      open_oos_.reset();
      r.duration = at - r.at;
      write_record(std::move(r));
      break;
    }
    default:
      break;
  }
}

void MonitorService::on_probe_complete(const NetworkStateProber::Report& report) {
  CELLREL_CHECK(open_stall_.has_value()) << "probe episode ended without an open stall";
  overhead_.on_probe_rounds(report.rounds);
  overhead_.on_probe_traffic(report.rounds * kProbeRoundBytes);
  metrics_.probe_rounds.add(report.rounds);

  TraceRecord r = std::move(*open_stall_);
  open_stall_.reset();
  r.duration = report.measured_duration;
  r.probe_rounds = report.rounds;
  r.duration_method = report.reverted_to_fallback ? DurationMethod::kAndroidFallback
                                                  : DurationMethod::kProbing;
  r.filtered_false_positive =
      report.result == ProbeEpisodeResult::kSystemSideFalsePositive ||
      report.result == ProbeEpisodeResult::kDnsOnlyFalsePositive;
  write_record(std::move(r));
}

}  // namespace cellrel

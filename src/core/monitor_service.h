// The Android-MOD monitoring service (§2.2).
//
// Registered as a failure-event listener on the telephony stack, this
// service (1) rules out false positives via the code table, device
// observables, and active probing; (2) enriches events with in-situ radio /
// BS context; (3) measures failure durations — setup-error episodes and OOS
// by state tracking, Data_Stall by the probing ladder; and (4) hands records
// to the WiFi-gated uploader while accounting its own overhead.

#ifndef CELLREL_CORE_MONITOR_SERVICE_H
#define CELLREL_CORE_MONITOR_SERVICE_H

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/false_positive_filter.h"
#include "core/overhead.h"
#include "core/prober.h"
#include "core/trace.h"
#include "core/uploader.h"
#include "obs/metrics.h"
#include "telephony/telephony_manager.h"

namespace cellrel {

class MonitorService final : public FailureEventListener {
 public:
  using CellResolver = std::function<CellIdentity(BsIndex)>;
  using ObservablesSource = std::function<DeviceObservables()>;

  struct Config {
    /// When false, Data_Stall durations fall back to vanilla Android's
    /// fixed-interval estimation (used by the probe-ladder ablation).
    bool use_probing = true;
    /// Maps a BsIndex to the cell identity to record (the registry lookup,
    /// injected to keep this module decoupled from BS ownership). Empty:
    /// records carry no cell identity.
    CellResolver resolve_cell;
    /// The device state the false-positive filter consults. Empty: default
    /// observables (data enabled, no call, account in good standing).
    ObservablesSource observables;
  };

  /// `identity` stamps records.
  struct Identity {
    DeviceId device = 0;
    int model_id = 0;
    IspId isp = IspId::kIspA;
  };

  /// Registers on `telephony`'s failure-event bus and resolves the
  /// "monitor.*" metric handles (events handled, records written / filtered
  /// as false positives, probe-ladder rounds) in `metrics`, once.
  MonitorService(TelephonyManager& telephony, obs::MetricSink& metrics, Identity identity,
                 TraceUploader::Sink sink, Config config);
  ~MonitorService() override;

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// WiFi state passthrough to the uploader (with overhead accounting).
  void set_wifi_available(bool available) {
    uploader_.set_wifi_available(available);
    sync_upload_accounting();
  }
  void flush_uploads() {
    uploader_.flush();
    sync_upload_accounting();
  }

  // FailureEventListener:
  void on_failure_event(const FailureEvent& event) override;
  void on_failure_cleared(FailureType type, SimTime at) override;

  const OverheadAccountant& overhead() const { return overhead_; }
  std::uint64_t records_written() const { return records_written_; }

 private:
  struct Metrics {
    obs::Counter& events;
    obs::Counter& records;
    obs::Counter& filtered_fp;
    obs::Counter& probe_rounds;
  };

  void sync_upload_accounting() {
    const std::uint64_t bytes = uploader_.uploaded_bytes();
    const std::uint64_t records = uploader_.uploaded_records();
    if (bytes > uploaded_bytes_seen_) {
      overhead_.on_traces_uploaded(records - uploaded_records_seen_,
                                    bytes - uploaded_bytes_seen_);
      uploaded_bytes_seen_ = bytes;
      uploaded_records_seen_ = records;
    }
  }

  void write_record(TraceRecord record);
  TraceRecord base_record(const FailureEvent& event) const;
  void on_probe_complete(const NetworkStateProber::Report& report);
  void close_setup_episode(SimTime at);

  TelephonyManager& telephony_;
  Metrics metrics_;
  Identity identity_;
  Config config_;
  FalsePositiveFilter filter_;
  NetworkStateProber prober_;
  TraceUploader uploader_;
  OverheadAccountant overhead_;

  // Open setup-error episode: events buffered until the connection
  // activates; the episode duration is split across its events.
  std::vector<TraceRecord> open_setup_events_;
  std::optional<SimTime> setup_episode_started_;

  // Open Data_Stall episode.
  std::optional<TraceRecord> open_stall_;

  // Open Out_of_Service episode.
  std::optional<TraceRecord> open_oos_;

  std::uint64_t records_written_ = 0;
  std::uint64_t probe_bytes_seen_ = 0;
  std::uint64_t uploaded_bytes_seen_ = 0;
  std::uint64_t uploaded_records_seen_ = 0;
};

}  // namespace cellrel

#endif  // CELLREL_CORE_MONITOR_SERVICE_H

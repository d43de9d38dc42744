// The Android-MOD monitoring service (§2.2-2.3).
//
// Registered as a failure-event listener on the telephony stack, this
// service (1) rules out false positives via the code table, device
// observables, and active probing; (2) enriches events with in-situ radio /
// BS context; (3) measures failure durations — setup-error episodes and OOS
// by state tracking, Data_Stall by the probing ladder; and (4) keeps the
// compressed records on the device until an upload hands them to the
// backend ("only when there is WiFi connectivity"). It is the one place a
// record is written, buffered, uploaded and paid for: each cost (CPU,
// buffered memory, storage, probe and upload traffic) is charged to its
// overhead accountant where the work happens.

#ifndef CELLREL_CORE_MONITOR_SERVICE_H
#define CELLREL_CORE_MONITOR_SERVICE_H

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/false_positive_filter.h"
#include "core/overhead.h"
#include "core/prober.h"
#include "core/trace.h"
#include "obs/metrics.h"
#include "telephony/telephony_manager.h"

namespace cellrel {

class MonitorService final : public FailureEventListener {
 public:
  using CellResolver = std::function<CellIdentity(BsIndex)>;
  using ObservablesSource = std::function<DeviceObservables()>;
  /// Receives every uploaded batch (the "backend server"). The span is a
  /// view into the monitor's buffer, valid only for the duration of the
  /// call; the sink may move from the records (the buffer is cleared, not
  /// reallocated, right after), so one allocation serves the whole campaign.
  using Sink = std::function<void(std::span<TraceRecord>)>;

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
  /// as false positives, probe-ladder rounds) in `metrics`, once. `sink`
  /// receives the uploads.
  MonitorService(TelephonyManager& telephony, obs::MetricSink& metrics, Identity identity,
                 Sink sink, Config config);
  ~MonitorService() override;

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// The device is on WiFi: hands every buffered record to the sink as one
  /// batch, in write order, and accounts their compressed bytes plus one
  /// envelope. Does nothing while no record is buffered.
  void upload();

  // FailureEventListener:
  void on_failure_event(const FailureEvent& event) override;
  void on_failure_cleared(FailureType type, SimTime at) override;

  const OverheadAccountant& overhead() const { return overhead_; }

 private:
  struct Metrics {
    obs::Counter& events;
    obs::Counter& records;
    obs::Counter& filtered_fp;
    obs::Counter& probe_rounds;
  };

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
  Sink sink_;
  OverheadAccountant overhead_;

  // Records awaiting upload, in write order, and their compressed bytes.
  std::vector<TraceRecord> pending_;
  std::uint64_t pending_bytes_ = 0;

  // Open setup-error episode: events buffered until the connection
  // activates; the episode duration is split across its events.
  std::vector<TraceRecord> open_setup_events_;
  std::optional<SimTime> setup_episode_started_;

  // Open Data_Stall episode.
  std::optional<TraceRecord> open_stall_;

  // Open Out_of_Service episode.
  std::optional<TraceRecord> open_oos_;
};

}  // namespace cellrel

#endif  // CELLREL_CORE_MONITOR_SERVICE_H

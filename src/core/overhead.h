// Monitoring-overhead accounting (§2.2, §4.3).
//
// The paper quantifies Android-MOD's client-side cost: CPU utilization
// *within the duration of detected failures* (the infrastructure is dormant
// otherwise), memory for buffered records, storage for the compressed trace,
// and network for probing and (WiFi-gated) uploads. This accountant
// reproduces that cost model so the overhead tables can be regenerated. It
// holds the only copy of each cost: the monitor charges it as it handles an
// event, runs probe rounds, writes a record or uploads its buffer.

#ifndef CELLREL_CORE_OVERHEAD_H
#define CELLREL_CORE_OVERHEAD_H

#include <cstdint>

#include "common/sim_time.h"

namespace cellrel {

/// Aggregated overhead of one device's monitor.
class OverheadAccountant {
 public:
  // Cost constants of the monitoring implementation.
  /// CPU time consumed handling one failure event notification.
  static constexpr SimDuration kCpuPerEvent = SimDuration::milliseconds(2);
  /// CPU time per probing round (build/send/receive/classify).
  static constexpr SimDuration kCpuPerProbeRound = SimDuration::milliseconds(5);
  /// CPU time to serialize + append one record.
  static constexpr SimDuration kCpuPerRecord = SimDuration::milliseconds(1);
  /// Resident bytes per buffered record awaiting upload.
  static constexpr std::uint64_t kMemoryPerBufferedRecord = 96;
  /// Baseline resident bytes while any failure is being monitored.
  static constexpr std::uint64_t kMemoryBaseline = 24 * 1024;

  void on_event_handled() { cpu_busy_ += kCpuPerEvent; }
  void on_probe_rounds(std::uint32_t rounds) {
    cpu_busy_ += SimDuration::microseconds(kCpuPerProbeRound.count_us() * rounds);
  }
  void on_trace_written(std::uint64_t compressed_bytes) {
    cpu_busy_ += kCpuPerRecord;
    storage_bytes_ += compressed_bytes;
    ++buffered_records_;
    peak_buffered_records_ = std::max(peak_buffered_records_, buffered_records_);
  }
  /// An upload always empties the buffer.
  void on_traces_uploaded(std::uint64_t bytes) {
    buffered_records_ = 0;
    upload_bytes_ += bytes;
  }
  void on_probe_traffic(std::uint64_t bytes) { probe_bytes_ += bytes; }
  void add_failure_duration(SimDuration d) { failure_time_ += d; }

  /// CPU utilization within failure durations (the paper's metric).
  double cpu_utilization_during_failures() const {
    if (failure_time_ <= SimDuration::zero()) return 0.0;
    return cpu_busy_ / failure_time_;
  }
  std::uint64_t peak_memory_bytes() const {
    return kMemoryBaseline + peak_buffered_records_ * kMemoryPerBufferedRecord;
  }
  std::uint64_t storage_bytes() const { return storage_bytes_; }
  /// Cellular network bytes (probing); uploads ride WiFi.
  std::uint64_t cellular_bytes() const { return probe_bytes_; }
  std::uint64_t wifi_upload_bytes() const { return upload_bytes_; }
  SimDuration cpu_busy_time() const { return cpu_busy_; }

 private:
  SimDuration cpu_busy_;
  SimDuration failure_time_;
  std::uint64_t storage_bytes_ = 0;
  std::uint64_t probe_bytes_ = 0;
  std::uint64_t upload_bytes_ = 0;
  std::uint64_t buffered_records_ = 0;
  std::uint64_t peak_buffered_records_ = 0;
};

}  // namespace cellrel

#endif  // CELLREL_CORE_OVERHEAD_H

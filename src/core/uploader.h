// WiFi-gated trace uploader (§2.2-2.3).
//
// Records are compressed and buffered on the device; "the recorded data are
// uploaded to our backend server only when there is WiFi connectivity".

#ifndef CELLREL_CORE_UPLOADER_H
#define CELLREL_CORE_UPLOADER_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/trace.h"

namespace cellrel {

/// Buffers records and flushes them when WiFi is available.
class TraceUploader {
 public:
  /// Receives every uploaded batch (the "backend server"). The span is a
  /// view into the uploader's buffer, valid only for the duration of the
  /// call; the sink may move from the records (the buffer is cleared — not
  /// reallocated — right after), so the upload path reuses one allocation
  /// for the campaign instead of handing off a fresh vector per flush.
  using Sink = std::function<void(std::span<TraceRecord>)>;

  explicit TraceUploader(Sink sink) : sink_(std::move(sink)) {}

  void set_wifi_available(bool available) {
    wifi_ = available;
    if (wifi_) flush();
  }

  /// Enqueues one record whose compressed size the writer already computed
  /// (compressed_record_bytes); uploads immediately when WiFi is up.
  void submit(TraceRecord record, std::size_t compressed_bytes);

  /// Forces a flush regardless of WiFi (end-of-campaign drain; the bytes
  /// are still accounted as WiFi uploads since the campaign idles devices
  /// on WiFi overnight).
  void flush();

  std::size_t buffered() const { return buffer_.size(); }
  std::uint64_t uploaded_records() const { return uploaded_records_; }
  std::uint64_t uploaded_bytes() const { return uploaded_bytes_; }

 private:
  Sink sink_;
  std::vector<TraceRecord> buffer_;
  std::uint64_t buffered_bytes_ = 0;  // compressed bytes of buffer_
  bool wifi_ = false;
  std::uint64_t uploaded_records_ = 0;
  std::uint64_t uploaded_bytes_ = 0;
};

}  // namespace cellrel

#endif  // CELLREL_CORE_UPLOADER_H

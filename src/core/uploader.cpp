#include "core/uploader.h"

namespace cellrel {

void TraceUploader::submit(TraceRecord record, std::size_t compressed_bytes) {
  buffer_.push_back(std::move(record));
  buffered_bytes_ += compressed_bytes;
  if (wifi_) flush();
}

void TraceUploader::flush() {
  if (buffer_.empty()) return;
  uploaded_records_ += buffer_.size();
  uploaded_bytes_ += buffered_bytes_ + 64;  // per-batch envelope
  buffered_bytes_ = 0;
  if (sink_) sink_(std::span<TraceRecord>(buffer_));
  buffer_.clear();
}

}  // namespace cellrel

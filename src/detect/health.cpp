#include "detect/health.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace cellrel::detect {

std::size_t HealthConfig::windows() const {
  CELLREL_CHECK(window_s > 0.0) << "detect window must be positive";
  CELLREL_CHECK(horizon_s > 0.0) << "detect horizon must be positive";
  const double n = std::ceil(horizon_s / window_s);
  return std::max<std::size_t>(1, static_cast<std::size_t>(n));
}

HealthTracker::HealthTracker(const HealthConfig& config)
    : config_(config), windows_(config.windows()) {}

std::size_t HealthTracker::window_of(std::int64_t at_us) const {
  if (at_us <= 0) return 0;
  const std::int64_t window_us =
      static_cast<std::int64_t>(config_.window_s * 1e6);
  const std::size_t w = static_cast<std::size_t>(at_us / window_us);
  return std::min(w, windows_ - 1);
}

void HealthTracker::consume(const RecordBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) ingest(batch.row(i));
}

void HealthTracker::ingest(const RecordBatch::RowView& row) {
  ++records_seen_;
  if (row.bs == kInvalidBs) {
    ++records_unattributed_;
    return;
  }
  CellHealth& cell = cells_[row.bs];
  if (cell.window_events.empty()) {
    cell.window_events.assign(windows_, 0);
    cell.window_kept.assign(windows_, 0);
  }
  const std::size_t w = window_of(row.at_us);
  ++cell.window_events[w];
  ++cell.events;
  cell.first_event_us = std::min(cell.first_event_us, row.at_us);
  cell.last_event_us = std::max(cell.last_event_us, row.at_us);
  if (row.filtered_false_positive) {
    ++cell.filtered;
  } else {
    ++cell.window_kept[w];
    ++cell.kept;
    ++cell.type_counts[index_of(row.type)];
  }
}

}  // namespace cellrel::detect

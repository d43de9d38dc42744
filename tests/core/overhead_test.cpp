#include "core/overhead.h"

#include <gtest/gtest.h>

#include "core/prober.h"

namespace cellrel {
namespace {

TEST(Overhead, DormantWithoutFailures) {
  OverheadAccountant oh;
  EXPECT_EQ(oh.cpu_utilization_during_failures(), 0.0);
  EXPECT_EQ(oh.storage_bytes(), 0u);
  EXPECT_EQ(oh.cellular_bytes(), 0u);
}

TEST(Overhead, CpuUtilizationIsBusyOverFailureTime) {
  ASSERT_EQ(OverheadAccountant::kCpuPerEvent, SimDuration::milliseconds(2));
  OverheadAccountant oh;
  for (int i = 0; i < 10; ++i) oh.on_event_handled();  // 20 ms busy
  oh.add_failure_duration(SimDuration::seconds(1.0));
  EXPECT_NEAR(oh.cpu_utilization_during_failures(), 0.02, 1e-9);
  // One probing round (5 ms) and one record (1 ms) add to the busy time.
  oh.on_probe_rounds(1);
  oh.on_trace_written(40);
  EXPECT_EQ(oh.cpu_busy_time(), SimDuration::milliseconds(26));
}

TEST(Overhead, PaperBudgetRespectedForTypicalDevice) {
  // §2.2: a typical failing device (~33 failures over 8 months) must stay
  // within <2% CPU within failures, <40 KB memory, <100 KB storage, and
  // <100 KB network per month.
  OverheadAccountant oh;
  for (int i = 0; i < 33; ++i) {
    oh.on_event_handled();
    oh.on_probe_rounds(4);
    oh.on_trace_written(40);
    oh.on_probe_traffic(4 * kProbeRoundBytes);
    oh.add_failure_duration(SimDuration::seconds(188.0));
  }
  EXPECT_LT(oh.cpu_utilization_during_failures(), 0.02);
  EXPECT_LT(oh.peak_memory_bytes(), 40u * 1024);
  EXPECT_LT(oh.storage_bytes(), 100u * 1024);
  EXPECT_LT(oh.cellular_bytes() / 8, 100u * 1024);  // per month over 8 months
}

TEST(Overhead, MemoryPeakTracksBufferedRecords) {
  // 24 KiB baseline plus 96 bytes per buffered record.
  ASSERT_EQ(OverheadAccountant::kMemoryBaseline, 24u * 1024);
  ASSERT_EQ(OverheadAccountant::kMemoryPerBufferedRecord, 96u);
  OverheadAccountant oh;
  EXPECT_EQ(oh.peak_memory_bytes(), 24'576u);
  oh.on_trace_written(40);
  oh.on_trace_written(40);
  oh.on_trace_written(40);
  EXPECT_EQ(oh.peak_memory_bytes(), 24'576u + 3 * 96);
  oh.on_traces_uploaded(90);
  // Peak is sticky even after upload, which empties the buffer.
  EXPECT_EQ(oh.peak_memory_bytes(), 24'576u + 3 * 96);
  oh.on_trace_written(40);
  EXPECT_EQ(oh.peak_memory_bytes(), 24'576u + 3 * 96);
  EXPECT_EQ(oh.wifi_upload_bytes(), 90u);
}

}  // namespace
}  // namespace cellrel

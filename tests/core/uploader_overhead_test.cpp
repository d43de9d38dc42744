#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/overhead.h"
#include "core/uploader.h"

namespace cellrel {
namespace {

TraceRecord record_with_device(DeviceId id) {
  TraceRecord r;
  r.device = id;
  r.apn = "cmnet";
  return r;
}

/// Submits the record with the size its writer computes for it.
void submit(TraceUploader& uploader, TraceRecord record) {
  const std::size_t bytes = compressed_record_bytes(record);
  uploader.submit(std::move(record), bytes);
}

TEST(Uploader, BuffersUntilWifi) {
  std::vector<TraceRecord> received;
  TraceUploader uploader([&](std::span<TraceRecord> batch) {
    for (auto& r : batch) received.push_back(std::move(r));
  });
  submit(uploader, record_with_device(1));
  submit(uploader, record_with_device(2));
  EXPECT_EQ(uploader.buffered(), 2u);
  EXPECT_TRUE(received.empty());
  uploader.set_wifi_available(true);
  EXPECT_EQ(uploader.buffered(), 0u);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].device, 1u);
  EXPECT_EQ(uploader.uploaded_records(), 2u);
  EXPECT_GT(uploader.uploaded_bytes(), 0u);
}

TEST(Uploader, UploadedBytesAreRecordSizesPlusOneEnvelopePerFlush) {
  TraceUploader uploader([](std::span<TraceRecord>) {});
  TraceRecord long_apn = record_with_device(3);
  long_apn.apn = std::string(200, 'x');  // past the fixed-field allowance
  const std::vector<TraceRecord> records = {record_with_device(1), record_with_device(2),
                                            long_apn};
  std::uint64_t record_bytes = 0;
  for (const TraceRecord& r : records) record_bytes += compressed_record_bytes(r);
  ASSERT_GT(compressed_record_bytes(long_apn), compressed_record_bytes(records[0]));

  submit(uploader, records[0]);
  submit(uploader, records[1]);
  uploader.flush();  // flush 1: two records
  uploader.set_wifi_available(true);
  submit(uploader, records[2]);  // flush 2: uploaded at once
  uploader.flush();              // empty: no envelope
  EXPECT_EQ(uploader.uploaded_records(), 3u);
  EXPECT_EQ(uploader.uploaded_bytes(), record_bytes + 2 * 64);
}

TEST(Uploader, ImmediateUploadWhileOnWifi) {
  int batches = 0;
  TraceUploader uploader([&](std::span<TraceRecord>) { ++batches; });
  uploader.set_wifi_available(true);
  submit(uploader, record_with_device(1));
  submit(uploader, record_with_device(2));
  EXPECT_EQ(batches, 2);
  EXPECT_EQ(uploader.buffered(), 0u);
}

TEST(Uploader, ForcedFlushWithoutWifi) {
  int batches = 0;
  TraceUploader uploader([&](std::span<TraceRecord>) { ++batches; });
  submit(uploader, record_with_device(1));
  uploader.flush();
  EXPECT_EQ(batches, 1);
  uploader.flush();  // empty flush is a no-op
  EXPECT_EQ(batches, 1);
}

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
  oh.on_probe_round();
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
    for (int round = 0; round < 4; ++round) oh.on_probe_round();
    oh.on_trace_written(40);
    oh.on_probe_traffic(4 * (64 * 3 + 80 * 2));
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
  oh.on_traces_uploaded(3, 90);
  // Peak is sticky even after upload.
  EXPECT_EQ(oh.peak_memory_bytes(), 24'576u + 3 * 96);
  EXPECT_EQ(oh.wifi_upload_bytes(), 90u);
}

}  // namespace
}  // namespace cellrel

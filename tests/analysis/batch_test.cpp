// Columnar data plane: StringPool interning, RecordBatch round-trips,
// BatchArena recycling, and the lossless spill file format.

#include "analysis/batch.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/csv_io.h"
#include "analysis/string_pool.h"
#include "bs/cell_id.h"

namespace cellrel {
namespace {

TEST(StringPool, InternsInFirstAppearanceOrder) {
  StringPool pool;
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.intern("cmnet"), 0u);
  EXPECT_EQ(pool.intern("3gnet"), 1u);
  EXPECT_EQ(pool.intern("cmnet"), 0u);  // dedup
  EXPECT_EQ(pool.intern("ctnet"), 2u);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.view(0), "cmnet");
  EXPECT_EQ(pool.view(1), "3gnet");
  EXPECT_EQ(pool.view(2), "ctnet");
}

TEST(StringPool, EmptyStringIsInternable) {
  StringPool pool;
  const ApnId id = pool.intern("");
  EXPECT_EQ(pool.view(id), "");
  EXPECT_EQ(pool.intern(""), id);
  EXPECT_GT(pool.resident_bytes(), 0u);
}

TraceRecord sample_record(DeviceId device, int i) {
  TraceRecord r;
  r.device = device;
  r.model_id = 7;
  r.isp = IspId::kIspB;
  r.type = static_cast<FailureType>(i % kFailureTypeCount);
  r.at = SimTime::origin() + SimDuration::microseconds(1'000'000 + i * 37);
  r.duration = SimDuration::microseconds(250'000 + i);
  r.duration_method = DurationMethod::kProbing;
  r.rat = static_cast<Rat>(i % kRatCount);
  r.level = signal_level_from_index(i % kSignalLevelCount);
  r.bs = static_cast<BsIndex>(10 + i);
  r.cell = CellIdentity{};
  r.apn = (i % 2) ? "cmnet" : "3gnet";
  r.cause = (i % 3) ? FailCause::kSignalLost : FailCause::kNone;
  r.filtered_false_positive = (i % 4) == 0;
  r.probe_rounds = static_cast<std::uint32_t>(i % 5);
  r.ground_truth_fp = static_cast<FalsePositiveKind>(i % kFalsePositiveKindCount);
  return r;
}

TEST(RecordBatch, RowRoundTripsEveryColumn) {
  StringPool pool;
  RecordBatch batch(8);
  for (int i = 0; i < 8; ++i) batch.push(sample_record(42, i), pool);
  ASSERT_EQ(batch.size(), 8u);
  EXPECT_TRUE(batch.full());
  for (int i = 0; i < 8; ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    const TraceRecord r = sample_record(42, i);
    const RecordBatch::RowView v = batch.row(static_cast<std::size_t>(i));
    EXPECT_EQ(v.device, r.device);
    EXPECT_EQ(v.at_us, r.at.since_origin().count_us());
    EXPECT_EQ(v.duration_us, r.duration.count_us());
    EXPECT_EQ(v.bs, r.bs);
    EXPECT_EQ(pool.view(v.apn), r.apn);
    EXPECT_EQ(v.cause, r.cause);
    EXPECT_EQ(v.probe_rounds, r.probe_rounds);
    EXPECT_EQ(v.type, r.type);
    EXPECT_EQ(v.duration_method, r.duration_method);
    EXPECT_EQ(v.rat, r.rat);
    EXPECT_EQ(v.level, r.level);
    EXPECT_EQ(v.filtered_false_positive, r.filtered_false_positive);
    EXPECT_EQ(v.ground_truth_fp, r.ground_truth_fp);
  }
}

CellIdentity cell_for_bs(BsIndex bs) {
  CellGlobalId id;
  id.cid = bs;
  return CellIdentity{id};
}

TEST(RecordBatch, MaterializeIsBitExactInverseOfPush) {
  StringPool pool;
  RecordBatch batch(16);
  std::vector<TraceRecord> originals;
  for (int i = 0; i < 12; ++i) {
    TraceRecord r = sample_record(42, i);
    r.cell = cell_for_bs(r.bs);  // as the monitor's resolver would set it
    originals.push_back(r);
    batch.push(r, pool);
  }

  std::vector<DeviceMeta> devices(1);
  devices[0].id = 42;
  devices[0].model_id = 7;
  devices[0].isp = IspId::kIspB;
  MaterializeContext ctx;
  ctx.apns = &pool;
  ctx.devices = devices;
  ctx.resolve_cell = cell_for_bs;

  std::vector<TraceRecord> out;
  out.reserve(batch.size());
  batch.materialize_into(out, ctx);
  ASSERT_EQ(out.size(), originals.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const TraceRecord& a = originals[i];
    const TraceRecord& b = out[i];
    EXPECT_EQ(b.device, a.device);
    EXPECT_EQ(b.model_id, a.model_id);  // re-derived from DeviceMeta
    EXPECT_EQ(b.isp, a.isp);
    EXPECT_EQ(b.type, a.type);
    EXPECT_EQ(b.at.since_origin().count_us(), a.at.since_origin().count_us());
    EXPECT_EQ(b.duration.count_us(), a.duration.count_us());
    EXPECT_EQ(b.duration_method, a.duration_method);
    EXPECT_EQ(b.rat, a.rat);
    EXPECT_EQ(b.level, a.level);
    EXPECT_EQ(b.bs, a.bs);
    EXPECT_EQ(cell_key(b.cell), cell_key(a.cell));  // re-derived via resolve_cell
    EXPECT_EQ(b.apn, a.apn);
    EXPECT_EQ(b.cause, a.cause);
    EXPECT_EQ(b.filtered_false_positive, a.filtered_false_positive);
    EXPECT_EQ(b.probe_rounds, a.probe_rounds);
    EXPECT_EQ(b.ground_truth_fp, a.ground_truth_fp);
  }
}

TEST(RecordBatch, ClearKeepsBuffersAndCapacity) {
  StringPool pool;
  RecordBatch batch(4);
  const std::size_t resident = batch.resident_bytes();
  EXPECT_GE(resident, 4 * RecordBatch::kBytesPerRow);
  batch.push(sample_record(1, 0), pool);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 4u);
  EXPECT_EQ(batch.resident_bytes(), resident);
}

TEST(RecordBatch, BytesPerRowMatchesColumnLayout) {
  // 8 (device) + 8 + 8 (times) + 4 (bs) + 4 (apn) + 4 (cause) + 4 (probe
  // rounds) + 5 single-byte columns = 45 bytes per row.
  EXPECT_EQ(RecordBatch::kBytesPerRow, 45u);
}

TEST(BatchArena, RecyclesReleasedBuffers) {
  BatchArena arena;
  RecordBatch a = arena.acquire(64);
  EXPECT_EQ(arena.allocated(), 1u);
  EXPECT_EQ(arena.reused(), 0u);
  arena.release(std::move(a));
  RecordBatch b = arena.acquire(64);
  EXPECT_EQ(arena.allocated(), 1u);
  EXPECT_EQ(arena.reused(), 1u);
  EXPECT_TRUE(b.empty());
  EXPECT_GE(b.capacity(), 64u);
}

TEST(BatchSpill, WriteReadRoundTripIsLossless) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cellrel_batch_spill_test";
  std::filesystem::create_directories(dir);
  const std::filesystem::path file = dir / spill_shard_file(3);
  EXPECT_EQ(spill_shard_file(3), "shard-3.csv");

  StringPool pool;
  RecordBatch batch(32);
  std::vector<TraceRecord> originals;
  for (int i = 0; i < 20; ++i) {
    originals.push_back(sample_record(99, i));
    batch.push(originals.back(), pool);
  }
  {
    BatchSpillWriter writer(file);
    writer.write(batch, pool);
    writer.close();
    EXPECT_EQ(writer.records_written(), 20u);
    EXPECT_GT(writer.bytes_written(), 0u);
  }

  // Re-read in small batches; every column must round-trip exactly,
  // including the ground-truth label and the APN text.
  StringPool reload;
  std::vector<RecordBatch::RowView> rows;
  read_spill_batches(file, 7, reload, [&](const RecordBatch& b) {
    EXPECT_LE(b.size(), 7u);
    for (std::size_t i = 0; i < b.size(); ++i) rows.push_back(b.row(i));
  });
  ASSERT_EQ(rows.size(), originals.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    const TraceRecord& r = originals[i];
    const RecordBatch::RowView& v = rows[i];
    EXPECT_EQ(v.device, r.device);
    EXPECT_EQ(v.at_us, r.at.since_origin().count_us());
    EXPECT_EQ(v.duration_us, r.duration.count_us());
    EXPECT_EQ(v.bs, r.bs);
    EXPECT_EQ(reload.view(v.apn), r.apn);
    EXPECT_EQ(v.cause, r.cause);
    EXPECT_EQ(v.probe_rounds, r.probe_rounds);
    EXPECT_EQ(v.type, r.type);
    EXPECT_EQ(v.duration_method, r.duration_method);
    EXPECT_EQ(v.rat, r.rat);
    EXPECT_EQ(v.level, r.level);
    EXPECT_EQ(v.filtered_false_positive, r.filtered_false_positive);
    EXPECT_EQ(v.ground_truth_fp, r.ground_truth_fp);
  }
  std::filesystem::remove_all(dir);
}

TEST(BatchSpill, MalformedRowIsRejected) {
  StringPool pool;
  EXPECT_FALSE(spill_row_from_csv("not,enough,fields", pool).has_value());
  EXPECT_FALSE(spill_row_from_csv("", pool).has_value());
  // Out-of-range enum index (failure type 200).
  EXPECT_FALSE(
      spill_row_from_csv("1,200,0,0,0,0,0,4,cmnet,0,0,0,0", pool).has_value());
  // Negative timestamp / duration (microseconds).
  EXPECT_FALSE(spill_row_from_csv("7,1,-5,1000,1,2,3,44,cmnet,0,0,2,0", pool).has_value());
  EXPECT_FALSE(
      spill_row_from_csv("7,1,123456,-9000000000000,1,2,3,44,cmnet,0,0,2,0", pool).has_value());
  // A well-formed row parses.
  const auto row = spill_row_from_csv("7,1,123456,1000,1,2,3,44,cmnet,0,0,2,0", pool);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->device, 7u);
  EXPECT_EQ(row->type, FailureType::kOutOfService);
  EXPECT_EQ(row->at_us, 123456);
  EXPECT_EQ(pool.view(row->apn), "cmnet");
}

}  // namespace
}  // namespace cellrel

#include "analysis/csv_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/aggregate.h"
#include "workload/campaign.h"

namespace cellrel {
namespace {

namespace fs = std::filesystem;

class ScopedTempDir {
 public:
  ScopedTempDir() : path_(fs::temp_directory_path() / "cellrel_csv_test") {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedTempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(CsvParsing, FieldParsers) {
  EXPECT_EQ(failure_type_from_string("Data_Stall"), FailureType::kDataStall);
  EXPECT_FALSE(failure_type_from_string("nonsense").has_value());
  EXPECT_EQ(isp_from_string("ISP-C"), IspId::kIspC);
  EXPECT_EQ(rat_from_string("5G"), Rat::k5G);
  EXPECT_EQ(duration_method_from_string("probing"), DurationMethod::kProbing);
  EXPECT_FALSE(rat_from_string("6G").has_value());
}

TEST(CsvParsing, CellIdentityRoundTrip) {
  const CellIdentity gsm = CellGlobalId{460, 11, 4660, 42};
  const CellIdentity cdma = CdmaCellId{13600, 5, 7};
  EXPECT_EQ(cell_identity_from_string(to_string(gsm)), gsm);
  EXPECT_EQ(cell_identity_from_string(to_string(cdma)), cdma);
  EXPECT_FALSE(cell_identity_from_string("garbage").has_value());
  EXPECT_FALSE(cell_identity_from_string("1-2-3").has_value());
  EXPECT_FALSE(cell_identity_from_string("cdma:1-2").has_value());
}

TEST(CsvParsing, TraceRecordRoundTrip) {
  TraceRecord r;
  r.device = 99;
  r.model_id = 12;
  r.isp = IspId::kIspB;
  r.type = FailureType::kDataStall;
  r.at = SimTime::from_seconds(1234.5);
  r.duration = SimDuration::seconds(78.25);
  r.duration_method = DurationMethod::kProbing;
  r.rat = Rat::k5G;
  r.level = SignalLevel::kLevel2;
  r.bs = 321;
  r.cell = CellGlobalId{460, 11, 100, 321};
  r.apn = "ctnet";
  r.cause = FailCause::kInvalidEmmState;
  r.filtered_false_positive = true;
  r.probe_rounds = 9;

  const auto parsed = trace_record_from_csv(to_csv(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->device, r.device);
  EXPECT_EQ(parsed->model_id, r.model_id);
  EXPECT_EQ(parsed->isp, r.isp);
  EXPECT_EQ(parsed->type, r.type);
  EXPECT_NEAR(parsed->at.to_seconds(), r.at.to_seconds(), 1e-3);
  EXPECT_NEAR(parsed->duration.to_seconds(), r.duration.to_seconds(), 1e-3);
  EXPECT_EQ(parsed->duration_method, r.duration_method);
  EXPECT_EQ(parsed->rat, r.rat);
  EXPECT_EQ(parsed->level, r.level);
  EXPECT_EQ(parsed->bs, r.bs);
  EXPECT_EQ(parsed->cell, r.cell);
  EXPECT_EQ(parsed->apn, r.apn);
  EXPECT_EQ(parsed->cause, r.cause);
  EXPECT_TRUE(parsed->filtered_false_positive);
  EXPECT_EQ(parsed->probe_rounds, 9u);
}

TEST(CsvParsing, RejectsMalformedRows) {
  EXPECT_FALSE(trace_record_from_csv("").has_value());
  EXPECT_FALSE(trace_record_from_csv("1,2,3").has_value());
  EXPECT_FALSE(
      trace_record_from_csv("x,12,ISP-B,Data_Stall,1,2,probing,5G,2,3,460-0-1-1,apn,NONE,0,0")
          .has_value());
  // Times and durations must be finite, non-negative seconds inside the
  // SimTime range (inf used to reach SimDuration::seconds' int64 cast).
  const auto row = [](const char* at, const char* duration) {
    return std::string("1,12,ISP-B,Data_Stall,") + at + "," + duration +
           ",probing,5G,2,3,460-0-1-1,apn,NONE,0,0";
  };
  ASSERT_TRUE(trace_record_from_csv(row("1", "2")).has_value());
  for (const char* bad : {"nan", "inf", "-inf", "-1", "-1e300", "1e300", "1e13"}) {
    EXPECT_FALSE(trace_record_from_csv(row(bad, "2")).has_value()) << "at_s=" << bad;
    EXPECT_FALSE(trace_record_from_csv(row("1", bad)).has_value()) << "duration_s=" << bad;
  }
}

TEST(CsvIo, DatasetRoundTripPreservesAnalysis) {
  Scenario sc;
  sc.device_count = 300;
  sc.deployment.bs_count = 1200;
  sc.seed = 44;
  Campaign campaign(sc);
  const CampaignResult result = campaign.run();

  ScopedTempDir dir;
  write_dataset_csv(result.dataset, dir.path());
  for (const char* file : {DatasetFiles::kRecords, DatasetFiles::kDevices,
                           DatasetFiles::kBaseStations, DatasetFiles::kConnectedTime,
                           DatasetFiles::kTransitions, DatasetFiles::kDwells}) {
    EXPECT_TRUE(fs::exists(dir.path() / file)) << file;
  }

  const TraceDataset loaded = read_dataset_csv(dir.path());
  EXPECT_EQ(loaded.records.size(), result.dataset.records.size());
  EXPECT_EQ(loaded.devices.size(), result.dataset.devices.size());
  EXPECT_EQ(loaded.base_stations.size(), result.dataset.base_stations.size());
  EXPECT_EQ(loaded.transitions.size(), result.dataset.transitions.size());
  EXPECT_EQ(loaded.dwells.size(), result.dataset.dwells.size());

  const Aggregator original(result.dataset);
  const Aggregator reloaded(loaded);
  EXPECT_EQ(reloaded.overall().failures, original.overall().failures);
  EXPECT_EQ(reloaded.overall().failing_devices, original.overall().failing_devices);
  EXPECT_NEAR(reloaded.durations_all().mean(), original.durations_all().mean(), 1e-3);
  const auto norm_a = original.normalized_prevalence_by_level();
  const auto norm_b = reloaded.normalized_prevalence_by_level();
  for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
    EXPECT_NEAR(norm_a[l], norm_b[l], 1e-6) << "level " << l;
  }
  const auto codes_a = original.top_error_codes(5);
  const auto codes_b = reloaded.top_error_codes(5);
  ASSERT_EQ(codes_a.size(), codes_b.size());
  for (std::size_t i = 0; i < codes_a.size(); ++i) {
    EXPECT_EQ(codes_a[i].cause, codes_b[i].cause);
    EXPECT_EQ(codes_a[i].count, codes_b[i].count);
  }
}

TEST(CsvIo, GroundTruthIsNotExported) {
  // The real backend never receives ground-truth labels; the exporter must
  // not leak them.
  TraceDataset data;
  TraceRecord r;
  r.device = 1;
  r.cell = CellGlobalId{460, 0, 1, 1};
  r.apn = "cmnet";
  r.ground_truth_fp = FalsePositiveKind::kBsOverloadRejection;
  data.records.push_back(r);
  data.devices.push_back(DeviceMeta{1, 1, IspId::kIspA, false, AndroidVersion::kAndroid10});

  ScopedTempDir dir;
  write_dataset_csv(data, dir.path());
  const TraceDataset loaded = read_dataset_csv(dir.path());
  ASSERT_EQ(loaded.records.size(), 1u);
  EXPECT_EQ(loaded.records[0].ground_truth_fp, FalsePositiveKind::kNone);
}

TEST(CsvIo, MissingDirectoryThrows) {
  EXPECT_THROW(read_dataset_csv("/nonexistent/cellrel/dataset"), std::runtime_error);
}

TEST(CsvIo, MalformedRowThrowsWithLocation) {
  ScopedTempDir dir;
  TraceDataset empty;
  write_dataset_csv(empty, dir.path());
  // Corrupt the records file.
  std::ofstream out(dir.path() / DatasetFiles::kRecords, std::ios::app);
  out << "this,is,not,a,record\n";
  out.close();
  try {
    read_dataset_csv(dir.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("records.csv"), std::string::npos);
  }
}

}  // namespace
}  // namespace cellrel

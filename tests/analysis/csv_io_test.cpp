#include "analysis/csv_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/aggregate.h"
#include "workload/campaign.h"

namespace cellrel {
namespace {

namespace fs = std::filesystem;

/// A fresh directory named after the running test (ctest runs the cases
/// in parallel processes, so a shared name would race).
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const char* name = "cellrel_csv_test")
      : path_(fs::temp_directory_path() /
              (std::string(name) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedTempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(CsvParsing, FieldParsers) {
  EXPECT_EQ(isp_from_string("ISP-C"), IspId::kIspC);
  EXPECT_EQ(duration_method_from_string("probing"), DurationMethod::kProbing);
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
  EXPECT_FALSE(trace_record_from_csv(
                   "x,12,ISP-B,Data_Stall,1,2,probing,5G,2,3,460-0-1-1,apn,SIGNAL_LOST,0,0")
                   .has_value());
  // Times and durations must be finite, non-negative seconds inside the
  // SimTime range (inf used to reach SimDuration::seconds' int64 cast).
  const auto row = [](const char* at, const char* duration, const char* cause = "SIGNAL_LOST") {
    return std::string("1,12,ISP-B,Data_Stall,") + at + "," + duration +
           ",probing,5G,2,3,460-0-1-1,apn," + cause + ",0,0";
  };
  ASSERT_TRUE(trace_record_from_csv(row("1", "2")).has_value());
  for (const char* bad : {"nan", "inf", "-inf", "-1", "-1e300", "1e300", "1e13"}) {
    EXPECT_FALSE(trace_record_from_csv(row(bad, "2")).has_value()) << "at_s=" << bad;
    EXPECT_FALSE(trace_record_from_csv(row("1", bad)).has_value()) << "duration_s=" << bad;
  }
  // A cause must be a catalogue name; "NONE" is not one.
  for (const char* bad : {"NONE", "", "signal_lost", "SIGNAL_LOST "}) {
    EXPECT_FALSE(trace_record_from_csv(row("1", "2", bad)).has_value()) << "cause=" << bad;
  }
  EXPECT_EQ(trace_record_from_csv(row("1", "2", "UNKNOWN_DATA_CALL_FAILURE"))->cause,
            FailCause::kUnknown);
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

TEST(CsvIo, MaterializedMergeExportMatchesTheDatasetWriter) {
  // A materialized campaign with out_dir writes its export from the merge
  // (records appended batch by batch, sidecars from the aggregator); every
  // file equals write_dataset_csv of the campaign's dataset.
  const ScopedTempDir dir("cellrel_csv_merge_export_test");
  const fs::path merged = dir.path() / "merged";
  const fs::path written = dir.path() / "written";
  Scenario sc;
  sc.device_count = 200;
  sc.deployment.bs_count = 800;
  sc.campaign_days = 20.0;
  sc.seed = 45;
  sc.threads = 3;
  sc.out_dir = merged.string();
  const CampaignResult result = Campaign(sc).run();
  ASSERT_FALSE(result.dataset.records.empty());
  ASSERT_FALSE(result.dataset.transitions.empty());
  ASSERT_FALSE(result.dataset.dwells.empty());

  write_dataset_csv(result.dataset, written);
  for (const char* file : {DatasetFiles::kRecords, DatasetFiles::kDevices,
                           DatasetFiles::kBaseStations, DatasetFiles::kConnectedTime,
                           DatasetFiles::kTransitions, DatasetFiles::kDwells}) {
    SCOPED_TRACE(file);
    std::ifstream a(written / file, std::ios::binary);
    std::ifstream b(merged / file, std::ios::binary);
    ASSERT_TRUE(a.good() && b.good());
    std::ostringstream ta, tb;
    ta << a.rdbuf();
    tb << b.rdbuf();
    EXPECT_EQ(ta.str(), tb.str());
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

/// A two-device, three-BS dataset whose second record has no serving cell.
TraceDataset referenced_dataset() {
  TraceDataset data;
  for (DeviceId id : {4u, 9u}) {
    data.devices.push_back(DeviceMeta{id, 1, IspId::kIspA, false, AndroidVersion::kAndroid10});
  }
  for (BsIndex bs = 0; bs < 3; ++bs) {
    data.base_stations.push_back(BsMeta{bs, IspId::kIspA, 1, LocationClass::kUrban, 0});
  }
  for (BsIndex bs : {BsIndex{2}, kInvalidBs}) {
    TraceRecord r;
    r.device = 9;
    r.bs = bs;
    r.apn = "cmnet";
    data.records.push_back(r);
  }
  return data;
}

std::string read_error(const fs::path& dir) {
  try {
    read_dataset_csv(dir);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Replaces line `index` of `file` (0 = the header) with `text`.
void rewrite_line(const fs::path& file, std::size_t index, const std::string& text) {
  std::vector<std::string> lines;
  {
    std::ifstream in(file);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_LT(index, lines.size());
  lines[index] = text;
  std::ofstream out(file, std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
}

std::string first_row(const fs::path& file) {
  std::ifstream in(file);
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  return line;
}

TEST(CsvIo, AndroidVersionOtherThan9Or10IsANamedError) {
  ScopedTempDir dir;
  write_dataset_csv(referenced_dataset(), dir.path());
  EXPECT_EQ(read_error(dir.path()), "");
  rewrite_line(dir.path() / DatasetFiles::kDevices, 2, "9,1,ISP-A,0,7");
  const std::string error = read_error(dir.path());
  EXPECT_NE(error.find("malformed row 2 in "), std::string::npos) << error;
  EXPECT_NE(error.find("devices.csv: field 'android'"), std::string::npos) << error;
}

TEST(CsvIo, LocationCodeOutsideTheSixClassesIsANamedError) {
  ScopedTempDir dir;
  write_dataset_csv(referenced_dataset(), dir.path());
  rewrite_line(dir.path() / DatasetFiles::kBaseStations, 3, "2,ISP-A,1,6,0");
  const std::string error = read_error(dir.path());
  EXPECT_NE(error.find("malformed row 3 in "), std::string::npos) << error;
  EXPECT_NE(error.find("base_stations.csv: field 'location'"), std::string::npos) << error;
}

TEST(CsvIo, RatMaskOfSixteenOrMoreIsANamedError) {
  ScopedTempDir dir;
  write_dataset_csv(referenced_dataset(), dir.path());
  rewrite_line(dir.path() / DatasetFiles::kBaseStations, 2, "1,ISP-A,16,1,0");
  const std::string error = read_error(dir.path());
  EXPECT_NE(error.find("malformed row 2 in "), std::string::npos) << error;
  EXPECT_NE(error.find("base_stations.csv: field 'rat_mask'"), std::string::npos) << error;
}

TEST(CsvIo, HeaderMustEqualTheWritersHeader) {
  ScopedTempDir dir;
  write_dataset_csv(referenced_dataset(), dir.path());
  rewrite_line(dir.path() / DatasetFiles::kDwells, 0, "device,rat,level");
  const std::string error = read_error(dir.path());
  EXPECT_NE(error.find("malformed header in "), std::string::npos) << error;
  EXPECT_NE(error.find("dwells.csv: expected 'device,rat,level,failure'"), std::string::npos)
      << error;
}

TEST(CsvIo, UnknownCauseNameIsANamedError) {
  ScopedTempDir dir;
  write_dataset_csv(referenced_dataset(), dir.path());
  const fs::path records = dir.path() / DatasetFiles::kRecords;
  std::string row = first_row(records);
  const std::string cause = ",UNKNOWN_DATA_CALL_FAILURE,";
  ASSERT_NE(row.find(cause), std::string::npos) << row;
  row.replace(row.find(cause), cause.size(), ",NONE,");
  rewrite_line(records, 1, row);
  const std::string error = read_error(dir.path());
  EXPECT_NE(error.find("malformed row 1 in "), std::string::npos) << error;
  EXPECT_NE(error.find("records.csv: field 'cause'"), std::string::npos) << error;
}

TEST(CsvIo, RecordsMustPointInsideTheirDataset) {
  ScopedTempDir dir;
  TraceDataset data = referenced_dataset();
  write_dataset_csv(data, dir.path());
  EXPECT_EQ(read_dataset_csv(dir.path()).records.size(), 2u);  // kInvalidBs is legal

  data.records[1].device = 77777;  // no devices.csv row
  write_dataset_csv(data, dir.path());
  std::string error = read_error(dir.path());
  EXPECT_NE(error.find("row 2 in "), std::string::npos) << error;
  EXPECT_NE(error.find("records.csv"), std::string::npos) << error;
  EXPECT_NE(error.find("device 77777"), std::string::npos) << error;

  data.records[1].device = 4;
  data.records[0].bs = 3;  // one past the last base_stations.csv row
  write_dataset_csv(data, dir.path());
  error = read_error(dir.path());
  EXPECT_NE(error.find("row 1 in "), std::string::npos) << error;
  EXPECT_NE(error.find("bs 3"), std::string::npos) << error;
}

}  // namespace
}  // namespace cellrel

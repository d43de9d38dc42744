#include "analysis/full_report.h"

#include <gtest/gtest.h>

#include "analysis/aggregate.h"
#include "analysis/csv_io.h"
#include "workload/campaign.h"

namespace cellrel {
namespace {

const TraceDataset& campaign_dataset() {
  static const TraceDataset data = [] {
    Scenario sc;
    sc.device_count = 300;
    sc.deployment.bs_count = 1200;
    sc.seed = 12;
    Campaign campaign(sc);
    return campaign.run().dataset;
  }();
  return data;
}

TEST(FullReport, ContainsAllSections) {
  const std::string report = render_full_report(Aggregator(campaign_dataset()));
  for (const char* needle :
       {"# Cellular reliability campaign report", "## General statistics",
        "## Android phone landscape", "## ISP and base-station landscape",
        "## RAT transition risk", "| model ", "Top Data_Setup_Error codes", "Zipf",
        "false-positive filter: precision"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(FullReport, ImportedDatasetOmitsFilterScore) {
  // Ground truth never leaves the simulation; a round-tripped dataset must
  // not pretend to score the filter.
  const auto dir = std::filesystem::temp_directory_path() / "cellrel_report_test";
  std::filesystem::remove_all(dir);
  write_dataset_csv(campaign_dataset(), dir);
  const TraceDataset imported = read_dataset_csv(dir);
  const std::string report = render_full_report(Aggregator(imported));
  EXPECT_EQ(report.find("false-positive filter: precision"), std::string::npos);
  EXPECT_NE(report.find("records filtered as false positives"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FullReport, EmptyDatasetDoesNotCrash) {
  TraceDataset empty;
  const std::string report = render_full_report(Aggregator(empty));
  EXPECT_NE(report.find("devices: 0"), std::string::npos);
}

}  // namespace
}  // namespace cellrel

// JSON / CSV exporter tests, including the golden-file check that pins the
// exact bytes `--metrics-out` produces (the bit-identity contract is only
// useful if the format itself is frozen).

#include "obs/export.h"

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace cellrel::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The registry the golden file was generated from. Built fresh per call so
/// tests can also check that two independent builds export identically.
MetricRegistry golden_registry() {
  MetricRegistry reg;
  reg.counter("alpha.count").add(3);
  reg.counter("beta.count").add(41);
  reg.gauge("fleet.devices").set(500.0);
  LinearHistogram& h = reg.histogram("backoff_s", 0.0, 4.0, 4);
  h.add(-1.0);  // underflow
  h.add(0.5);
  h.add(2.5);
  h.add(9.0);  // overflow
  reg.sim_timer("latency").record(SimDuration::seconds(1.5));
  reg.sim_timer("latency").record(SimDuration::seconds(0.25));
  reg.wall_timer("phase.run").record_s(0.125);
  return reg;
}

TEST(MetricsExport, JsonMatchesGoldenFile) {
  const std::string golden = read_file(std::string(CELLREL_OBS_GOLDEN_DIR) + "/metrics.json");
  EXPECT_EQ(metrics_to_json(golden_registry()), golden);
}

TEST(MetricsExport, EqualRegistriesExportIdenticalBytes) {
  EXPECT_EQ(metrics_to_json(golden_registry()), metrics_to_json(golden_registry()));
  EXPECT_EQ(metrics_to_csv(golden_registry()), metrics_to_csv(golden_registry()));
}

TEST(MetricsExport, DefaultExportExcludesWallTimers) {
  const std::string json = metrics_to_json(golden_registry());
  EXPECT_EQ(json.find("wall_timers"), std::string::npos);
  EXPECT_EQ(json.find("phase.run"), std::string::npos);
  const std::string csv = metrics_to_csv(golden_registry());
  EXPECT_EQ(csv.find("wall_timer"), std::string::npos);
}

TEST(MetricsExport, DefaultExportExcludesProcessMetrics) {
  // `process.`-prefixed names carry host-side accounting (peak batch bytes,
  // spill volume) that legitimately varies across execution modes; keeping
  // them out of the default export preserves the bit-identity contract.
  MetricRegistry reg = golden_registry();
  reg.counter("process.dataplane.io_retries").add(2);
  reg.gauge("process.dataplane.peak_batch_bytes").set(4096.0);
  const std::string json = metrics_to_json(reg);
  EXPECT_EQ(json.find("process."), std::string::npos);
  const std::string csv = metrics_to_csv(reg);
  EXPECT_EQ(csv.find("process."), std::string::npos);
  // And the rest of the export is unaffected by their presence.
  EXPECT_EQ(json, metrics_to_json(golden_registry()));
}

TEST(MetricsExport, IncludeProcessAddsProcessMetrics) {
  MetricRegistry reg = golden_registry();
  reg.counter("process.dataplane.io_retries").add(2);
  reg.gauge("process.dataplane.peak_batch_bytes").set(4096.0);
  ExportOptions opts;
  opts.include_process = true;
  const std::string json = metrics_to_json(reg, opts);
  EXPECT_NE(json.find("\"process.dataplane.io_retries\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"process.dataplane.peak_batch_bytes\""), std::string::npos);
  const std::string csv = metrics_to_csv(reg, opts);
  EXPECT_NE(csv.find("counter,process.dataplane.io_retries,value,2\n"), std::string::npos);
}

TEST(MetricsExport, EmptyRegistryIsStillValidJson) {
  const std::string json = metrics_to_json(MetricRegistry{});
  EXPECT_EQ(json,
            "{\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {},\n"
            "  \"sim_timers\": {}\n"
            "}\n");
}

TEST(MetricsExport, CsvRowsAndHeader) {
  const std::string csv = metrics_to_csv(golden_registry());
  EXPECT_TRUE(csv.starts_with("kind,name,field,value\n"));
  EXPECT_NE(csv.find("counter,alpha.count,value,3\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,fleet.devices,value,500\n"), std::string::npos);
  EXPECT_NE(csv.find("gauge,fleet.devices,writes,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,backoff_s,underflow,1\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,backoff_s,bucket[0,1),1\n"), std::string::npos);
  EXPECT_NE(csv.find("sim_timer,latency,total_us,1750000\n"), std::string::npos);
}

TEST(MetricsExport, NamesAreEmittedInSortedOrder) {
  const std::string json = metrics_to_json(golden_registry());
  const std::size_t a = json.find("alpha.count");
  const std::size_t b = json.find("beta.count");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
}

}  // namespace
}  // namespace cellrel::obs

// Streaming data-plane economics: runs the same campaign through the
// materialized merge (AoS TraceRecord dataset), the streaming aggregation
// path (columnar batches folded into the Aggregator, no dataset), and
// the spill-to-disk variant, then compares throughput and the resident
// bytes the data plane pins per record. Writes BENCH_streaming_campaign.json.
//
// The contract checked here (and by the exit code): the streaming path must
// hold at least 2x fewer resident bytes per record than the materialized
// dataset, while producing a byte-identical full report.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "analysis/batch.h"
#include "analysis/full_report.h"
#include "bench_common.h"
#include "obs/export.h"

namespace {

using cellrel::Aggregator;
using cellrel::Campaign;
using cellrel::CampaignResult;
using cellrel::Scenario;
using cellrel::TraceRecord;

struct ModeSample {
  std::string mode;
  double seconds = 0.0;
  std::uint64_t records = 0;
  double bytes_per_record = 0.0;
  std::uint64_t peak_batch_bytes = 0;
  std::uint64_t spilled_bytes = 0;
};

double gauge_or_zero(const CampaignResult& r, const char* name) {
  const auto it = r.metrics.gauges().find(name);
  return it == r.metrics.gauges().end() ? 0.0 : it->second.value;
}

}  // namespace

int main() {
  using cellrel::bench::bench_scenario;
  using cellrel::bench::print_header;

  ::unsetenv("CELLREL_THREADS");
  print_header("streaming_campaign",
               "columnar batches + streaming aggregation vs materialized merge");

  Scenario sc = bench_scenario("streaming_campaign");
  sc.threads = 1;  // identical shard schedule in every mode
  std::printf("[campaign: %u devices, %u BSes, seed %llu, sizeof(TraceRecord)=%zu]\n\n",
              sc.device_count, sc.deployment.bs_count,
              static_cast<unsigned long long>(sc.seed), sizeof(TraceRecord));

  auto timed = [](const Scenario& run_sc, CampaignResult* out) {
    const auto start = std::chrono::steady_clock::now();
    *out = Campaign(run_sc).run();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
  };

  // --- materialized baseline -----------------------------------------------
  CampaignResult mat;
  const double mat_seconds = timed(sc, &mat);
  const std::uint64_t n = mat.dataset.records.size();
  ModeSample materialized;
  materialized.mode = "materialized";
  materialized.seconds = mat_seconds;
  materialized.records = n;
  materialized.peak_batch_bytes =
      static_cast<std::uint64_t>(gauge_or_zero(mat, "process.dataplane.peak_batch_bytes"));
  // What the materialized mode pins per record at its merge high-water mark:
  // the exact-reserved AoS dataset storage PLUS every shard's still-undrained
  // columnar batches (the dataset is reserved in full before the first batch
  // is drained). Device/BS metadata are identical across modes and excluded
  // everywhere.
  materialized.bytes_per_record =
      n == 0 ? 0.0
             : static_cast<double>(mat.dataset.records.capacity() * sizeof(TraceRecord) +
                                   materialized.peak_batch_bytes) /
                   static_cast<double>(n);
  const std::string mat_report = cellrel::render_full_report(cellrel::Aggregator(mat.dataset));

  // --- streaming (batches retained until merge) ----------------------------
  Scenario stream_sc = sc;
  stream_sc.stream = true;
  CampaignResult str;
  const double str_seconds = timed(stream_sc, &str);
  ModeSample streaming;
  streaming.mode = "streaming";
  streaming.seconds = str_seconds;
  streaming.records = str.stream->total_records();
  streaming.peak_batch_bytes =
      static_cast<std::uint64_t>(gauge_or_zero(str, "process.dataplane.peak_batch_bytes"));
  // What the streaming data plane pins per record: the columnar batches at
  // their high-water mark (the aggregator's tables are O(kept failures) and
  // shared-shape with the materialized Aggregator, so they cancel out).
  streaming.bytes_per_record =
      n == 0 ? 0.0
             : static_cast<double>(streaming.peak_batch_bytes) / static_cast<double>(n);
  const bool stream_identical =
      str.stream != nullptr && cellrel::render_full_report(*str.stream) == mat_report;

  // --- streaming + spill ---------------------------------------------------
  const std::filesystem::path spill_dir =
      std::filesystem::temp_directory_path() / "cellrel_bench_streaming_spill";
  std::filesystem::remove_all(spill_dir);
  Scenario spill_sc = stream_sc;
  spill_sc.spill_dir = spill_dir.string();
  CampaignResult spl;
  const double spill_seconds = timed(spill_sc, &spl);
  ModeSample spilling;
  spilling.mode = "streaming+spill";
  spilling.seconds = spill_seconds;
  spilling.records = spl.stream->total_records();
  spilling.peak_batch_bytes =
      static_cast<std::uint64_t>(gauge_or_zero(spl, "process.dataplane.peak_batch_bytes"));
  spilling.spilled_bytes =
      static_cast<std::uint64_t>(gauge_or_zero(spl, "process.dataplane.spilled_bytes"));
  spilling.bytes_per_record =
      n == 0 ? 0.0
             : static_cast<double>(spilling.peak_batch_bytes) / static_cast<double>(n);
  const bool spill_identical =
      spl.stream != nullptr && cellrel::render_full_report(*spl.stream) == mat_report;
  std::filesystem::remove_all(spill_dir);

  const ModeSample samples[] = {materialized, streaming, spilling};
  std::printf("%-18s %10s %12s %14s %16s %12s\n", "mode", "seconds", "records/s",
              "bytes/record", "peak batch B", "spilled B");
  for (const ModeSample& s : samples) {
    std::printf("%-18s %10.3f %12.0f %14.1f %16llu %12llu\n", s.mode.c_str(), s.seconds,
                s.seconds > 0 ? static_cast<double>(s.records) / s.seconds : 0.0,
                s.bytes_per_record,
                static_cast<unsigned long long>(s.peak_batch_bytes),
                static_cast<unsigned long long>(s.spilled_bytes));
  }

  const double ratio = streaming.bytes_per_record > 0
                           ? materialized.bytes_per_record / streaming.bytes_per_record
                           : 0.0;
  std::printf("\nmaterialized/streaming bytes-per-record ratio: %.2fx "
              "(contract: >= 2x)\nreports byte-identical: stream=%s spill=%s\n",
              ratio, stream_identical ? "yes" : "NO — BUG",
              spill_identical ? "yes" : "NO — BUG");

  const char* path = "BENCH_streaming_campaign.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"devices\": %u,\n"
               "  \"bs_count\": %u,\n"
               "  \"seed\": %llu,\n"
               "  \"sizeof_trace_record\": %zu,\n"
               "  \"bytes_per_row_columnar\": %zu,\n"
               "  \"records\": %llu,\n"
               "  \"bytes_per_record_ratio\": %.4f,\n"
               "  \"reports_identical\": %s,\n"
               "  \"series\": [\n",
               sc.device_count, sc.deployment.bs_count,
               static_cast<unsigned long long>(sc.seed), sizeof(TraceRecord),
               static_cast<std::size_t>(cellrel::RecordBatch::kBytesPerRow),
               static_cast<unsigned long long>(n), ratio,
               stream_identical && spill_identical ? "true" : "false");
  for (std::size_t i = 0; i < 3; ++i) {
    const ModeSample& s = samples[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"seconds\": %.6f, "
                 "\"records_per_sec\": %.1f, \"bytes_per_record\": %.2f, "
                 "\"peak_batch_bytes\": %llu, \"spilled_bytes\": %llu}%s\n",
                 s.mode.c_str(), s.seconds,
                 s.seconds > 0 ? static_cast<double>(s.records) / s.seconds : 0.0,
                 s.bytes_per_record,
                 static_cast<unsigned long long>(s.peak_batch_bytes),
                 static_cast<unsigned long long>(s.spilled_bytes), i + 1 < 3 ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);

  return (ratio >= 2.0 && stream_identical && spill_identical) ? 0 : 1;
}

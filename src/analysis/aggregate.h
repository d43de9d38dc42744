// Aggregation over the backend dataset: the statistics behind every table
// and figure in §3.
//
// One concrete Aggregator answers every §3 question. Its state is folded
// incrementally, one record row at a time, through a single private fold;
// two adapters feed it:
//
//   - consume(RecordBatch) — the campaign merge folds every shard's
//     columnar batches (in memory or re-read from spill files) in
//     shard-index order, so the merged dataset never has to exist;
//   - Aggregator(const TraceDataset&) — a materialized or re-imported
//     dataset (read_dataset_csv) is folded eagerly, record by record, with
//     its side tables.
//
// Bit-identity contract: both adapters fold the same rows in the same order
// (shard-index order == dataset record order == records.csv order), so every
// floating-point accumulation runs over the same operands in the same order,
// the integer tables are order-independent, and the derived divisions use
// the same operands — every query answers byte-identically whichever adapter
// fed it, for every thread count, with or without spill. Pinned by
// StreamingCampaignTest and the golden table dumps in tests/analysis/golden.

#ifndef CELLREL_ANALYSIS_AGGREGATE_H
#define CELLREL_ANALYSIS_AGGREGATE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_set>
#include <vector>

#include "analysis/batch.h"
#include "analysis/dataset.h"
#include "bs/isp.h"
#include "common/names.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "radio/fail_cause.h"
#include "radio/signal.h"

namespace cellrel {

/// Prevalence & frequency for one device slice.
/// Prevalence: fraction of slice devices with >= 1 kept failure.
/// Frequency: mean number of kept failures among failing devices (matches
/// Table 1, where per-model frequency exceeds zero even at 0.15% prevalence).
struct PrevalenceFrequency {
  std::uint64_t devices = 0;
  std::uint64_t failing_devices = 0;
  std::uint64_t failures = 0;
  double prevalence() const {
    return devices ? static_cast<double>(failing_devices) / static_cast<double>(devices) : 0.0;
  }
  double frequency() const {
    return failing_devices ? static_cast<double>(failures) / static_cast<double>(failing_devices)
                           : 0.0;
  }
};

/// Cell [from_level][to_level] = P(failure | transition from_rat level i ->
/// to_rat level j) - P(failure | dwell at from_rat level i).
using TransitionMatrix = std::array<std::array<double, kSignalLevelCount>, kSignalLevelCount>;

/// Order-independent integer count tables for the RAT-transition analysis
/// (Fig. 17). Shards accumulate these as they emit transition/dwell
/// samples: the transition matrices only ever consume counts, and integer
/// sums are independent of merge grouping.
struct TransitionDwellCounts {
  std::array<std::array<std::uint64_t, kSignalLevelCount>, kRatCount> dwell_total{};
  std::array<std::array<std::uint64_t, kSignalLevelCount>, kRatCount> dwell_fail{};
  std::array<std::array<std::array<std::array<std::uint64_t, kSignalLevelCount>,
                                   kSignalLevelCount>,
                        kRatCount>,
             kRatCount>
      transition_total{};  // [from_rat][to_rat][from_level][to_level]
  std::array<std::array<std::array<std::array<std::uint64_t, kSignalLevelCount>,
                                   kSignalLevelCount>,
                        kRatCount>,
             kRatCount>
      transition_fail{};

  void add(const DwellRecord& d);
  void add(const TransitionRecord& t);
  /// Folds a materialized dataset's transition/dwell samples.
  void add(std::span<const TransitionRecord> transitions, std::span<const DwellRecord> dwells);
  void merge(const TransitionDwellCounts& other);

  /// The Fig. 17 matrix for one RAT pair; cells with no transitions are 0.
  TransitionMatrix increase(Rat from_rat, Rat to_rat) const;
};

/// The §3 analysis surface, folded from record rows (see the file comment).
class Aggregator {
 public:
  /// Per-device kept-failure counts (the Fig. 3 CDF series), failing
  /// devices only, per type and total.
  struct PerDeviceCounts {
    SampleSet total;
    std::array<SampleSet, kFailureTypeCount> by_type;
  };

  struct BsRankingStats {
    std::uint64_t median = 0;
    double mean = 0.0;
    std::uint64_t max = 0;
    std::uint64_t with_failures = 0;
    std::uint64_t total = 0;
  };

  struct ErrorCodeShare {
    FailCause cause = FailCause::kUnknown;
    std::uint64_t count = 0;
    double percent = 0.0;  // of all kept Data_Setup_Error failures
  };

  struct FilterScore {
    std::uint64_t true_positives = 0;   // FPs correctly filtered
    std::uint64_t false_negatives = 0;  // FPs kept by mistake
    std::uint64_t false_positives = 0;  // true failures wrongly filtered
    std::uint64_t true_negatives = 0;   // true failures kept
    double precision() const {
      const std::uint64_t flagged = true_positives + false_positives;
      return flagged ? static_cast<double>(true_positives) / static_cast<double>(flagged) : 0.0;
    }
    double recall() const {
      const std::uint64_t actual = true_positives + false_negatives;
      return actual ? static_cast<double>(true_positives) / static_cast<double>(actual) : 0.0;
    }
  };

  /// Empty aggregator, fed by the campaign merge through the ingestion
  /// calls below.
  Aggregator() = default;
  /// Folds a whole dataset: devices, records in order, connected time,
  /// transition/dwell samples (as TransitionDwellCounts) and BS metadata.
  explicit Aggregator(const TraceDataset& dataset);

  // --- Ingestion (merge-time, single-threaded, shard-index order) ---
  /// Device metadata for one shard (fleet order; ids ascending overall).
  void add_devices(std::span<const DeviceMeta> devices);
  /// One batch of records, in emission order.
  void consume(const RecordBatch& batch);
  /// One shard's connected-time table (element-wise sum, shard order).
  void add_connected_time(const ConnectedTimeTable& table);
  /// One shard's transition/dwell count tables.
  void add_counts(const TransitionDwellCounts& counts);
  /// The post-merge BS landscape snapshot.
  void set_base_stations(std::vector<BsMeta> base_stations);

  // --- Device-slice prevalence & frequency ---
  PrevalenceFrequency overall() const;
  /// Keyed by model_id 1..34 (Table 1, Fig. 2, Fig. 5).
  std::map<int, PrevalenceFrequency> by_model() const;
  /// [0]: non-5G models, [1]: 5G models (Fig. 6/7). When `android10_only` is
  /// set, restricts to Android 10 models (the paper's fair-comparison
  /// footnote).
  std::array<PrevalenceFrequency, 2> by_5g_capability(bool android10_only = false) const;
  /// [0]: Android 9, [1]: Android 10 (Fig. 8/9). When `exclude_5g` is set,
  /// drops 5G models (fair comparison).
  std::array<PrevalenceFrequency, 2> by_android_version(bool exclude_5g = false) const;
  /// Indexed by IspId (Fig. 12/13).
  std::array<PrevalenceFrequency, kIspCount> by_isp() const;

  /// Mean kept-failure count per failure type over ALL devices (the
  /// "16 setup / 14 stall / 3 OOS per phone" split of Fig. 3).
  std::array<double, kFailureTypeCount> mean_failures_per_device_by_type() const;
  PerDeviceCounts per_device_counts() const;

  // --- Durations (Fig. 4, Fig. 10, Fig. 21) ---
  SampleSet durations_all() const { return durations_all_; }
  SampleSet durations_of(FailureType type) const { return durations_by_type_[index_of(type)]; }
  /// Share of total failure duration per type (Data_Stall ~ 94%).
  std::array<double, kFailureTypeCount> duration_share_by_type() const;

  // --- BS landscape (Fig. 11, Fig. 14) ---
  ZipfFit bs_zipf_fit() const;
  BsRankingStats bs_ranking_stats() const;
  /// Fraction of RAT-r-capable BSes that experienced >= 1 failure (Fig. 14).
  std::array<double, kRatCount> bs_prevalence_by_rat() const;

  // --- Signal levels (Fig. 15 / Fig. 16) ---
  /// Normalized prevalence per level: (failing devices at level / devices)
  /// divided by mean connected hours at that level (Fig. 15).
  std::array<double, kSignalLevelCount> normalized_prevalence_by_level() const;
  /// Same, per (RAT, level) (Fig. 16).
  std::array<std::array<double, kSignalLevelCount>, kRatCount>
  normalized_prevalence_by_rat_level() const;

  // --- Error codes (Table 2) ---
  std::vector<ErrorCodeShare> top_error_codes(std::size_t n = 10) const;

  // --- RAT transitions (Fig. 17) ---
  TransitionMatrix transition_increase(Rat from_rat, Rat to_rat) const {
    return td_.increase(from_rat, to_rat);
  }

  // --- Filter scoring (validation; uses ground truth) ---
  FilterScore filter_score() const { return fscore_; }

  // --- Whole-stream facts (report headers) ---
  std::uint64_t total_records() const { return total_records_; }
  std::uint64_t filtered_records() const { return filtered_records_; }
  /// Whether any record carries a ground-truth false-positive label (an
  /// imported backend dataset does not).
  bool has_ground_truth() const { return has_ground_truth_; }

  /// The fleet/BS metadata the aggregator retains (a streaming campaign
  /// leaves CampaignResult::dataset empty; these are the surviving copies).
  const std::vector<DeviceMeta>& devices() const { return devices_; }
  const std::vector<BsMeta>& base_stations() const { return base_stations_; }
  const ConnectedTimeTable& connected_time() const { return connected_time_; }

  /// Approximate resident footprint of the aggregation state (memory-
  /// ceiling accounting for the bench; dominated by the duration samples:
  /// 16 bytes per kept record).
  std::size_t resident_bytes() const;

 private:
  /// The one per-row fold both adapters feed.
  void fold(const RecordBatch::RowView& row);

  std::vector<DeviceMeta> devices_;
  std::vector<BsMeta> base_stations_;
  ConnectedTimeTable connected_time_;
  /// Kept-failure counts per device per type (covers the slices and
  /// per_device_counts). Ordered: feeds SampleSets on the deterministic
  /// export surface (cellrel-lint: ordered-export).
  std::map<DeviceId, std::array<std::uint64_t, kFailureTypeCount>> counts_;
  SampleSet durations_all_;
  std::array<SampleSet, kFailureTypeCount> durations_by_type_;
  std::array<double, kFailureTypeCount> duration_sums_{};
  double duration_total_ = 0.0;
  /// Ordered: with an unordered map, error codes tied on count would rank in
  /// implementation-defined order and flip table rows between platforms.
  std::map<std::int32_t, std::uint64_t> setup_error_codes_;
  std::uint64_t setup_error_total_ = 0;
  /// Devices with >= 1 kept failure per level / per (RAT, level). Only
  /// .size() is consumed (never iterated).
  std::array<std::unordered_set<DeviceId>, kSignalLevelCount> failing_by_level_;
  std::array<std::array<std::unordered_set<DeviceId>, kSignalLevelCount>, kRatCount>
      failing_by_rat_level_;
  TransitionDwellCounts td_;
  FilterScore fscore_;
  std::uint64_t total_records_ = 0;
  std::uint64_t filtered_records_ = 0;
  bool has_ground_truth_ = false;
};

}  // namespace cellrel

#endif  // CELLREL_ANALYSIS_AGGREGATE_H

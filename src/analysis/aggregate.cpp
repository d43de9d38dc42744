#include "analysis/aggregate.h"

#include <algorithm>
#include <map>
#include <span>
#include <unordered_map>
#include <unordered_set>

namespace cellrel {

// ---------------------------------------------------------------------------
// TransitionDwellCounts
// ---------------------------------------------------------------------------

void TransitionDwellCounts::add(const DwellRecord& d) {
  ++dwell_total[index_of(d.rat)][index_of(d.level)];
  if (d.failure_within_window) ++dwell_fail[index_of(d.rat)][index_of(d.level)];
}

void TransitionDwellCounts::add(const TransitionRecord& t) {
  auto& total = transition_total[index_of(t.from_rat)][index_of(t.to_rat)];
  ++total[index_of(t.from_level)][index_of(t.to_level)];
  if (t.failure_within_window) {
    auto& fail = transition_fail[index_of(t.from_rat)][index_of(t.to_rat)];
    ++fail[index_of(t.from_level)][index_of(t.to_level)];
  }
}

void TransitionDwellCounts::add(std::span<const TransitionRecord> transitions,
                                std::span<const DwellRecord> dwells) {
  for (const TransitionRecord& t : transitions) add(t);
  for (const DwellRecord& d : dwells) add(d);
}

void TransitionDwellCounts::merge(const TransitionDwellCounts& other) {
  for (std::size_t r = 0; r < kRatCount; ++r) {
    for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
      dwell_total[r][l] += other.dwell_total[r][l];
      dwell_fail[r][l] += other.dwell_fail[r][l];
    }
  }
  for (std::size_t fr = 0; fr < kRatCount; ++fr) {
    for (std::size_t tr = 0; tr < kRatCount; ++tr) {
      for (std::size_t i = 0; i < kSignalLevelCount; ++i) {
        for (std::size_t j = 0; j < kSignalLevelCount; ++j) {
          transition_total[fr][tr][i][j] += other.transition_total[fr][tr][i][j];
          transition_fail[fr][tr][i][j] += other.transition_fail[fr][tr][i][j];
        }
      }
    }
  }
}

TransitionMatrix TransitionDwellCounts::increase(Rat from_rat, Rat to_rat) const {
  const auto& dwells = dwell_total[index_of(from_rat)];
  const auto& dwell_fails = dwell_fail[index_of(from_rat)];
  const auto& trans_total = transition_total[index_of(from_rat)][index_of(to_rat)];
  const auto& trans_fail = transition_fail[index_of(from_rat)][index_of(to_rat)];
  TransitionMatrix m{};
  for (std::size_t i = 0; i < kSignalLevelCount; ++i) {
    const double baseline =
        dwells[i] ? static_cast<double>(dwell_fails[i]) / static_cast<double>(dwells[i]) : 0.0;
    for (std::size_t j = 0; j < kSignalLevelCount; ++j) {
      if (trans_total[i][j] == 0) {
        m[i][j] = 0.0;
        continue;
      }
      const double rate =
          static_cast<double>(trans_fail[i][j]) / static_cast<double>(trans_total[i][j]);
      m[i][j] = rate - baseline;
    }
  }
  return m;
}

namespace {

/// Device-slice accumulation: buckets every device by `classify` (negative
/// = outside the slice), then credits each failing device's kept-failure
/// total to its bucket.
template <typename Classify>
void slice_devices(
    const std::vector<DeviceMeta>& devices,
    const std::map<DeviceId, std::array<std::uint64_t, kFailureTypeCount>>& counts,
    Classify classify, std::span<PrevalenceFrequency> out) {
  std::unordered_map<DeviceId, int> bucket_of;
  bucket_of.reserve(devices.size());
  for (const auto& d : devices) {
    const int b = classify(d);
    if (b < 0) continue;
    bucket_of[d.id] = b;
    ++out[static_cast<std::size_t>(b)].devices;
  }
  for (const auto& [id, per_type] : counts) {
    const auto it = bucket_of.find(id);
    if (it == bucket_of.end()) continue;
    std::uint64_t total = 0;
    for (auto c : per_type) total += c;
    auto& pf = out[static_cast<std::size_t>(it->second)];
    ++pf.failing_devices;
    pf.failures += total;
  }
}

}  // namespace

Aggregator::Aggregator(const TraceDataset& dataset) {
  add_devices(dataset.devices);
  for (const TraceRecord& r : dataset.records) fold(RecordBatch::row_of(r));
  add_connected_time(dataset.connected_time);
  td_.add(dataset.transitions, dataset.dwells);
  base_stations_ = dataset.base_stations;
}

void Aggregator::add_devices(std::span<const DeviceMeta> devices) {
  devices_.insert(devices_.end(), devices.begin(), devices.end());
}

void Aggregator::consume(const RecordBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) fold(batch.row(i));
}

void Aggregator::fold(const RecordBatch::RowView& r) {
  ++total_records_;
  const bool truly_fp = is_false_positive(r.ground_truth_fp);
  if (truly_fp) has_ground_truth_ = true;
  if (truly_fp && r.filtered_false_positive) ++fscore_.true_positives;
  if (truly_fp && !r.filtered_false_positive) ++fscore_.false_negatives;
  if (!truly_fp && r.filtered_false_positive) ++fscore_.false_positives;
  if (!truly_fp && !r.filtered_false_positive) ++fscore_.true_negatives;
  if (r.filtered_false_positive) {
    ++filtered_records_;
    return;  // the analysis view only sees kept records
  }
  ++counts_[r.device][index_of(r.type)];
  const double d = SimDuration::microseconds(r.duration_us).to_seconds();
  durations_all_.add(d);
  durations_by_type_[index_of(r.type)].add(d);
  duration_sums_[index_of(r.type)] += d;
  duration_total_ += d;
  if (r.type == FailureType::kDataSetupError) {
    ++setup_error_codes_[static_cast<std::int32_t>(r.cause)];
    ++setup_error_total_;
  }
  failing_by_level_[index_of(r.level)].insert(r.device);
  failing_by_rat_level_[index_of(r.rat)][index_of(r.level)].insert(r.device);
}

void Aggregator::add_connected_time(const ConnectedTimeTable& table) {
  for (std::size_t r = 0; r < kRatCount; ++r) {
    for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
      connected_time_.seconds[r][l] += table.seconds[r][l];
    }
  }
}

void Aggregator::add_counts(const TransitionDwellCounts& counts) { td_.merge(counts); }

void Aggregator::set_base_stations(std::vector<BsMeta> base_stations) {
  base_stations_ = std::move(base_stations);
}

PrevalenceFrequency Aggregator::overall() const {
  PrevalenceFrequency pf;
  pf.devices = devices_.size();
  for (const auto& [id, per_type] : counts_) {
    ++pf.failing_devices;
    for (auto c : per_type) pf.failures += c;
  }
  return pf;
}

std::map<int, PrevalenceFrequency> Aggregator::by_model() const {
  std::unordered_map<DeviceId, int> model_of;
  model_of.reserve(devices_.size());
  std::map<int, PrevalenceFrequency> out;
  for (const auto& d : devices_) {
    model_of[d.id] = d.model_id;
    ++out[d.model_id].devices;
  }
  for (const auto& [id, per_type] : counts_) {
    const auto it = model_of.find(id);
    if (it == model_of.end()) continue;
    std::uint64_t total = 0;
    for (auto c : per_type) total += c;
    auto& pf = out[it->second];
    ++pf.failing_devices;
    pf.failures += total;
  }
  return out;
}

std::array<PrevalenceFrequency, 2> Aggregator::by_5g_capability(bool android10_only) const {
  std::array<PrevalenceFrequency, 2> out{};
  slice_devices(devices_, counts_,
                [android10_only](const DeviceMeta& d) {
                  if (android10_only && d.android != AndroidVersion::kAndroid10) return -1;
                  return d.has_5g ? 1 : 0;
                },
                out);
  return out;
}

std::array<PrevalenceFrequency, 2> Aggregator::by_android_version(bool exclude_5g) const {
  std::array<PrevalenceFrequency, 2> out{};
  slice_devices(devices_, counts_,
                [exclude_5g](const DeviceMeta& d) {
                  if (exclude_5g && d.has_5g) return -1;
                  return d.android == AndroidVersion::kAndroid10 ? 1 : 0;
                },
                out);
  return out;
}

std::array<PrevalenceFrequency, kIspCount> Aggregator::by_isp() const {
  std::array<PrevalenceFrequency, kIspCount> out{};
  slice_devices(devices_, counts_,
                [](const DeviceMeta& d) { return static_cast<int>(index_of(d.isp)); }, out);
  return out;
}

std::array<double, kFailureTypeCount> Aggregator::mean_failures_per_device_by_type() const {
  std::array<double, kFailureTypeCount> out{};
  if (devices_.empty()) return out;
  // Integer counts converted once: exact below 2^53, so this equals a
  // per-record `+= 1.0` accumulation bit for bit.
  std::array<std::uint64_t, kFailureTypeCount> totals{};
  for (const auto& [id, per_type] : counts_) {
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) totals[t] += per_type[t];
  }
  for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
    out[t] = static_cast<double>(totals[t]) / static_cast<double>(devices_.size());
  }
  return out;
}

Aggregator::PerDeviceCounts Aggregator::per_device_counts() const {
  PerDeviceCounts out;
  for (const auto& [id, per_type] : counts_) {
    std::uint64_t total = 0;
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
      total += per_type[t];
      if (per_type[t] > 0) out.by_type[t].add(static_cast<double>(per_type[t]));
    }
    out.total.add(static_cast<double>(total));
  }
  return out;
}

std::array<double, kFailureTypeCount> Aggregator::duration_share_by_type() const {
  std::array<double, kFailureTypeCount> out = duration_sums_;
  if (duration_total_ > 0.0) {
    for (auto& v : out) v /= duration_total_;
  }
  return out;
}

ZipfFit Aggregator::bs_zipf_fit() const {
  std::vector<std::uint64_t> counts;
  counts.reserve(base_stations_.size());
  for (const auto& bs : base_stations_) counts.push_back(bs.failure_count);
  return fit_zipf(counts);
}

Aggregator::BsRankingStats Aggregator::bs_ranking_stats() const {
  BsRankingStats st;
  std::vector<std::uint64_t> counts;
  counts.reserve(base_stations_.size());
  for (const auto& bs : base_stations_) {
    counts.push_back(bs.failure_count);
    if (bs.failure_count > 0) ++st.with_failures;
  }
  st.total = counts.size();
  if (counts.empty()) return st;
  std::sort(counts.begin(), counts.end());
  st.median = counts[counts.size() / 2];
  st.max = counts.back();
  double sum = 0.0;
  for (auto c : counts) sum += static_cast<double>(c);
  st.mean = sum / static_cast<double>(counts.size());
  return st;
}

std::array<double, kRatCount> Aggregator::bs_prevalence_by_rat() const {
  std::array<std::uint64_t, kRatCount> total{};
  std::array<std::uint64_t, kRatCount> failing{};
  for (const auto& bs : base_stations_) {
    for (Rat rat : kAllRats) {
      if (bs.rat_mask & (1u << index_of(rat))) {
        ++total[index_of(rat)];
        if (bs.failure_count > 0) ++failing[index_of(rat)];
      }
    }
  }
  std::array<double, kRatCount> out{};
  for (std::size_t r = 0; r < kRatCount; ++r) {
    out[r] = total[r] ? static_cast<double>(failing[r]) / static_cast<double>(total[r]) : 0.0;
  }
  return out;
}

std::array<double, kSignalLevelCount> Aggregator::normalized_prevalence_by_level() const {
  std::array<double, kSignalLevelCount> out{};
  const double n = static_cast<double>(devices_.size());
  if (n == 0.0) return out;
  for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
    const double prevalence = static_cast<double>(failing_by_level_[l].size()) / n;
    const double hours = connected_time_.level_total(signal_level_from_index(l)) / n / 3600.0;
    out[l] = hours > 0.0 ? prevalence / hours : 0.0;
  }
  return out;
}

std::array<std::array<double, kSignalLevelCount>, kRatCount>
Aggregator::normalized_prevalence_by_rat_level() const {
  std::array<std::array<double, kSignalLevelCount>, kRatCount> out{};
  const double n = static_cast<double>(devices_.size());
  if (n == 0.0) return out;
  for (std::size_t rt = 0; rt < kRatCount; ++rt) {
    for (std::size_t l = 0; l < kSignalLevelCount; ++l) {
      const double prevalence = static_cast<double>(failing_by_rat_level_[rt][l].size()) / n;
      const double hours = connected_time_.seconds[rt][l] / n / 3600.0;
      out[rt][l] = hours > 0.0 ? prevalence / hours : 0.0;
    }
  }
  return out;
}

std::vector<Aggregator::ErrorCodeShare> Aggregator::top_error_codes(std::size_t n) const {
  std::vector<ErrorCodeShare> out;
  out.reserve(setup_error_codes_.size());
  for (const auto& [code, c] : setup_error_codes_) {
    ErrorCodeShare s;
    s.cause = static_cast<FailCause>(code);
    s.count = c;
    s.percent = setup_error_total_
                    ? 100.0 * static_cast<double>(c) / static_cast<double>(setup_error_total_)
                    : 0.0;
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(), [](const ErrorCodeShare& a, const ErrorCodeShare& b) {
    if (a.count != b.count) return a.count > b.count;
    return static_cast<std::int32_t>(a.cause) < static_cast<std::int32_t>(b.cause);
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::size_t Aggregator::resident_bytes() const {
  std::size_t bytes = devices_.capacity() * sizeof(DeviceMeta) +
                      base_stations_.capacity() * sizeof(BsMeta);
  // Duration samples: the dominant O(kept-records) term (16 B per kept
  // record: one double in the total set, one in the per-type set).
  bytes += durations_all_.size() * sizeof(double);
  for (const auto& s : durations_by_type_) bytes += s.size() * sizeof(double);
  // Map/set node estimates (payload + tree/bucket overhead).
  bytes += counts_.size() *
           (sizeof(DeviceId) + kFailureTypeCount * sizeof(std::uint64_t) + 4 * sizeof(void*));
  bytes += setup_error_codes_.size() * (16 + 4 * sizeof(void*));
  std::size_t set_entries = 0;
  for (const auto& s : failing_by_level_) set_entries += s.size();
  for (const auto& per_rat : failing_by_rat_level_) {
    for (const auto& s : per_rat) set_entries += s.size();
  }
  bytes += set_entries * (sizeof(DeviceId) + 2 * sizeof(void*));
  bytes += sizeof(TransitionDwellCounts);
  return bytes;
}

}  // namespace cellrel

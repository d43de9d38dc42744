#include "query/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "analysis/csv_io.h"
#include "analysis/report.h"
#include "analysis/string_pool.h"
#include "device/phone_model.h"

namespace cellrel::query {

double canonical_seconds(double s) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", s);
  return std::strtod(buf, nullptr);
}

namespace {

/// `prefix` followed by the decimal id. Appends rather than `const char* +
/// std::string&&`, which trips GCC 12's -Wrestrict false positive at -O2+.
std::string prefixed(const char* prefix, std::int64_t id) {
  std::string out = prefix;
  out += std::to_string(id);
  return out;
}

std::string group_key(GroupBy group, std::int64_t id) {
  switch (group) {
    case GroupBy::kNone: return "all";
    case GroupBy::kModel: return prefixed("model ", id);
    case GroupBy::kIsp: return std::string(to_string(static_cast<IspId>(id)));
    case GroupBy::kRat: return std::string(to_string(static_cast<Rat>(id)));
    case GroupBy::kLevel: return prefixed("L", id);
    case GroupBy::kBs: return prefixed("bs ", id);
    case GroupBy::kType: return std::string(to_string(static_cast<FailureType>(id)));
    case GroupBy::kCause: return std::string(to_string(static_cast<FailCause>(id)));
    case GroupBy::kFiveG: return id ? "5G models" : "non-5G models";
    case GroupBy::kAndroid: return id ? "Android 10" : "Android 9";
  }
  return "?";
}

/// The fixed (fleet-independent) group domain of a key, or empty when the
/// domain is observation-defined (bs, cause) or device-defined handled by
/// the caller.
std::vector<std::int64_t> enum_domain(GroupBy group) {
  std::vector<std::int64_t> out;
  switch (group) {
    case GroupBy::kNone: out.push_back(0); break;
    case GroupBy::kModel:
      for (const auto& spec : phone_models()) out.push_back(spec.model_id);
      break;
    case GroupBy::kIsp:
      for (std::size_t i = 0; i < kIspCount; ++i) out.push_back(static_cast<std::int64_t>(i));
      break;
    case GroupBy::kRat:
      for (std::size_t i = 0; i < kRatCount; ++i) out.push_back(static_cast<std::int64_t>(i));
      break;
    case GroupBy::kLevel:
      for (std::size_t i = 0; i < kSignalLevelCount; ++i) {
        out.push_back(static_cast<std::int64_t>(i));
      }
      break;
    case GroupBy::kType:
      for (std::size_t i = 0; i < kFailureTypeCount; ++i) {
        out.push_back(static_cast<std::int64_t>(i));
      }
      break;
    case GroupBy::kFiveG:
    case GroupBy::kAndroid:
      out.push_back(0);
      out.push_back(1);
      break;
    case GroupBy::kBs:
    case GroupBy::kCause:
      break;  // observation-defined
  }
  return out;
}

bool device_keyed(GroupBy group) {
  return group == GroupBy::kModel || group == GroupBy::kIsp ||
         group == GroupBy::kFiveG || group == GroupBy::kAndroid;
}

}  // namespace

void QueryExecutor::add_devices(std::span<const DeviceMeta> devices) {
  for (const DeviceMeta& d : devices) devices_.emplace(d.id, d);
}

void QueryExecutor::consume(const RecordBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) ingest(batch.row(i));
}

void QueryExecutor::add_counts(const TransitionDwellCounts& counts) { td_.merge(counts); }

bool QueryExecutor::device_passes(const DeviceMeta& device) const {
  const QueryFilter& f = spec_.filter;
  if (f.model_id && device.model_id != *f.model_id) return false;
  if (f.isp && device.isp != *f.isp) return false;
  return true;
}

bool QueryExecutor::record_passes(const RecordBatch::RowView& row, double at_s) const {
  const QueryFilter& f = spec_.filter;
  if (f.rat && row.rat != *f.rat) return false;
  if (f.level && row.level != *f.level) return false;
  if (f.bs && row.bs != *f.bs) return false;
  if (f.type && row.type != *f.type) return false;
  if (f.since_s && at_s < *f.since_s) return false;
  if (f.until_s && at_s >= *f.until_s) return false;
  return true;
}

std::int64_t QueryExecutor::group_id(const DeviceMeta& device,
                                     const RecordBatch::RowView& row) const {
  switch (spec_.group) {
    case GroupBy::kNone: return 0;
    case GroupBy::kModel: return device.model_id;
    case GroupBy::kIsp: return static_cast<std::int64_t>(index_of(device.isp));
    case GroupBy::kRat: return static_cast<std::int64_t>(index_of(row.rat));
    case GroupBy::kLevel: return static_cast<std::int64_t>(index_of(row.level));
    case GroupBy::kBs: return static_cast<std::int64_t>(row.bs);
    case GroupBy::kType: return static_cast<std::int64_t>(index_of(row.type));
    case GroupBy::kCause: return static_cast<std::int64_t>(row.cause);
    case GroupBy::kFiveG: return device.has_5g ? 1 : 0;
    case GroupBy::kAndroid: return device.android == AndroidVersion::kAndroid10 ? 1 : 0;
  }
  return 0;
}

void QueryExecutor::ingest(const RecordBatch::RowView& row) {
  // Transition specs are fed by the count tables only.
  if (row.filtered_false_positive || spec_.agg == AggKind::kTransition) return;
  const double at_s = canonical_seconds(static_cast<double>(row.at_us) / 1e6);
  const double duration_s = canonical_seconds(static_cast<double>(row.duration_us) / 1e6);
  const auto it = devices_.find(row.device);
  if (it == devices_.end()) {
    throw std::runtime_error(std::string("query: record of device ") +
                             std::to_string(row.device) + " has no device metadata");
  }
  const DeviceMeta& meta = it->second;
  if (!device_passes(meta) || !record_passes(row, at_s)) return;
  const std::int64_t gid = group_id(meta, row);
  switch (spec_.agg) {
    case AggKind::kPrevalenceFrequency: ++pf_counts_[gid][row.device]; break;
    case AggKind::kTypeBreakdown: ++breakdown_[gid][index_of(row.type)]; break;
    case AggKind::kCdf: cdf_[gid].add(duration_s); break;
    case AggKind::kTopK:
      ++top_counts_[gid];
      ++top_total_;
      break;
    case AggKind::kTransition: break;
  }
}

QueryResult QueryExecutor::result() const {
  QueryResult out;
  out.spec = spec_;
  switch (spec_.agg) {
    case AggKind::kPrevalenceFrequency: {
      // Group domain: fixed enum/model domain where one exists (so a fleet
      // without 5G devices still reports every model row), observed groups
      // for bs/cause.
      std::vector<std::int64_t> domain = enum_domain(spec_.group);
      if (domain.empty()) {
        for (const auto& [gid, per_device] : pf_counts_) domain.push_back(gid);
      }
      // Prevalence denominators. Device-keyed groups count eligible devices
      // per group value; record-keyed groups share one denominator (every
      // eligible device could have produced a matching record).
      std::map<std::int64_t, std::uint64_t> device_counts;
      std::uint64_t eligible = 0;
      for (const auto& [id, meta] : devices_) {
        if (!device_passes(meta)) continue;
        ++eligible;
        if (device_keyed(spec_.group)) ++device_counts[group_id(meta, {})];
      }
      for (std::int64_t gid : domain) {
        QueryResult::PfRow row;
        row.id = gid;
        row.key = group_key(spec_.group, gid);
        if (device_keyed(spec_.group)) {
          const auto dit = device_counts.find(gid);
          row.devices = dit != device_counts.end() ? dit->second : 0;
        } else {
          row.devices = eligible;
        }
        const auto git = pf_counts_.find(gid);
        if (git != pf_counts_.end()) {
          row.failing_devices = git->second.size();
          for (const auto& [dev, n] : git->second) row.failures += n;
        }
        // Same division, same operands as PrevalenceFrequency::prevalence()
        // / frequency() — query pf values exactly equal the legacy ones.
        PrevalenceFrequency pf{row.devices, row.failing_devices, row.failures};
        row.prevalence = pf.prevalence();
        row.frequency = pf.frequency();
        out.pf.push_back(std::move(row));
      }
      break;
    }
    case AggKind::kTypeBreakdown: {
      for (const auto& [gid, counts] : breakdown_) {
        QueryResult::BreakdownRow row;
        row.id = gid;
        row.key = group_key(spec_.group, gid);
        row.counts = counts;
        for (std::uint64_t c : counts) row.total += c;
        out.breakdown.push_back(std::move(row));
      }
      break;
    }
    case AggKind::kCdf: {
      for (const auto& [gid, samples] : cdf_) {
        QueryResult::CdfRow row;
        row.id = gid;
        row.key = group_key(spec_.group, gid);
        row.samples = samples;
        for (double q : default_cdf_quantiles()) {
          row.quantiles.emplace_back(q, samples.quantile(q));
        }
        out.cdf.push_back(std::move(row));
      }
      break;
    }
    case AggKind::kTopK: {
      for (const auto& [gid, count] : top_counts_) {
        QueryResult::TopRow row;
        row.id = gid;
        row.key = group_key(spec_.group, gid);
        row.count = count;
        row.percent = top_total_
                          ? 100.0 * static_cast<double>(count) / static_cast<double>(top_total_)
                          : 0.0;
        out.top.push_back(std::move(row));
      }
      // Rank: count descending, id ascending — the top_error_codes tiebreak.
      std::sort(out.top.begin(), out.top.end(),
                [](const QueryResult::TopRow& a, const QueryResult::TopRow& b) {
                  if (a.count != b.count) return a.count > b.count;
                  return a.id < b.id;
                });
      if (out.top.size() > spec_.top_k) out.top.resize(spec_.top_k);
      break;
    }
    case AggKind::kTransition:
      out.matrix = td_.increase(spec_.from_rat, spec_.to_rat);
      break;
  }
  return out;
}

QueryResult execute_over_dataset(const TraceDataset& dataset, const QuerySpec& spec) {
  QueryExecutor executor(spec);
  executor.add_devices(dataset.devices);
  for (const TraceRecord& r : dataset.records) executor.ingest(RecordBatch::row_of(r));
  TransitionDwellCounts counts;
  counts.add(dataset.transitions, dataset.dwells);
  executor.add_counts(counts);
  return executor.result();
}

QueryResult execute_over_spill(const std::filesystem::path& spill_dir,
                               const TraceDataset& sidecars, const QuerySpec& spec) {
  QueryExecutor executor(spec);
  executor.add_devices(sidecars.devices);
  StringPool apns;
  std::size_t shard = 0;
  const RecordReferences refs(sidecars);
  while (std::filesystem::exists(spill_dir / spill_shard_file(shard))) {
    const std::filesystem::path file = spill_dir / spill_shard_file(shard);
    int row = 0;
    read_spill_batches(file, 4096, apns, [&](const RecordBatch& batch) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const RecordBatch::RowView r = batch.row(i);
        refs.check(r.device, r.bs, file, ++row);
      }
      executor.consume(batch);
    });
    ++shard;
  }
  if (shard == 0) {
    throw std::runtime_error("query: no spill shards under " + spill_dir.string());
  }
  TransitionDwellCounts counts;
  counts.add(sidecars.transitions, sidecars.dwells);
  executor.add_counts(counts);
  return executor.result();
}

}  // namespace cellrel::query

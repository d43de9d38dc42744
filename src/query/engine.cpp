#include "query/engine.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "analysis/csv_io.h"
#include "analysis/report.h"
#include "analysis/string_pool.h"
#include "device/phone_model.h"

namespace cellrel::query {

namespace {

/// The %.3f text round trip records.csv makes: what canonical_seconds must
/// equal bit for bit, and its path for the inputs integer rounding does not
/// cover.
double printed_seconds(std::int64_t us) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(us) / 1e6);
  double v = 0.0;
  std::from_chars(buf, buf + n, v);
  return v;
}

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

double canonical_seconds(std::int64_t us) {
  // Below 2^52 us (~143 years) the double us / 1e6 is within half an ulp
  // (< 1 us) of the exact value, so %.3f rounds it as the integers round:
  // to the nearest millisecond. An exact .500 tie is left to printf, which
  // rounds the double it sees (half to even when the tie is exactly
  // representable, as 62,500 us is: "0.062"). ms / 1000.0 is one correctly
  // rounded division, the same double a correctly rounded parse of the
  // printed text makes.
  constexpr std::int64_t kIntegerLimitUs = std::int64_t{1} << 52;
  const std::int64_t residue = us % 1000;
  if (us < 0 || us >= kIntegerLimitUs || residue == 500) return printed_seconds(us);
  const std::int64_t ms = us / 1000 + (residue > 500 ? 1 : 0);
  return static_cast<double>(ms) / 1000.0;
}

void QueryExecutor::add_devices(std::span<const DeviceMeta> devices) {
  const std::size_t old_size = devices_.size();
  devices_.insert(devices_.end(), devices.begin(), devices.end());
  // The campaign adds shards in ascending id order, so the table usually
  // stays strictly increasing and this check is all the work done.
  const auto tail = devices_.begin() + static_cast<std::ptrdiff_t>(old_size ? old_size - 1 : 0);
  const auto not_increasing = [](const DeviceMeta& a, const DeviceMeta& b) { return a.id >= b.id; };
  if (std::adjacent_find(tail, devices_.end(), not_increasing) == devices_.end()) return;
  // Stable, so unique keeps the first entry added for a duplicated id.
  std::stable_sort(devices_.begin(), devices_.end(),
                   [](const DeviceMeta& a, const DeviceMeta& b) { return a.id < b.id; });
  devices_.erase(std::unique(devices_.begin(), devices_.end(),
                             [](const DeviceMeta& a, const DeviceMeta& b) { return a.id == b.id; }),
                 devices_.end());
}

const DeviceMeta* QueryExecutor::find_device(DeviceId id) const {
  if (devices_.empty()) return nullptr;
  // Dense ids (1..N in every campaign) sit at offset id - first.
  const DeviceId first = devices_.front().id;
  if (id >= first && id - first < devices_.size() && devices_[id - first].id == id) {
    return &devices_[id - first];
  }
  const auto it = std::lower_bound(devices_.begin(), devices_.end(), id,
                                   [](const DeviceMeta& m, DeviceId v) { return m.id < v; });
  return it != devices_.end() && it->id == id ? &*it : nullptr;
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

bool QueryExecutor::record_passes(const RecordBatch::RowView& row) const {
  const QueryFilter& f = spec_.filter;
  if (f.rat && row.rat != *f.rat) return false;
  if (f.level && row.level != *f.level) return false;
  if (f.bs && row.bs != *f.bs) return false;
  if (f.type && row.type != *f.type) return false;
  if (f.since_s || f.until_s) {
    const double at_s = canonical_seconds(row.at_us);
    if (f.since_s && at_s < *f.since_s) return false;
    if (f.until_s && at_s >= *f.until_s) return false;
  }
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
  const DeviceMeta* meta = find_device(row.device);
  if (meta == nullptr) {
    throw std::runtime_error(std::string("query: record of device ") +
                             std::to_string(row.device) + " has no device metadata");
  }
  if (!device_passes(*meta) || !record_passes(row)) return;
  const std::int64_t gid = group_id(*meta, row);
  switch (spec_.agg) {
    case AggKind::kPrevalenceFrequency: {
      PfGroup& group = pf_groups_[gid];
      ++group.failures;
      // Sorted and distinct; records of one device arrive together, so this
      // is almost always an append or nothing.
      std::vector<DeviceId>& ids = group.devices;
      if (ids.empty() || ids.back() < row.device) {
        ids.push_back(row.device);
      } else {
        const auto at = std::lower_bound(ids.begin(), ids.end(), row.device);
        if (*at != row.device) ids.insert(at, row.device);
      }
      break;
    }
    case AggKind::kTypeBreakdown: ++breakdown_[gid][index_of(row.type)]; break;
    case AggKind::kCdf: cdf_[gid].add(canonical_seconds(row.duration_us)); break;
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
        for (const auto& [gid, group] : pf_groups_) domain.push_back(gid);
      }
      // Prevalence denominators. Device-keyed groups count eligible devices
      // per group value; record-keyed groups share one denominator (every
      // eligible device could have produced a matching record).
      std::map<std::int64_t, std::uint64_t> device_counts;
      std::uint64_t eligible = 0;
      for (const DeviceMeta& meta : devices_) {
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
        const auto git = pf_groups_.find(gid);
        if (git != pf_groups_.end()) {
          row.failing_devices = git->second.devices.size();
          row.failures = git->second.failures;
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

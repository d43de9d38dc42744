#include "workload/campaign.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <optional>
#include <utility>

#include "analysis/batch.h"
#include "analysis/csv_io.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "telephony/rat_policy.h"
#include "telephony/recovery.h"
#include "workload/calibration.h"
#include "workload/mobility.h"

namespace cellrel {

namespace {

/// Devices per shard task. A pure constant (never derived from the thread
/// count), so the partition — and with it the merge order and every
/// floating-point summation order — is identical whether shards run
/// on one thread or many. Small enough to load-balance the heavy-tailed
/// per-device cost (failing devices dominate), large enough that task
/// dispatch overhead is negligible.
constexpr std::size_t kDevicesPerShard = 64;

/// Accumulated overhead sums for one shard. Averages are computed once at
/// merge time from the merged sums; the old incremental (avg*n + x)/(n+1)
/// update was order-dependent and drifted at large fleets.
struct OverheadAccum {
  double cpu_sum = 0.0;
  double worst_cpu = 0.0;
  std::uint64_t peak_memory_sum = 0;
  std::uint64_t worst_peak_memory = 0;
  std::uint64_t storage_sum = 0;
  std::uint64_t worst_storage = 0;
  std::uint64_t cellular_sum = 0;
  std::uint64_t worst_cellular = 0;
  std::uint64_t wifi_upload_sum = 0;
  std::uint64_t monitored_devices = 0;

  void add_device(const OverheadAccountant& oh) {
    const double cpu = oh.cpu_utilization_during_failures();
    cpu_sum += cpu;
    worst_cpu = std::max(worst_cpu, cpu);
    peak_memory_sum += oh.peak_memory_bytes();
    worst_peak_memory = std::max(worst_peak_memory, oh.peak_memory_bytes());
    storage_sum += oh.storage_bytes();
    worst_storage = std::max(worst_storage, oh.storage_bytes());
    cellular_sum += oh.cellular_bytes();
    worst_cellular = std::max(worst_cellular, oh.cellular_bytes());
    wifi_upload_sum += oh.wifi_upload_bytes();
    ++monitored_devices;
  }

  void merge(const OverheadAccum& o) {
    cpu_sum += o.cpu_sum;
    worst_cpu = std::max(worst_cpu, o.worst_cpu);
    peak_memory_sum += o.peak_memory_sum;
    worst_peak_memory = std::max(worst_peak_memory, o.worst_peak_memory);
    storage_sum += o.storage_sum;
    worst_storage = std::max(worst_storage, o.worst_storage);
    cellular_sum += o.cellular_sum;
    worst_cellular = std::max(worst_cellular, o.worst_cellular);
    wifi_upload_sum += o.wifi_upload_sum;
    monitored_devices += o.monitored_devices;
  }

  OverheadSummary finalize() const {
    OverheadSummary s;
    s.monitored_devices = monitored_devices;
    s.worst_cpu_utilization = worst_cpu;
    s.worst_peak_memory_bytes = worst_peak_memory;
    s.worst_storage_bytes = worst_storage;
    s.worst_cellular_bytes = worst_cellular;
    if (monitored_devices == 0) return s;
    s.avg_cpu_utilization = cpu_sum / static_cast<double>(monitored_devices);
    s.avg_peak_memory_bytes = peak_memory_sum / monitored_devices;
    s.avg_storage_bytes = storage_sum / monitored_devices;
    s.avg_cellular_bytes = cellular_sum / monitored_devices;
    s.avg_wifi_upload_bytes = wifi_upload_sum / monitored_devices;
    return s;
  }
};

/// Capacity of one shard's RecordBatches: a pure function of the
/// calibration-expected record count for the shard's devices (never of the
/// thread count or of runtime state), so the batch boundaries — and the
/// dataplane.* counters derived from them — are deterministic. Sized so a
/// typical shard seals a handful of batches; clamped to keep the per-batch
/// footprint sane at both extremes.
std::size_t batch_capacity_for(double expected_shard_records) {
  const std::size_t want = static_cast<std::size_t>(expected_shard_records / 8.0) + 1;
  return std::clamp<std::size_t>(want, 256, 4096);
}

/// Everything one shard of devices produces. Exactly one worker writes to a
/// given ShardResult; the campaign merges them in shard-index order after
/// the join.
///
/// Records flow through fixed-capacity columnar RecordBatches: emit() fills
/// `current`, sealed batches are either retained in `batches` (in-memory
/// modes) or written to the shard's spill file and `current` cleared in
/// place for the next one (streaming + spill: one resident batch per shard).
/// Transitions/dwells always fold into order-independent count tables; the
/// per-sample rows are kept too only when a dataset export or the
/// materialized dataset needs them (write_dataset_csv and the streaming
/// export write them).
struct ShardResult {
  // --- Record data plane ---
  StringPool apns;
  std::vector<RecordBatch> batches;
  RecordBatch current;
  std::unique_ptr<BatchSpillWriter> spill;
  std::size_t batch_capacity = 0;
  bool keep_samples = false;

  // --- Fleet metadata & side tables ---
  std::vector<DeviceMeta> devices;
  ConnectedTimeTable connected_time;
  TransitionDwellCounts td_counts;
  std::vector<TransitionRecord> transitions;  // keep_samples only
  std::vector<DwellRecord> dwells;            // keep_samples only

  std::vector<RecoveryEpisode> recovery_episodes;
  OverheadAccum overhead;
  /// Every device of the shard writes its metrics here; merged in
  /// shard-index order after the join.
  obs::MetricSink metrics;
  /// Ground-truth BS failure delta: one entry per kept failure. Applied to
  /// the registry at merge time instead of mutating shared counters from
  /// device code.
  std::vector<BsIndex> bs_failures;
  std::uint64_t simulated_events = 0;
  std::uint64_t episodes_run = 0;

  // --- Data-plane accounting ---
  std::uint64_t records_batched = 0;
  std::uint64_t batches_sealed = 0;
  std::uint64_t peak_batch_bytes = 0;  // column bytes resident at seal()
  std::uint64_t spilled_bytes = 0;

  /// Appends one record to the current batch, sealing it when full.
  void emit(const TraceRecord& r) {
    if (current.capacity() == 0) current.reserve(batch_capacity);
    current.push(r, apns);
    ++records_batched;
    if (current.full()) seal_current();
  }

  /// Seals the in-flight batch: spill-and-clear or retain.
  void seal_current() {
    if (current.empty()) return;
    ++batches_sealed;
    if (spill) {
      spill->write(current, apns);
      current.clear();  // the buffers carry the next batch
    } else {
      batches.push_back(std::move(current));
      current = RecordBatch{};
    }
  }

  /// End-of-shard: flushes the partial batch, closes the spill file, and
  /// publishes the deterministic dataplane counters into the shard sink.
  /// Batches only ever grow to their fixed capacity, so the resident bytes
  /// here (every retained batch, or the one spill buffer) are the shard's
  /// high-water mark.
  void seal() {
    seal_current();
    peak_batch_bytes = current.resident_bytes();
    for (const RecordBatch& b : batches) peak_batch_bytes += b.resident_bytes();
    current = RecordBatch{};
    if (spill) {
      spilled_bytes = spill->bytes_written();
      spill->close();
      spill.reset();
    }
    metrics.counter("dataplane.records_batched").add(records_batched);
    metrics.counter("dataplane.batches").add(batches_sealed);
  }
};

template <typename T>
void move_append(std::vector<T>& into, std::vector<T>&& from) {
  into.insert(into.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  from.clear();
}

/// Post-merge BS landscape snapshot (counters included).
std::vector<BsMeta> snapshot_base_stations(const BsRegistry& registry) {
  std::vector<BsMeta> out;
  out.reserve(registry.size());
  for (const BaseStation& bs : registry.all()) {
    BsMeta meta;
    meta.index = bs.index();
    meta.isp = bs.isp();
    meta.rat_mask = bs.rat_mask();
    meta.location = bs.location();
    meta.failure_count = bs.failure_count();
    out.push_back(meta);
  }
  return out;
}

/// Host-process accounting (differs across execution modes of the same
/// scenario by design — excluded from the default export).
void publish_process_gauges(CampaignResult& result, const std::vector<ShardResult>& shards) {
  std::uint64_t peak_batch = 0, spilled = 0;
  for (const ShardResult& s : shards) {
    peak_batch += s.peak_batch_bytes;
    spilled += s.spilled_bytes;
  }
  result.metrics.gauge("process.dataplane.peak_batch_bytes")
      .set(static_cast<double>(peak_batch));
  result.metrics.gauge("process.dataplane.spilled_bytes").set(static_cast<double>(spilled));
}

/// Order-canonical reduction of the shard results. Runs single-threaded
/// after the join, in shard-index order: shards hold contiguous device
/// ranges in fleet order, so the consumption order (shard index, then
/// emission order within the shard) equals the sequential record order and
/// every concatenation and floating-point sum is bit-identical to the
/// threads=1 run.
///
/// One pass folds every batch — in memory, or re-read from the shard's spill
/// file one buffer at a time — into the Aggregator (`result.stream`), the
/// inline query executors, the BS-health tracker (`health`, non-null when
/// Scenario::detect is set) and the optional CSV export (Scenario::out_dir,
/// either mode). In materialized mode (no --stream) the same pass also
/// expands the batches into `result.dataset`, with an EXACT reserve taken
/// from the batch manifest.
CampaignResult merge_shard_results(BsRegistry& registry, std::vector<ShardResult>&& shards,
                                   const Scenario& scenario, detect::HealthTracker* health) {
  const bool materialize = !scenario.stream;
  const std::filesystem::path spill_dir = scenario.spill_dir;
  CampaignResult result;
  result.stream = std::make_unique<Aggregator>();
  Aggregator& agg = *result.stream;

  // The shards keep per-session transition/dwell samples only for the
  // materialized dataset or the export; they land in the dataset or, in a
  // streaming run, in these export buffers.
  std::vector<TransitionRecord> export_transitions;
  std::vector<DwellRecord> export_dwells;
  std::vector<TransitionRecord>& transitions =
      materialize ? result.dataset.transitions : export_transitions;
  std::vector<DwellRecord>& dwells = materialize ? result.dataset.dwells : export_dwells;

  std::size_t episodes = 0, transition_count = 0, dwell_count = 0;
  for (const ShardResult& s : shards) {
    episodes += s.recovery_episodes.size();
    transition_count += s.transitions.size();
    dwell_count += s.dwells.size();
  }
  result.recovery_episodes.reserve(episodes);
  transitions.reserve(transition_count);
  dwells.reserve(dwell_count);
  if (materialize) {
    std::size_t records = 0;
    for (const ShardResult& s : shards) records += s.records_batched;
    result.dataset.records.reserve(records);
  }

  std::vector<query::QueryExecutor> executors;
  executors.reserve(scenario.inline_queries.size());
  for (const query::QuerySpec& spec : scenario.inline_queries) executors.emplace_back(spec);

  // Dataset export (--out): each batch is expanded row by row through the
  // shard's MaterializeContext and appended to records.csv as it is
  // consumed. The record order is the materialized dataset's, so every file
  // is byte-identical to write_dataset_csv()'s, in either mode.
  std::optional<DatasetCsvWriter> export_csv;
  if (!scenario.out_dir.empty()) export_csv.emplace(scenario.out_dir);
  const auto resolve_cell = [&registry](BsIndex bs) { return registry.at(bs).identity(); };

  OverheadAccum overhead;
  std::size_t shard_index = 0;
  for (ShardResult& s : shards) {
    agg.add_devices(std::span<const DeviceMeta>(s.devices));
    for (query::QueryExecutor& ex : executors) {
      ex.add_devices(std::span<const DeviceMeta>(s.devices));
    }
    MaterializeContext ctx;
    ctx.devices = std::span<const DeviceMeta>(s.devices);
    ctx.resolve_cell = resolve_cell;
    const auto fold = [&](const RecordBatch& b) {
      agg.consume(b);
      for (query::QueryExecutor& ex : executors) ex.consume(b);
      if (health) health->consume(b);
      if (export_csv) export_csv->append(b, ctx);
      if (materialize) b.materialize_into(result.dataset.records, ctx);
    };
    if (!spill_dir.empty()) {
      StringPool reload_apns;  // ids are shard-local; only the CSV export reads them
      ctx.apns = &reload_apns;
      read_spill_batches(spill_dir / spill_shard_file(shard_index), s.batch_capacity,
                         reload_apns, fold);
    } else {
      ctx.apns = &s.apns;
      for (RecordBatch& b : s.batches) {
        fold(b);
        b = RecordBatch{};  // free column buffers as we go
      }
      s.batches.clear();
    }
    agg.add_connected_time(s.connected_time);
    agg.add_counts(s.td_counts);
    for (query::QueryExecutor& ex : executors) ex.add_counts(s.td_counts);
    move_append(transitions, std::move(s.transitions));
    move_append(dwells, std::move(s.dwells));

    move_append(result.recovery_episodes, std::move(s.recovery_episodes));
    overhead.merge(s.overhead);
    result.metrics.merge(s.metrics);
    result.simulated_events += s.simulated_events;
    result.episodes_run += s.episodes_run;
    registry.apply_failure_delta(s.bs_failures);
    ++shard_index;
  }
  result.overhead = overhead.finalize();

  CELLREL_DCHECK(std::is_sorted(agg.devices().begin(), agg.devices().end(),
                                [](const DeviceMeta& a, const DeviceMeta& b) {
                                  return a.id < b.id;
                                }))
      << "shard merge must preserve device-id order";

  agg.set_base_stations(snapshot_base_stations(registry));
  if (materialize) {
    result.dataset.devices = agg.devices();
    result.dataset.base_stations = agg.base_stations();
    result.dataset.connected_time = agg.connected_time();
  }
  result.query_results.reserve(executors.size());
  for (const query::QueryExecutor& ex : executors) {
    result.query_results.push_back(ex.result());
  }
  if (export_csv) {
    export_csv->close(agg.devices(), agg.base_stations(), agg.connected_time(), transitions,
                      dwells);
  }
  publish_process_gauges(result, shards);
  return result;
}

/// Kinds of failure episodes a session can trigger.
enum class EpisodeKind : std::uint8_t {
  kTrueSetup,
  kOverloadFp,
  kVoiceCallFp,
  kManualDisconnectFp,
  kBalanceFp,
  kTrueStall,
  kSystemStallFp,
  kDnsStallFp,
  kOutOfService,
  kLegacySms,
  kLegacyVoice,
};

/// One planned session of device activity.
struct Session {
  SimTime at;
  double dwell_s = 0.0;
  BsIndex bs = kInvalidBs;
  CellCandidate stock;   // cell the stock policy picks
  CellCandidate active;  // cell the scenario's policy picks
  bool transitioned_stock = false;
  bool transitioned_active = false;
  CellCandidate prev_active{};  // valid when transitioned_active
  double hazard_stock = 0.0;
  double hazard_active = 0.0;
  // --- Scenario pack (DESIGN.md §13); all false in pack-free scenarios ---
  bool from_waypoint = false;  // arrival session planted by a mobility leg
  bool forced_oos = false;     // regional outage, no roaming: no service
  bool degraded = false;       // attached to a degraded-cluster BS in-window
};

/// Share of a 4G<->5G transition's hazard kept under EN-DC dual connectivity (§4.2).
constexpr double kDisruptionFactor = 0.45;

double context_hazard(const Calibration& cal, const BaseStation& bs, const CellCandidate& cell,
                      bool transitioned, const CellCandidate& prev, double dualconn_mult) {
  const RatLevelRiskTable& risk = default_risk_table();
  double h = cal.hazard_level_weight * risk.at(cell.rat, cell.level);
  h += cal.hazard_bs_weight * std::clamp(bs.hazard_multiplier() - 1.0, 0.0, 5.0);
  h += cal.hazard_emm_weight * bs.emm_barring_prob();
  if (bs.in_disrepair()) h += cal.hazard_disrepair_bonus;
  if (cell.rat == Rat::k5G && index_of(cell.level) <= 1) h += cal.hazard_weak_5g_bonus;
  h *= cal.hazard_rat_utilization[index_of(cell.rat)];
  if (transitioned) {
    const double increase =
        std::max(0.0, risk.at(cell.rat, cell.level) - risk.at(prev.rat, prev.level));
    h += dualconn_mult *
         (cal.hazard_transition_weight * increase + cal.hazard_transition_flat);
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// DeviceRun: simulates one device for the whole campaign.
// ---------------------------------------------------------------------------

class Campaign::DeviceRun final : public FailureEventListener {
 public:
  DeviceRun(const Scenario& scenario, const BsRegistry& registry,
            const DeviceProfile& profile, Rng rng, ShardResult& out)
      : scenario_(scenario),
        cal_(default_calibration()),
        registry_(registry),
        profile_(profile),
        rng_(rng),
        out_(out) {}

  void execute();

  // FailureEventListener (campaign-side: ground-truth bookkeeping and
  // stall life-cycle driving).
  void on_failure_event(const FailureEvent& event) override;
  void on_failure_cleared(FailureType type, SimTime at) override;

 private:
  struct StallState {
    EpisodeKind kind = EpisodeKind::kTrueStall;
    /// Per-execution multiplier on stage effectiveness: 1 = easy, small =
    /// hard (recovery-limited), 0 = unrecoverable (BS-side outage).
    double hardness_factor = 1.0;
    bool detected = false;
    bool open = false;
  };

  void plan_sessions();
  void account_session(const Session& s, bool failure_occurred);
  void publish_scenario_counters();
  void build_stack();

  // Episode runners (failing devices only; stack exists).
  void run_episode(const Session& s, EpisodeKind kind);
  void run_setup_episode(const Session& s, EpisodeKind kind);
  void run_stall_episode(const Session& s, EpisodeKind kind);
  void run_oos_episode(const Session& s);
  void prepare_cell(const Session& s, double base_failure_prob, double overload_override);
  bool ensure_active(const Session& s);
  /// Steps the simulator until `done()` holds, the queue drains or
  /// `max_steps` events have fired; adds the steps to simulated_events.
  template <typename Done>
  void drive_until(const Done& done, std::uint64_t max_steps = 4'000'000);
  void schedule_traffic();
  bool stage_fix(RecoveryStage stage);
  void clear_fault();
  void teardown_quietly();

  EpisodeKind pick_kind(const Session& s);

  const Scenario& scenario_;
  const Calibration& cal_;
  const BsRegistry& registry_;  // read-only during the run: shard safety
  const DeviceProfile& profile_;
  Rng rng_;
  ShardResult& out_;

  // Lazily built per failing device.
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<AndroidMod> mod_;
  DeviceObservables observables_;
  std::vector<Session> sessions_;
  /// Target failure episodes over the campaign (plan_sessions; 1 for a
  /// failure-free device, which never reads it).
  double target_episodes_ = 1.0;
  bool failure_free_ = true;
  bool oos_prone_ = false;

  StallState stall_;
  ScheduledEvent auto_clear_;
  ScheduledEvent user_reset_;
  bool traffic_running_ = false;

  // Scenario-pack accounting (DESIGN.md §13), published per shard sink only
  // when the owning feature is enabled so pack-free exports stay byte-stable.
  std::uint64_t waypoints_ = 0;
  std::uint64_t handover_sessions_ = 0;
  std::uint64_t outage_sessions_ = 0;
  std::uint64_t roamed_sessions_ = 0;
  std::uint64_t forced_oos_sessions_ = 0;
  std::uint64_t degraded_sessions_ = 0;
  std::uint64_t faults_injected_ = 0;
};

void Campaign::DeviceRun::plan_sessions() {
  // Target failure-event count for this device over the campaign.
  const double freq = profile_.model->paper_frequency *
                      cal_.isp_frequency_factor[index_of(profile_.isp)];
  const double raw = freq * profile_.susceptibility / cal_.susceptibility_mean;
  const auto target_events =
      failure_free_ ? 0.0 : std::clamp(raw, 1.0, 3000.0);
  // Setup episodes carry ~2 events (retries), stalls and OOS one each.
  target_episodes_ = std::max(1.0, target_events / 1.32);
  const int session_count = std::max(
      cal_.min_sessions, static_cast<int>(target_episodes_ * cal_.sessions_per_episode));

  const SimDuration window = SimDuration::days(scenario_.campaign_days);

  // Scenario pack (DESIGN.md §13). Every pack feature is gated so that a
  // pack-free scenario draws the exact historical rng sequence: the mobility
  // trace is drawn only when enabled, and the incident branches consume no
  // randomness unless a session is actually affected.
  const MobilityConfig& mobility = scenario_.mobility;
  const IncidentConfig& incident = scenario_.incident;
  std::vector<Waypoint> waypoints;
  if (mobility.enabled) {
    waypoints =
        build_waypoint_trace(mobility, profile_.mobility, scenario_.campaign_days, rng_);
    waypoints_ = waypoints.size();
  }
  const bool outage_on =
      incident.outage_enabled() && profile_.isp == incident.outage_isp;
  const bool degradation_on = incident.degradation_enabled();
  const std::size_t bs_count = registry_.size();
  // Surviving ISPs for the national-roaming fallback (exactly two of three).
  std::array<IspId, 2> roam_targets = {IspId::kIspA, IspId::kIspB};
  if (outage_on && incident.national_roaming) {
    std::size_t n = 0;
    for (const IspId isp : kAllIsps) {
      if (isp != incident.outage_isp) roam_targets[n++] = isp;
    }
  }

  sessions_.clear();
  sessions_.reserve(static_cast<std::size_t>(session_count) + waypoints.size());

  const bool device_5g = profile_.model->has_5g;
  const bool stability =
      scenario_.policy == PolicyVariant::kStabilityCompatible && device_5g;
  const RatSelectionPolicy& stock_policy =
      policy_for_android(static_cast<int>(profile_.model->android));
  const StabilityCompatiblePolicy stability_policy;
  const bool dual_connectivity = stability && scenario_.dual_connectivity;

  std::optional<CellCandidate> prev_stock;
  std::optional<CellCandidate> prev_active;

  // Plans one session slot: the per-slot draw chain (dwell, location unless a
  // waypoint pins it, serving BS, candidates, policy choices, hazards) in the
  // exact order of the historical loop body. Waypoint and base slots share
  // the prev_stock/prev_active chain, so a leg's arrival session transitions
  // against whatever cell the device last held.
  const auto plan_slot = [&](SimTime at, std::optional<LocationClass> pinned,
                             bool from_waypoint) {
    Session s;
    s.at = at;
    s.from_waypoint = from_waypoint;
    s.dwell_s = rng_.exponential(cal_.session_dwell_mean_s);
    const LocationClass loc = pinned ? *pinned : profile_.mobility.sample(rng_);
    s.bs = registry_.pick_bs(profile_.isp, loc, rng_);
    if (outage_on &&
        in_incident_window(incident.outage_start_day, incident.outage_days, at) &&
        in_outage_region(s.bs, incident.outage_region_fraction)) {
      ++outage_sessions_;
      if (incident.national_roaming) {
        // Re-attach through a surviving ISP's deployment at the same place.
        const IspId fallback = roam_targets[static_cast<std::size_t>(rng_.uniform_int(0, 1))];
        s.bs = registry_.pick_bs(fallback, loc, rng_);
        ++roamed_sessions_;
      } else {
        s.forced_oos = true;
        ++forced_oos_sessions_;
      }
    }
    const auto candidates = registry_.enumerate_candidates(s.bs, device_5g, rng_);
    if (candidates.empty()) return;

    const auto stock_choice = stock_policy.choose(candidates, prev_stock);
    const auto active_choice = stability
                                   ? stability_policy.choose(candidates, prev_active)
                                   : stock_choice;
    s.stock = stock_choice.value_or(candidates.front());
    s.active = active_choice.value_or(candidates.front());

    s.transitioned_stock = prev_stock && prev_stock->rat != s.stock.rat;
    s.transitioned_active = prev_active && prev_active->rat != s.active.rat;
    if (s.transitioned_active) s.prev_active = *prev_active;

    const BaseStation& bs_stock = registry_.at(s.stock.bs);
    const BaseStation& bs_active = registry_.at(s.active.bs);
    const CellCandidate prev_s = prev_stock.value_or(s.stock);
    const CellCandidate prev_a = prev_active.value_or(s.active);
    // Dual connectivity softens the transition term on the active path:
    // the prepared secondary leg makes 4G<->5G switches less disruptive.
    const double dc_mult = s.transitioned_active && dual_connectivity &&
                                   (s.active.rat == Rat::k5G || prev_a.rat == Rat::k5G)
                               ? kDisruptionFactor
                               : 1.0;
    s.hazard_stock =
        context_hazard(cal_, bs_stock, s.stock, s.transitioned_stock, prev_s, 1.0);
    // Without the stability policy the active path is the stock path (same
    // cell, same prev chain, no EN-DC factor): the same hazard, bit for bit.
    s.hazard_active = stability ? context_hazard(cal_, bs_active, s.active,
                                                 s.transitioned_active, prev_a, dc_mult)
                                : s.hazard_stock;

    if (degradation_on &&
        in_incident_window(incident.degradation_start_day, incident.degradation_days,
                           at) &&
        in_degraded_cluster(incident, bs_count, s.active.bs)) {
      s.degraded = true;
      ++degraded_sessions_;
    }
    if (from_waypoint && s.transitioned_active) ++handover_sessions_;

    prev_stock = s.stock;
    prev_active = s.active;
    sessions_.push_back(s);
  };

  // Base sessions spread across the window; waypoint arrival sessions merge
  // in time order (the first waypoint is pinned to the origin, so the
  // device's location is always defined before its first base session).
  LocationClass current_loc = LocationClass::kUrban;
  std::size_t next_wp = 0;
  for (int i = 0; i < session_count; ++i) {
    // Uniform jittered spread across the window keeps sessions ordered and
    // deterministic.
    const double frac = (static_cast<double>(i) + rng_.uniform(0.1, 0.9)) /
                        static_cast<double>(session_count);
    const SimTime at = SimTime::origin() + window * frac;
    while (next_wp < waypoints.size() && waypoints[next_wp].at <= at) {
      current_loc = waypoints[next_wp].loc;
      plan_slot(waypoints[next_wp].at, current_loc, true);
      ++next_wp;
    }
    plan_slot(at,
              mobility.enabled ? std::optional<LocationClass>(current_loc) : std::nullopt,
              false);
  }
  while (next_wp < waypoints.size()) {
    current_loc = waypoints[next_wp].loc;
    plan_slot(waypoints[next_wp].at, current_loc, true);
    ++next_wp;
  }
}

void Campaign::DeviceRun::account_session(const Session& s, bool failure_occurred) {
  out_.connected_time.add(s.active.rat, s.active.level, s.dwell_s);
  if (s.transitioned_active) {
    TransitionRecord t;
    t.device = profile_.id;
    t.from_rat = s.prev_active.rat;
    t.from_level = s.prev_active.level;
    t.to_rat = s.active.rat;
    t.to_level = s.active.level;
    t.failure_within_window = failure_occurred;
    // The sample folds straight into the count tables the transition
    // matrices consume (integer sums: order-independent, so shard-local
    // accumulation preserves bit-identity).
    out_.td_counts.add(t);
    if (out_.keep_samples) out_.transitions.push_back(t);
  } else {
    DwellRecord d;
    d.device = profile_.id;
    d.rat = s.active.rat;
    d.level = s.active.level;
    d.failure_within_window = failure_occurred;
    out_.td_counts.add(d);
    if (out_.keep_samples) out_.dwells.push_back(d);
  }
}

void Campaign::DeviceRun::build_stack() {
  sim_ = std::make_unique<Simulator>();
  AndroidMod::Config config;
  config.telephony.recovery_schedule = scenario_.recovery == RecoveryVariant::kTimpOptimized
                                           ? timp_probation_schedule()
                                           : vanilla_probation_schedule();
  config.telephony.isp = profile_.isp;
  config.telephony.execute_recovery_stage = [this](RecoveryStage stage) {
    return stage_fix(stage);
  };
  config.telephony.on_recovery_episode = [this](const RecoveryEpisode& ep) {
    out_.recovery_episodes.push_back(ep);
  };
  config.monitor.use_probing = scenario_.monitor_probing;
  config.monitor.resolve_cell = [this](BsIndex bs) { return registry_.at(bs).identity(); };
  config.monitor.observables = [this] { return observables_; };
  config.identity = {profile_.id, profile_.model->model_id, profile_.isp};

  mod_ = std::make_unique<AndroidMod>(
      *sim_, rng_.fork(0xdeu), out_.metrics, std::move(config),
      [this](std::span<TraceRecord> batch) {
        for (const auto& r : batch) out_.emit(r);
      });
  mod_->telephony().register_failure_listener(this);
}

EpisodeKind Campaign::DeviceRun::pick_kind(const Session& s) {
  // Scheduled Android-layer fault (DESIGN.md §13): inside the window every
  // failing session exhibits the fault's probe signature. No draws consumed
  // — the schedule is fully deterministic.
  const IncidentConfig& incident = scenario_.incident;
  if (incident.fault_schedule_enabled() &&
      in_incident_window(incident.fault_start_day, incident.fault_days, s.at)) {
    if (incident.fault == NetworkFault::kDnsOutage) return EpisodeKind::kDnsStallFp;
    if (is_system_side(incident.fault)) return EpisodeKind::kSystemStallFp;
    return EpisodeKind::kTrueStall;  // kNetworkStall
  }
  Rng& rng = rng_;
  const BaseStation& bs = registry_.at(s.active.bs);
  // Transition-dominated sessions mostly fail during/just after the switch.
  const double transition_part =
      s.hazard_active > 0.0
          ? (s.transitioned_active ? 1.0 - context_hazard(cal_, bs, s.active, false,
                                                          s.active, 1.0) / s.hazard_active
                                   : 0.0)
          : 0.0;
  if (transition_part > 0.5) {
    return rng.bernoulli(0.6) ? EpisodeKind::kTrueSetup : EpisodeKind::kTrueStall;
  }
  if (bs.in_disrepair()) {
    return rng.bernoulli(0.35) && oos_prone_ ? EpisodeKind::kOutOfService
                                             : EpisodeKind::kTrueStall;
  }
  // Baseline mix. Setup episodes average ~2 events, so the episode weights
  // (8 / 14 / 3) yield the paper's 16 / 14 / 3 event mix.
  const double oos_w = oos_prone_ ? 14.0 : 0.0;
  const std::array<double, 3> w = {8.0, 14.0, oos_w};
  switch (rng.discrete(w)) {
    case 0: return EpisodeKind::kTrueSetup;
    case 1: {
      const double u = rng.next_double();
      if (u < cal_.stall_system_side_fraction) return EpisodeKind::kSystemStallFp;
      if (u < cal_.stall_system_side_fraction + cal_.stall_dns_only_fraction) {
        return EpisodeKind::kDnsStallFp;
      }
      return EpisodeKind::kTrueStall;
    }
    default: return EpisodeKind::kOutOfService;
  }
}

void Campaign::DeviceRun::prepare_cell(const Session& s, double base_failure_prob,
                                       double overload_override) {
  auto& tm = mod_->telephony();
  const BaseStation& bs = registry_.at(s.active.bs);
  ChannelConditions cond =
      bs.channel_conditions(s.active.rat, s.active.level, base_failure_prob);
  if (overload_override >= 0.0) cond.overload_rejection_prob = overload_override;
  // Setups right after an inter-RAT transition carry handover semantics:
  // their failures skew to the IRAT codes (§3.2 / Table 2).
  cond.in_handover = s.transitioned_active && base_failure_prob > 0.0;
  tm.ril().update_channel(cond);
  tm.set_cell_context({s.active.bs, s.active.rat, s.active.level});
}

template <typename Done>
void Campaign::DeviceRun::drive_until(const Done& done, std::uint64_t max_steps) {
  std::uint64_t steps = 0;
  while (!done() && steps < max_steps) {
    if (!sim_->step()) break;
    ++steps;
  }
  out_.simulated_events += steps;
}

bool Campaign::DeviceRun::ensure_active(const Session& s) {
  auto& tm = mod_->telephony();
  if (tm.dc_tracker().connection().is_active()) return true;
  prepare_cell(s, 0.0, 0.0);
  tm.dc_tracker().request_data();
  drive_until([&] { return tm.dc_tracker().connection().is_active(); }, 50'000);
  return tm.dc_tracker().connection().is_active();
}

void Campaign::DeviceRun::teardown_quietly() {
  auto& tm = mod_->telephony();
  tm.dc_tracker().teardown(false);
  tm.stall_detector().stop();
  traffic_running_ = false;
}

void Campaign::DeviceRun::schedule_traffic() {
  if (!traffic_running_) return;
  auto& tm = mod_->telephony();
  const SimTime now = sim_->now();
  tm.tcp().on_segment_sent(now);
  // Inbound traffic flows only while the data path works end-to-end.
  const NetworkFault f = tm.network().fault();
  if (f == NetworkFault::kNone) tm.tcp().on_segment_received(now);
  sim_->schedule_after(SimDuration::seconds(2.5), [this] { schedule_traffic(); });
}

bool Campaign::DeviceRun::stage_fix(RecoveryStage stage) {
  auto& tm = mod_->telephony();
  // Execute the real operation through the RIL for latency realism. Nothing waits
  // on the reply, but its event counts in sim.events and the drive_until budgets.
  ModemResult reply;
  switch (stage) {
    case RecoveryStage::kCleanupConnection:
      reply = tm.ril().deactivate_data_call();
      break;
    case RecoveryStage::kReregister:
      reply = tm.ril().reregister();
      break;
    case RecoveryStage::kRestartRadio:
      reply = tm.ril().restart_radio();
      break;
  }
  sim_->schedule_after(reply.latency, [] {});
  if (!stall_.open) return false;
  const NetworkFault f = tm.network().fault();
  if (f == NetworkFault::kNone) return true;  // already fixed
  if (stall_.kind == EpisodeKind::kTrueStall) {
    const double e = stall_.hardness_factor *
                     cal_.stage_effectiveness[static_cast<std::size_t>(stage)];
    if (rng_.bernoulli(e)) {
      clear_fault();
      return true;
    }
    return false;
  }
  if (stall_.kind == EpisodeKind::kSystemStallFp &&
      f == NetworkFault::kModemDriverWedged && stage == RecoveryStage::kRestartRadio) {
    // Power-cycling the radio un-wedges the driver most of the time.
    if (rng_.bernoulli(0.7)) {
      clear_fault();
      return true;
    }
  }
  return false;
}

void Campaign::DeviceRun::clear_fault() {
  mod_->telephony().network().inject_fault(NetworkFault::kNone);
  auto_clear_.cancel();
  user_reset_.cancel();
}

void Campaign::DeviceRun::on_failure_event(const FailureEvent& event) {
  // Ground-truth BS failure delta (kept failures only, as the backend
  // counts them after filtering). Recorded per shard and applied to the
  // registry after the join; device code never writes shared counters.
  if (!is_false_positive(event.ground_truth_fp) && event.bs != kInvalidBs) {
    out_.bs_failures.push_back(event.bs);
  }
  if (event.type != FailureType::kDataStall || !stall_.open || stall_.detected) return;
  stall_.detected = true;
  // Schedule the episode's autonomous resolution, sampled from the
  // calibrated post-detection auto-recovery curve.
  double auto_clear_s;
  if (stall_.kind == EpisodeKind::kTrueStall) {
    if (stall_.hardness_factor >= 1.0) {
      auto_clear_s = cal_.stall_auto_recovery_cdf.sample(rng_);
    } else if (stall_.hardness_factor > 0.0) {
      // Hard stalls: the recovery loop usually wins before the network does.
      auto_clear_s = std::min(cal_.max_failure_duration_s,
                              rng_.lognormal(cal_.stall_hard_mu, cal_.stall_hard_sigma));
    } else {
      // BS-side outage: heals only when the network does.
      auto_clear_s = std::min(
          cal_.max_failure_duration_s,
          rng_.lognormal(cal_.stall_unrecoverable_mu, cal_.stall_unrecoverable_sigma));
    }
  } else {
    // Device-side problems persist for minutes unless recovery intervenes.
    auto_clear_s = rng_.exponential(150.0);
  }
  auto_clear_ = sim_->schedule_after(SimDuration::seconds(auto_clear_s), [this] {
    if (mod_->telephony().network().fault() != NetworkFault::kNone) clear_fault();
  });
  // The victim user manually resets the connection after ~30 s (§3.2).
  if (stall_.kind == EpisodeKind::kTrueStall && rng_.bernoulli(cal_.user_reset_probability)) {
    const double t =
        std::max(5.0, rng_.normal(cal_.user_reset_mean_s, cal_.user_reset_stddev_s));
    const bool works = stall_.hardness_factor >= 1.0 && rng_.bernoulli(cal_.user_reset_success);
    user_reset_ = sim_->schedule_after(SimDuration::seconds(t), [this, works] {
      if (mod_->telephony().network().fault() == NetworkFault::kNone) return;
      if (works) {
        mod_->telephony().recoverer().on_user_reset();
        clear_fault();
      }
    });
  }
}

void Campaign::DeviceRun::on_failure_cleared(FailureType type, SimTime /*at*/) {
  if (type == FailureType::kDataStall && stall_.open) stall_.open = false;
}

void Campaign::DeviceRun::run_setup_episode(const Session& s, EpisodeKind kind) {
  auto& tm = mod_->telephony();
  auto& tracker = tm.dc_tracker();
  const std::uint64_t failures_before = tracker.setup_failures();
  std::uint64_t want_failures =
      1 + rng_.geometric(cal_.setup_retries_geometric_p);
  want_failures = std::min<std::uint64_t>(want_failures, 6);

  switch (kind) {
    case EpisodeKind::kTrueSetup:
      prepare_cell(s, 1.0, 0.0);
      break;
    case EpisodeKind::kOverloadFp:
      prepare_cell(s, 0.0, 1.0);
      break;
    case EpisodeKind::kBalanceFp:
      prepare_cell(s, 0.0, 0.0);
      observables_.account_suspended_notice = true;
      tracker.suspend_for_balance();
      break;
    default:
      prepare_cell(s, 1.0, 0.0);
      break;
  }
  tracker.request_data();
  drive_until([&] { return tracker.setup_failures() >= failures_before + want_failures; },
              200'000);
  // Clear the failure condition; the pending retry then succeeds and the
  // monitor closes the episode.
  if (kind == EpisodeKind::kBalanceFp) {
    tracker.restore_service_account();
    observables_.account_suspended_notice = false;
  }
  prepare_cell(s, 0.0, 0.0);
  drive_until([&] { return tracker.connection().is_active(); }, 100'000);
  teardown_quietly();
}

void Campaign::DeviceRun::run_stall_episode(const Session& s, EpisodeKind kind) {
  auto& tm = mod_->telephony();
  if (!ensure_active(s)) return;
  stall_ = StallState{};
  stall_.kind = kind;
  stall_.open = true;
  if (kind == EpisodeKind::kTrueStall) {
    const double u = rng_.next_double();
    if (u < cal_.stall_unrecoverable_fraction) {
      stall_.hardness_factor = 0.0;
    } else if (u < cal_.stall_unrecoverable_fraction + cal_.stall_hard_fraction) {
      stall_.hardness_factor = rng_.uniform(cal_.stall_hard_factor_lo, cal_.stall_hard_factor_hi);
    } else {
      stall_.hardness_factor = 1.0;
    }
  } else {
    stall_.hardness_factor = 0.0;
  }

  traffic_running_ = true;
  schedule_traffic();
  tm.stall_detector().start();

  const IncidentConfig& incident = scenario_.incident;
  const bool scheduled =
      incident.fault_schedule_enabled() &&
      in_incident_window(incident.fault_start_day, incident.fault_days, s.at);
  NetworkFault fault = NetworkFault::kNetworkStall;
  if (kind == EpisodeKind::kSystemStallFp) {
    if (scheduled && is_system_side(incident.fault)) {
      // The schedule pins the exact system-side fault instead of sampling one.
      fault = incident.fault;
    } else {
      const std::array<NetworkFault, 3> kSystem = {NetworkFault::kFirewallMisconfig,
                                                   NetworkFault::kProxyBroken,
                                                   NetworkFault::kModemDriverWedged};
      fault = kSystem[static_cast<std::size_t>(rng_.uniform_int(0, 2))];
    }
  } else if (kind == EpisodeKind::kDnsStallFp) {
    fault = NetworkFault::kDnsOutage;
  }
  if (scheduled && fault == incident.fault) ++faults_injected_;
  tm.network().inject_fault(fault);

  // Run until the detector withdraws the stall (fault cleared + traffic
  // flowing), then drain the prober/monitor tail.
  drive_until([&] { return !stall_.open; });
  const SimTime drain_until = sim_->now() + SimDuration::seconds(30.0);
  drive_until([&] { return sim_->now() >= drain_until; }, 100'000);
  teardown_quietly();
  auto_clear_.cancel();
  user_reset_.cancel();
  stall_ = StallState{};
}

void Campaign::DeviceRun::run_oos_episode(const Session& s) {
  auto& tm = mod_->telephony();
  prepare_cell(s, 0.0, 0.0);
  double duration_s = rng_.lognormal(cal_.oos_duration_mu, cal_.oos_duration_sigma);
  if (registry_.at(s.active.bs).in_disrepair()) {
    duration_s *= cal_.oos_disrepair_multiplier;  // neglected sites
  }
  duration_s = std::min(duration_s, cal_.max_failure_duration_s);
  tm.enter_out_of_service();
  sim_->schedule_after(SimDuration::seconds(duration_s),
                       [&tm] { tm.exit_out_of_service(); });
  drive_until([&] { return !tm.service_state().out_of_service(); }, 200'000);
}

void Campaign::DeviceRun::run_episode(const Session& s, EpisodeKind kind) {
  ++out_.episodes_run;
  switch (kind) {
    case EpisodeKind::kTrueSetup:
    case EpisodeKind::kOverloadFp:
    case EpisodeKind::kBalanceFp:
      run_setup_episode(s, kind);
      break;
    case EpisodeKind::kVoiceCallFp: {
      if (!ensure_active(s)) break;
      auto& voice = mod_->telephony().voice();
      observables_.in_voice_call = true;
      // The incoming call rings, is (usually) answered, and while offhook
      // the manager's hook drops the data connection — producing the false
      // positive the filter must remove.
      voice.incoming_call();
      const SimTime cap = sim_->now() + SimDuration::minutes(10.0);
      drive_until(
          [&] { return voice.state() == CallState::kIdle || sim_->now() >= cap; },
          100'000);
      observables_.in_voice_call = false;
      teardown_quietly();
      break;
    }
    case EpisodeKind::kManualDisconnectFp: {
      if (!ensure_active(s)) break;
      observables_.mobile_data_enabled = false;
      mod_->telephony().dc_tracker().teardown(true);
      observables_.mobile_data_enabled = true;
      break;
    }
    case EpisodeKind::kTrueStall:
    case EpisodeKind::kSystemStallFp:
    case EpisodeKind::kDnsStallFp:
      run_stall_episode(s, kind);
      break;
    case EpisodeKind::kOutOfService:
      run_oos_episode(s);
      break;
    case EpisodeKind::kLegacySms: {
      // A message sent on a failing channel exhausts its RIL retries and
      // surfaces as RIL_SMS_SEND_FAIL_RETRY (§3.1's legacy tail).
      prepare_cell(s, 1.0, 0.0);
      SmsService& sms = mod_->telephony().sms();
      sms.send();
      drive_until([&] { return sms.in_flight() == 0; }, 50'000);
      prepare_cell(s, 0.0, 0.0);
      break;
    }
    case EpisodeKind::kLegacyVoice:
      mod_->telephony().report_legacy_failure(FailureType::kVoiceCallDrop);
      break;
  }
}

void Campaign::DeviceRun::execute() {
  // Opt-in metadata for every device.
  DeviceMeta meta;
  meta.id = profile_.id;
  meta.model_id = profile_.model->model_id;
  meta.isp = profile_.isp;
  meta.has_5g = profile_.model->has_5g;
  meta.android = profile_.model->android;
  out_.devices.push_back(meta);

  // Susceptibility to failures: per-model prevalence scaled by the ISP's
  // coverage quality (§3.3).
  const double prevalence =
      std::clamp(profile_.model->paper_prevalence *
                     cal_.isp_prevalence_factor[index_of(profile_.isp)],
                 0.0, 1.0);
  failure_free_ = !rng_.bernoulli(prevalence);
  oos_prone_ = rng_.bernoulli(cal_.oos_prone_fraction);

  plan_sessions();

  if (failure_free_) {
    // Forced-OOS sessions (regional outage, no roaming) fail even for
    // otherwise failure-free devices: there is simply no service.
    for (const Session& s : sessions_) account_session(s, s.forced_oos);
    publish_scenario_counters();
    return;
  }

  build_stack();

  // Per-session failure probabilities, normalized against the STOCK policy
  // so policy improvements causally reduce realized failures.
  double hazard_sum = 0.0;
  for (const Session& s : sessions_) hazard_sum += s.hazard_stock;
  const double scale = hazard_sum > 0.0 ? target_episodes_ / hazard_sum : 0.0;

  for (const Session& s : sessions_) {
    if (sim_->now() < s.at) sim_->run_until(s.at);
    bool fail;
    if (s.forced_oos) {
      fail = true;  // outage without roaming: no service, deterministically
    } else {
      const double boost = s.degraded ? scenario_.incident.degradation_severity : 1.0;
      const double p =
          std::min(cal_.session_failure_cap, s.hazard_active * scale * boost);
      fail = rng_.bernoulli(p);
    }
    account_session(s, fail);
    if (!fail) continue;
    if (s.forced_oos) {
      // The outage leaves nothing to set up or stall; the episode is
      // out-of-service by construction, and no FP extras ride along.
      run_episode(s, EpisodeKind::kOutOfService);
      continue;
    }
    run_episode(s, pick_kind(s));

    // Occasional false-positive extras ride along with real activity.
    if (rng_.bernoulli(cal_.fp_overload_rate)) run_episode(s, EpisodeKind::kOverloadFp);
    if (rng_.bernoulli(cal_.fp_voice_call_rate)) run_episode(s, EpisodeKind::kVoiceCallFp);
    if (rng_.bernoulli(cal_.fp_manual_disconnect_rate)) {
      run_episode(s, EpisodeKind::kManualDisconnectFp);
    }
    if (rng_.bernoulli(cal_.fp_balance_rate)) run_episode(s, EpisodeKind::kBalanceFp);
    // Legacy tail (<1% of events).
    if (rng_.bernoulli(0.01)) run_episode(s, EpisodeKind::kLegacySms);
    if (rng_.bernoulli(0.005)) run_episode(s, EpisodeKind::kLegacyVoice);

    // Overnight WiFi uploads the buffered records now and then.
    if (rng_.bernoulli(0.3)) mod_->monitor().upload();
  }

  // Drain and close.
  mod_->shutdown();
  drive_until([&] { return sim_->pending_events() == 0; }, 500'000);

  // Overhead: accumulate sums only; averages are computed once from the
  // merged sums (order-canonical, no incremental float drift).
  out_.overhead.add_device(mod_->monitor().overhead());
  publish_scenario_counters();
}

void Campaign::DeviceRun::publish_scenario_counters() {
  // Per-feature guard: a disabled feature registers nothing, so the metric
  // export of pack-free scenarios is byte-identical to pre-pack builds.
  if (scenario_.mobility.enabled) {
    out_.metrics.counter("mobility.waypoints").add(waypoints_);
    out_.metrics.counter("mobility.handover_sessions").add(handover_sessions_);
  }
  if (scenario_.incident.outage_enabled()) {
    out_.metrics.counter("scenario.outage.sessions").add(outage_sessions_);
    out_.metrics.counter("scenario.outage.roamed").add(roamed_sessions_);
    out_.metrics.counter("scenario.outage.forced_oos").add(forced_oos_sessions_);
  }
  if (scenario_.incident.degradation_enabled()) {
    out_.metrics.counter("scenario.degraded.sessions").add(degraded_sessions_);
  }
  if (scenario_.incident.fault_schedule_enabled()) {
    out_.metrics.counter("scenario.faults.injected").add(faults_injected_);
  }
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

Campaign::Campaign(Scenario scenario)
    : scenario_(std::move(scenario)), master_rng_(scenario_.seed) {
  Rng deployment_rng = master_rng_.fork(0xb5u);
  registry_ = std::make_unique<BsRegistry>(scenario_.deployment, deployment_rng);
}

CampaignResult Campaign::run() {
  const std::vector<ScenarioError> errors = scenario_.validate();
  CELLREL_CHECK(errors.empty()) << "invalid scenario:\n" << format_errors(errors);

  // Campaign-level phase spans (wall clock — excluded from the default
  // export, never fed back into simulation state).
  obs::MetricRegistry campaign_metrics;

  PopulationBuilder builder;
  std::vector<DeviceProfile> fleet;
  {
    obs::PhaseSpan span(campaign_metrics, "plan_fleet");
    Rng fleet_rng = master_rng_.fork(0xf1ee7ULL);
    fleet = builder.build(scenario_.device_count, fleet_rng);
  }

  // Partition the fleet into fixed-size contiguous shards. The partition is
  // a pure function of the fleet (kDevicesPerShard is a constant), so the
  // merge below — including the order of every floating-point summation —
  // is identical for any thread count.
  const std::size_t shard_count = shard_count_for(fleet.size(), kDevicesPerShard);
  std::vector<ShardResult> shards(shard_count);

  // Spill directory (streaming mode only; validated). Created once here so
  // concurrent shards never race on directory creation.
  const std::filesystem::path spill_dir = scenario_.spill_dir;
  if (!spill_dir.empty()) std::filesystem::create_directories(spill_dir);

  auto run_shard = [&](std::size_t s) {
    const ShardRange range = shard_range(fleet.size(), shard_count, s);
    ShardResult& out = shards[s];
    out.keep_samples = !scenario_.stream || !scenario_.out_dir.empty();
    out.devices.reserve(range.size());
    // Batch capacity from the calibration's expected record count — a pure
    // function of the fleet and scenario. This replaces the old merged-
    // vector heuristic (`expected * 1.25 + 16`): the data plane allocates
    // fixed-size columns, and the materialized merge reserves EXACTLY from
    // the sealed-batch manifest.
    double expected_records = 0.0;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      expected_records += expected_device_records(fleet[i]);
    }
    out.batch_capacity = batch_capacity_for(expected_records);
    if (!spill_dir.empty()) {
      out.spill = std::make_unique<BatchSpillWriter>(spill_dir / spill_shard_file(s));
    }
    for (std::size_t i = range.begin; i < range.end; ++i) {
      DeviceRun run(scenario_, *registry_, fleet[i], master_rng_.fork(fleet[i].id), out);
      run.execute();
    }
    out.seal();
  };

  {
    obs::PhaseSpan span(campaign_metrics, "run_shards");
    for_each_shard(shard_count, scenario_.resolve_threads(), run_shard);
  }

  std::optional<detect::HealthTracker> health;
  if (scenario_.detect) {
    detect::HealthConfig hc;
    hc.window_s = scenario_.detect_window_s;
    hc.horizon_s = scenario_.campaign_days * 86'400.0;
    health.emplace(hc);
  }
  CampaignResult result;
  {
    obs::PhaseSpan span(campaign_metrics, "merge");
    result = merge_shard_results(*registry_, std::move(shards), scenario_,
                                 health ? &*health : nullptr);
  }
  // Detection verdict: score the tracker state folded during the merge
  // against the registry's ground truth (failure deltas were applied during
  // the merge, so the counts are final here). Runs single-threaded —
  // bit-identical output for every thread count.
  if (health) {
    obs::PhaseSpan span(campaign_metrics, "detect");
    const std::vector<std::uint64_t> truth = registry_->failure_counts();
    detect::SleepingCellDetector detector(health->config());
    result.health = std::make_unique<detect::HealthReport>(detector.analyze(*health, truth));
    detect::publish_health_metrics(*result.health, result.metrics);
  }
  // Campaign-level facts. Gauges record the workload's shape, not the
  // execution's: fleet size and shard count are pure functions of the
  // scenario, so the deterministic export stays thread-count independent
  // (the thread count itself deliberately stays out).
  result.metrics.gauge("campaign.fleet.devices").set(static_cast<double>(fleet.size()));
  result.metrics.gauge("campaign.shards").set(static_cast<double>(shard_count));
  result.metrics.merge(campaign_metrics);
  return result;
}

}  // namespace cellrel

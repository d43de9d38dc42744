// cellbench_driver — runs one cellrel benchmark workload through the
// library's public API and writes the raw measurements as one JSON
// document. run.py builds this binary, runs it, turns the samples into the
// metrics named in BENCHMARK.json and checks the digests (README.md).
//
//   cellbench_driver --workload fleet_stock|fleet_mobile|offline_query
//                    --seed N --seconds S --trace 0|1 --work-dir DIR --out FILE
//   cellbench_driver --describe --workload W --seed N
//
// A run sets up kScenarios scenarios derived from the seed, each with a
// threads=1 reference, then runs operations closed-loop at
// threads = min(4, hardware threads), cycling through the scenarios, until
// the measuring window has closed and every scenario has had a whole cycle.
// Between operations, at least every kProbeEveryS seconds, a child process
// forked before any library code runs times a fixed host-speed probe
// (benchmark code, no library code); run.py scales a run's times by their
// median.
//
// Every layer is timed from outside, by wrapping the calls into it; the
// campaign's own phase.* wall timers are attached under Campaign::run.
// With --trace 1, every other cycle is traced: spans (name, layer, start,
// end, parent, operation) are kept in memory and written out at exit.

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/csv_io.h"
#include "analysis/full_report.h"
#include "detect/detector.h"
#include "obs/export.h"
#include "query/engine.h"
#include "query/export.h"
#include "query/presets.h"
#include "sim/event_queue.h"
#include "workload/campaign.h"

namespace fs = std::filesystem;
using namespace cellrel;

namespace {

// --- Scale: the paper's §3 campaign at benchmark size -----------------------

constexpr std::uint32_t kDevices = 4000;
constexpr std::uint32_t kBaseStations = 8000;
constexpr double kCampaignDays = 240.0;
// Scenarios per run. One scenario's work varies by about ±10% from seed to
// seed; cycling through five keeps the metrics comparable across seeds.
constexpr int kScenarios = 5;
constexpr std::uint32_t kMaxThreads = 4;
// Depth of the bare-kernel probe: fleet_stock's simulated events per device
// at the default seed (5.96 M events / 4,000 devices).
constexpr std::uint64_t kKernelEventsPerDevice = 1490;
constexpr int kKernelProbeDevices = 400;
constexpr double kProbeEveryS = 1.0;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_string(const std::string& s) { return "\"" + obs::json_escape(s) + "\""; }

std::string number(double v) { return obs::fmt_double(v); }

std::uint32_t bench_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Scenario k of a run: k = 0 is the seed itself, the others are splitmix64
/// steps from it.
std::uint64_t scenario_seed(std::uint64_t seed, int k) {
  if (k == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  std::string layer;
  int op = -1;
  int parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// In-memory span recorder. Disabled, it records nothing and costs one
/// branch per call.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  bool enabled = false;
  int op = -1;  // current operation index (-1 = set-up)

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count());
  }
  int open(std::string name, std::string layer) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), std::move(layer), op, parent, now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }
  /// A completed child of `parent` whose extent is known only as a duration.
  void add(std::string name, std::string layer, int parent, std::uint64_t start_ns,
           std::uint64_t end_ns) {
    if (parent < 0) return;
    spans_.push_back({std::move(name), std::move(layer), op, parent, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string layer)
      : tracer_(tracer), idx_(tracer.open(std::move(name), std::move(layer))) {}
  ~ScopedSpan() { tracer_.close(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int idx_;
};

/// Runs `fn` inside a span and adds its wall time to `*seconds`.
template <typename Fn>
auto timed(Tracer& tracer, const char* name, const char* layer, double* seconds, Fn&& fn) {
  ScopedSpan span(tracer, name, layer);
  struct Add {
    double* s;
    Clock::time_point t0;
    ~Add() { *s += seconds_since(t0); }
  } add{seconds, Clock::now()};
  return fn();
}

// --- Workloads ----------------------------------------------------------------

Scenario stock_scenario(std::uint64_t seed) {
  Scenario sc;
  sc.name = "cellbench-stock";
  sc.seed = seed;
  sc.device_count = kDevices;
  sc.deployment.bs_count = kBaseStations;
  sc.campaign_days = kCampaignDays;
  return sc;
}

std::vector<query::QuerySpec> all_presets() {
  std::vector<query::QuerySpec> specs;
  for (const query::PresetInfo& p : query::preset_table()) {
    specs.push_back(*query::find_preset(p.name));
  }
  return specs;
}

Scenario mobile_scenario(std::uint64_t seed, const fs::path& spill_dir) {
  Scenario sc = stock_scenario(seed);
  sc.name = "cellbench-mobile";
  sc.mobility.enabled = true;
  // Incident windows: a quarter into the campaign, half of it long.
  const double start = kCampaignDays * 0.25;
  const double span = kCampaignDays * 0.5;
  sc.incident.outage = true;
  sc.incident.national_roaming = true;
  sc.incident.outage_start_day = start;
  sc.incident.outage_days = span;
  sc.incident.degraded_clusters = 4;
  sc.incident.degradation_start_day = start;
  sc.incident.degradation_days = span;
  sc.policy = PolicyVariant::kStabilityCompatible;
  sc.dual_connectivity = true;
  sc.recovery = RecoveryVariant::kTimpOptimized;
  sc.detect = true;
  sc.stream = true;
  sc.spill_dir = spill_dir.string();
  sc.inline_queries = all_presets();
  return sc;
}

// --- Outputs, digests and work counts ---------------------------------------

/// Digests of deterministic outputs, by label.
struct Digests {
  std::map<std::string, std::uint64_t> parts;
  void add(const std::string& label, std::string_view bytes) { parts[label] = fnv1a(bytes); }
  std::uint64_t combined() const {
    std::uint64_t h = fnv1a("");
    for (const auto& [label, d] : parts) h = fnv1a(label + "=" + hex(d) + "\n", h);
    return h;
  }
};

using Counts = std::map<std::string, std::uint64_t>;

/// The deterministic work counts of one campaign: thread-count independent
/// by the determinism contract, so every operation must repeat them exactly.
Counts work_counts(const CampaignResult& r) {
  std::uint64_t ril_failures = 0;
  std::uint64_t recovery_stages = 0;
  for (const auto& [name, c] : r.metrics.counters()) {
    if (name.starts_with("ril.") && name.ends_with(".failures")) ril_failures += c.value;
    if (name.starts_with("recovery.stage.")) recovery_stages += c.value;
  }
  auto get = [&r](const char* name) {
    const auto it = r.metrics.counters().find(name);
    return it == r.metrics.counters().end() ? std::uint64_t{0} : it->second.value;
  };
  return {
      {"sim.events", r.simulated_events},
      {"workload.episodes", r.episodes_run},
      {"workload.waypoints", get("mobility.waypoints")},
      {"workload.handover_sessions", get("mobility.handover_sessions")},
      {"telephony.stall_checks", get("data_stall.checks")},
      {"telephony.stall_episodes", get("data_stall.episodes")},
      {"telephony.dc_setup_attempts", get("dc_tracker.setup.attempts")},
      {"telephony.dc_setup_failures", get("dc_tracker.setup.failures")},
      {"telephony.recovery_episodes", get("recovery.episodes")},
      {"telephony.recovery_stages", recovery_stages},
      {"core.probe_rounds", get("monitor.probe.rounds")},
      {"core.records_written", get("monitor.records.written")},
      {"core.records_filtered_fp", get("monitor.records.filtered_fp")},
      {"radio.ril_failures", ril_failures},
      {"detect.records_seen", get("health.records.seen")},
      {"analysis.records", r.stream ? r.stream->total_records() : r.dataset.records.size()},
  };
}

double gauge(const CampaignResult& r, const char* name) {
  const auto it = r.metrics.gauges().find(name);
  return it == r.metrics.gauges().end() ? 0.0 : it->second.value;
}

double wall(const CampaignResult& r, const std::string& name) {
  const auto it = r.metrics.wall_timers().find(name);
  return it == r.metrics.wall_timers().end() ? 0.0 : it->second.total_s;
}

constexpr const char* kPhases[] = {"plan_fleet", "run_shards", "merge", "detect"};

using Facts = std::map<std::string, double>;

/// Constructs and runs one campaign inside spans; the campaign's phase.*
/// wall timers become children of the Campaign::run span, laid end to end.
/// Layer facts (registry build, phases, data-plane gauges) go to `facts`.
CampaignResult run_campaign(const Scenario& sc, Tracer& tracer, Facts& facts) {
  std::optional<Campaign> campaign;
  double registry_s = 0.0;
  timed(tracer, "Campaign::Campaign", "bs", &registry_s, [&] { campaign.emplace(sc); });
  const int run_span = tracer.open("Campaign::run", "workload");
  CampaignResult r = campaign->run();
  tracer.close(run_span);
  std::uint64_t at = run_span >= 0 ? tracer.spans()[static_cast<std::size_t>(run_span)].start_ns : 0;
  for (const char* phase : kPhases) {
    const std::string name = std::string("phase.") + phase;
    const double s = wall(r, name);
    facts[name] = s;
    if (s <= 0.0) continue;
    const std::uint64_t end = at + static_cast<std::uint64_t>(s * 1e9);
    const std::string_view p = phase;
    tracer.add(name, p == "run_shards" ? "shards" : p == "detect" ? "detect" : "workload",
               run_span, at, end);
    at = end;
  }
  facts["bs.registry_build_s"] = registry_s;
  facts["analysis.peak_batch_bytes"] = gauge(r, "process.dataplane.peak_batch_bytes");
  facts["analysis.spilled_bytes"] = gauge(r, "process.dataplane.spilled_bytes");
  return r;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// Digest of every file of a directory, in name order.
std::uint64_t dir_digest(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::uint64_t h = fnv1a("");
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    h = fnv1a(f.filename().string() + "\n" + bytes.str(), h);
  }
  return h;
}

// --- Run state ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 20200101;
  double seconds = 10.0;
  bool trace = false;
  bool describe = false;
  fs::path work_dir;
  fs::path out;
};

/// One timed operation: a whole campaign (fleet_*) or one step of the
/// analyst pass (offline_query).
struct OpRecord {
  int scenario = 0;
  std::string kind;  // "campaign", "export", "report", "query.<preset>.<source>"
  std::string label;  // reference digest it must match
  double start_s = 0.0;
  double end_s = 0.0;
  double op_s = 0.0;
  double report_s = 0.0;
  bool traced = false;
  bool ok = true;
  std::string digest;
  std::string error;
  Facts facts;
};

struct ScenarioState {
  std::uint64_t seed = 0;
  Digests digests;
  Counts counts;
  // offline_query only
  TraceDataset dataset;
  fs::path dataset_dir;
  fs::path spill_dir;
};

/// Host-speed probe: a fixed discrete-event loop written here (no library
/// code), run on every benchmark thread at once. Returns the median of the
/// threads' own times, so one descheduled thread does not make the host look
/// slow. It runs only in the ProbeProcess.
double host_probe_s(std::uint32_t threads) {
  auto work = [] {
    struct Ev {
      std::uint64_t at;
      std::uint64_t seq;
      std::function<std::uint64_t(std::uint64_t)> fn;
      bool operator>(const Ev& o) const { return at != o.at ? at > o.at : seq > o.seq; }
    };
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q;
    std::map<std::uint64_t, std::uint64_t> table;
    std::uint64_t x = 88172645463325252ULL;
    std::uint64_t seq = 0;
    std::uint64_t acc = 0;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int i = 0; i < 64; ++i) {
      q.push({next() % 1000, seq++, [](std::uint64_t v) { return v * 3; }});
    }
    for (int i = 0; i < 150000; ++i) {
      Ev e = q.top();
      q.pop();
      acc += e.fn(e.at);
      table[next() % 4096] += acc;
      const auto shared = std::make_shared<std::uint64_t>(acc);
      q.push({e.at + 1 + next() % 1000, seq++,
              [shared](std::uint64_t v) { return v + *shared; }});
    }
    return acc + table.size();
  };
  std::vector<std::uint64_t> sink(threads);
  std::vector<double> seconds(threads);
  {
    std::vector<std::jthread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, &seconds, &work, t] {
        const Clock::time_point t0 = Clock::now();
        sink[t] = work();
        seconds[t] = seconds_since(t0);
      });
    }
  }
  return median(seconds);
}

/// The host-speed probe's own process, forked before any library code runs:
/// it shares the host's cores with the library but no heap, allocator or
/// threads, so nothing an operation leaves in the driver process can slow
/// it. A probe is one byte down a pipe and its time back; the child exits
/// when the parent closes its end.
class ProbeProcess {
 public:
  explicit ProbeProcess(std::uint32_t threads) {
    int request[2];
    int reply[2];
    if (pipe(request) != 0 || pipe(reply) != 0) return;
    pid_ = fork();
    if (pid_ == 0) {
      close(request[1]);
      close(reply[0]);
      for (char c = 0; read(request[0], &c, 1) == 1;) {
        const double s = host_probe_s(threads);
        if (write(reply[1], &s, sizeof s) != sizeof s) break;
      }
      _exit(0);
    }
    close(request[0]);
    close(reply[1]);
    to_child_ = request[1];
    from_child_ = reply[0];
  }
  ~ProbeProcess() {
    close(to_child_);
    close(from_child_);
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
  }
  ProbeProcess(const ProbeProcess&) = delete;
  ProbeProcess& operator=(const ProbeProcess&) = delete;

  double run() {
    const char c = 'p';
    double s = 0.0;
    if (pid_ <= 0 || write(to_child_, &c, 1) != 1 || read(from_child_, &s, sizeof s) != sizeof s) {
      throw std::runtime_error("host-speed probe process failed");
    }
    return s;
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

struct RunState {
  Args args;
  std::uint32_t threads = bench_threads();
  ProbeProcess prober{threads};
  Clock::time_point origin = Clock::now();
  Tracer tracer{origin};
  std::vector<ScenarioState> scenarios;
  std::vector<std::pair<double, double>> setup_at;  // (start, end) of each set-up
  std::vector<std::string> setup_failures;
  std::vector<OpRecord> ops;
  std::vector<std::pair<double, double>> probes;  // (time since start, wall s)
  std::map<std::string, std::vector<double>> setup_facts;
  Facts facts;

  double now() const { return seconds_since(origin); }
  bool offline() const { return args.workload == "offline_query"; }
};

void probe(RunState& st, bool force = false) {
  if (!force && !st.probes.empty() && st.now() - st.probes.back().first < kProbeEveryS) return;
  const double at = st.now();
  const double s = st.prober.run();
  st.probes.emplace_back(at + s / 2.0, s);
}

/// Sets op.ok / op.error from the scenario's reference.
void check(const RunState& st, const std::string& digest, const Counts* counts, OpRecord& op) {
  const ScenarioState& sc = st.scenarios[static_cast<std::size_t>(op.scenario)];
  op.digest = digest;
  const std::string expected = op.label == "campaign"
                                   ? hex(sc.digests.combined())
                                   : hex(sc.digests.parts.at(op.label));
  if (digest != expected) {
    op.ok = false;
    op.error += "digest mismatch: " + op.label + "; ";
  }
  if (counts && *counts != sc.counts) {
    op.ok = false;
    op.error += "work counts differ from the threads=1 reference; ";
  }
}

// --- fleet_stock / fleet_mobile ----------------------------------------------------

struct FleetOutputs {
  Digests digests;
  Counts counts;
  double report_s = 0.0;
  Facts facts;
};

FleetOutputs fleet_operation(const Scenario& sc, Tracer& tracer) {
  FleetOutputs out;
  const CampaignResult r = run_campaign(sc, tracer, out.facts);
  std::string report;
  if (r.stream) {
    report = timed(tracer, "render_full_report", "analysis", &out.report_s,
                   [&] { return render_full_report(*r.stream); });
  } else {
    // Aggregator folds lazily, inside the queries the report makes.
    std::optional<Aggregator> agg;
    timed(tracer, "Aggregator::Aggregator", "analysis", &out.report_s,
          [&] { agg.emplace(r.dataset); });
    report = timed(tracer, "render_full_report", "analysis", &out.report_s,
                   [&] { return render_full_report(*agg); });
    out.facts["analysis.fold_s"] = out.report_s;
  }
  out.digests.add("report", report);
  if (r.health) {
    double s = 0.0;
    out.digests.add("health", timed(tracer, "health_report_to_json", "detect", &s,
                                    [&] { return detect::health_report_to_json(*r.health); }));
  }
  for (const query::QueryResult& qr : r.query_results) {
    double s = 0.0;
    out.digests.add("query." + qr.spec.name,
                    timed(tracer, "query_result_to_json", "query", &s,
                          [&] { return query::query_result_to_json(qr); }));
  }
  double export_s = 0.0;
  out.digests.add("metrics", timed(tracer, "metrics_to_json", "obs", &export_s,
                                   [&] { return obs::metrics_to_json(r.metrics); }));
  out.facts["obs.export_s"] = export_s;
  out.counts = work_counts(r);
  return out;
}

Scenario fleet_scenario(const RunState& st, int k, std::uint32_t threads) {
  const std::uint64_t seed = st.scenarios[static_cast<std::size_t>(k)].seed;
  Scenario sc = st.args.workload == "fleet_mobile" ? mobile_scenario(seed, st.args.work_dir / "spill")
                                                   : stock_scenario(seed);
  sc.threads = threads;
  return sc;
}

void fleet_setup(RunState& st, int k) {
  const FleetOutputs ref = fleet_operation(fleet_scenario(st, k, 1), st.tracer);
  ScenarioState& sc = st.scenarios[static_cast<std::size_t>(k)];
  sc.digests = ref.digests;
  sc.counts = ref.counts;
}

void fleet_op(RunState& st, OpRecord& op) {
  op.kind = op.label = "campaign";
  const Clock::time_point t0 = Clock::now();
  FleetOutputs out = fleet_operation(fleet_scenario(st, op.scenario, st.threads), st.tracer);
  op.op_s = seconds_since(t0);
  op.report_s = out.report_s;
  op.facts = std::move(out.facts);
  check(st, hex(out.digests.combined()), &out.counts, op);
}

// --- offline_query --------------------------------------------------------------------

/// Set-up: a threads=1 materialized campaign writes the dataset dir, and a
/// streaming campaign at the run's thread count writes the spill dir. The
/// reference queries run over the threads=1 in-memory dataset.
void offline_setup(RunState& st, int k) {
  Tracer& tracer = st.tracer;
  ScenarioState& sc = st.scenarios[static_cast<std::size_t>(k)];
  sc.dataset_dir = st.args.work_dir / ("dataset-" + std::to_string(k));
  sc.spill_dir = st.args.work_dir / ("spill-" + std::to_string(k));
  fs::remove_all(sc.dataset_dir);
  fs::remove_all(sc.spill_dir);
  Facts facts;
  Scenario a = stock_scenario(sc.seed);
  a.threads = 1;
  CampaignResult ra = run_campaign(a, tracer, facts);
  double write_s = 0.0;
  timed(tracer, "write_dataset_csv", "csv_io", &write_s,
        [&] { write_dataset_csv(ra.dataset, sc.dataset_dir); });
  Scenario b = stock_scenario(sc.seed);
  b.threads = st.threads;
  b.stream = true;
  b.spill_dir = sc.spill_dir.string();
  const CampaignResult rb = run_campaign(b, tracer, facts);

  sc.counts = work_counts(ra);
  if (work_counts(rb) != sc.counts ||
      obs::metrics_to_json(ra.metrics) != obs::metrics_to_json(rb.metrics)) {
    st.setup_failures.push_back("scenario " + std::to_string(k) +
                                ": streaming spill campaign differs from the threads=1 campaign");
  }
  sc.digests.add("export", hex(dir_digest(sc.dataset_dir)));
  // records.csv rounds times to %.3f, so the report is rendered from the
  // dataset as read back, exactly as the analyst sees it.
  sc.digests.add("report", render_full_report(Aggregator(read_dataset_csv(sc.dataset_dir))));
  for (const query::QuerySpec& spec : all_presets()) {
    sc.digests.add("query." + spec.name,
                   query::query_result_to_json(query::execute_over_dataset(ra.dataset, spec)));
  }
  // Layer facts of the set-up campaigns: phases from the streaming one.
  facts["csv_io.dataset_bytes"] = static_cast<double>(dir_bytes(sc.dataset_dir));
  facts["csv_io.spill_bytes"] = static_cast<double>(dir_bytes(sc.spill_dir));
  for (const auto& [name, v] : facts) st.setup_facts[name].push_back(v);
  sc.dataset = std::move(ra.dataset);
}

/// The steps of one analyst pass over a scenario's stored campaign: export,
/// report, then every preset answered as its own query from the dataset dir
/// and from the spill dir. Export and report, one sample each per pass
/// otherwise, repeat three times so their medians are steadier; a pass's
/// time counts each kind of step once.
std::vector<std::string> offline_steps() {
  std::vector<std::string> steps = {"export", "report", "export", "report", "export", "report"};
  for (const query::QuerySpec& spec : all_presets()) {
    steps.push_back("query." + spec.name + ".dataset");
    steps.push_back("query." + spec.name + ".spill");
  }
  return steps;
}

void offline_step(RunState& st, OpRecord& op) {
  const ScenarioState& sc = st.scenarios[static_cast<std::size_t>(op.scenario)];
  Tracer& tr = st.tracer;
  if (op.kind == "export") {
    op.label = "export";
    const fs::path dir = st.args.work_dir / "export";
    fs::remove_all(dir);
    timed(tr, "write_dataset_csv", "csv_io", &op.op_s,
          [&] { write_dataset_csv(sc.dataset, dir); });
    const double bytes = static_cast<double>(dir_bytes(dir));
    op.facts["csv_io.write_mb_per_s"] = bytes / 1e6 / op.op_s;
    check(st, hex(fnv1a(hex(dir_digest(dir)))), nullptr, op);
    return;
  }
  if (op.kind == "report") {
    op.label = "report";
    double read_s = 0.0;
    double fold_s = 0.0;
    std::string text;
    {
      ScopedSpan span(tr, "report", "analysis");
      const TraceDataset ds = timed(tr, "read_dataset_csv", "csv_io", &read_s,
                                    [&] { return read_dataset_csv(sc.dataset_dir); });
      std::optional<Aggregator> agg;
      timed(tr, "Aggregator::Aggregator", "analysis", &fold_s, [&] { agg.emplace(ds); });
      text = timed(tr, "render_full_report", "analysis", &fold_s,
                   [&] { return render_full_report(*agg); });
    }
    op.op_s = op.report_s = read_s + fold_s;
    op.facts["analysis.fold_s"] = fold_s;
    op.facts["csv_io.read_mb_per_s"] = static_cast<double>(dir_bytes(sc.dataset_dir)) / 1e6 / read_s;
    check(st, hex(fnv1a(text)), nullptr, op);
    return;
  }
  // "query.<preset>.<source>"
  const std::size_t dot = op.kind.rfind('.');
  op.label = op.kind.substr(0, dot);
  const bool spill = op.kind.substr(dot + 1) == "spill";
  const query::QuerySpec spec = *query::find_preset(op.label.substr(6));
  double exec_s = 0.0;
  double render_s = 0.0;
  std::string json;
  {
    ScopedSpan span(tr, op.kind, "query");
    double read_s = 0.0;
    const Clock::time_point t0 = Clock::now();
    if (spill) {
      const TraceDataset side = timed(tr, "read_dataset_sidecars_csv", "csv_io", &read_s,
                                      [&] { return read_dataset_sidecars_csv(sc.dataset_dir); });
      const query::QueryResult r =
          timed(tr, "execute_over_spill", "query", &exec_s,
                [&] { return query::execute_over_spill(sc.spill_dir, side, spec); });
      json = timed(tr, "query_result_to_json", "query", &render_s,
                   [&] { return query::query_result_to_json(r); });
    } else {
      const TraceDataset ds = timed(tr, "read_dataset_csv", "csv_io", &read_s,
                                    [&] { return read_dataset_csv(sc.dataset_dir); });
      const query::QueryResult r = timed(tr, "execute_over_dataset", "query", &exec_s,
                                         [&] { return query::execute_over_dataset(ds, spec); });
      json = timed(tr, "query_result_to_json", "query", &render_s,
                   [&] { return query::query_result_to_json(r); });
      op.facts["query.rows_per_s"] = static_cast<double>(ds.records.size()) / exec_s;
    }
    op.op_s = seconds_since(t0);
  }
  op.facts[spill ? "query.spill_exec_ms" : "query.exec_ms"] = exec_s * 1e3;
  op.facts["query.render_ms"] = render_s * 1e3;
  check(st, hex(fnv1a(json)), nullptr, op);
}

// --- Per-layer probes (traced runs only) --------------------------------------------

/// A bare Simulator driven through schedule_at / schedule_after / cancel /
/// run at fleet_stock's events-per-device depth: a 2.5 s self-rescheduling
/// tick (the synthetic-traffic pattern) plus a watchdog re-armed every
/// fourth tick and cancelled by the next re-arm (the stall-check pattern).
double kernel_ns_per_event() {
  struct Load {
    Simulator sim;
    std::uint64_t remaining = kKernelEventsPerDevice;
    ScheduledEvent watchdog;
    std::uint64_t watchdog_fired = 0;
    void tick() {
      if (remaining == 0) return;
      --remaining;
      if (remaining % 4 == 0) {
        watchdog.cancel();
        watchdog = sim.schedule_at(sim.now() + SimDuration::seconds(30.0),
                                   [this] { ++watchdog_fired; });
      }
      sim.schedule_after(SimDuration::seconds(2.5), [this] { tick(); });
    }
  };
  std::uint64_t events = 0;
  const Clock::time_point t0 = Clock::now();
  for (int d = 0; d < kKernelProbeDevices; ++d) {
    Load load;
    load.sim.schedule_after(SimDuration::zero(), [&load] { load.tick(); });
    events += load.sim.run();
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(events);
}

/// Streams every spill shard file of a directory back through
/// read_spill_batches; returns MB/s.
double spill_read_mb_per_s(const fs::path& spill_dir, Tracer& tracer) {
  double s = 0.0;
  timed(tracer, "read_spill_batches", "csv_io", &s, [&] {
    StringPool apns;
    std::uint64_t rows = 0;
    for (std::size_t k = 0; fs::exists(spill_dir / spill_shard_file(k)); ++k) {
      read_spill_batches(spill_dir / spill_shard_file(k), 4096, apns,
                         [&rows](const RecordBatch& b) { rows += b.size(); });
    }
    return rows;
  });
  return static_cast<double>(dir_bytes(spill_dir)) / 1e6 / s;
}

/// The inline executors of fleet_mobile run inside the merge; their cost is
/// the merge time with the 16 presets minus the merge time without them.
double merge_s_without_queries(RunState& st) {
  std::vector<double> merges;
  for (int i = 0; i < 3; ++i) {
    Scenario sc = fleet_scenario(st, 0, st.threads);
    sc.inline_queries.clear();
    Tracer quiet{st.origin};
    Facts facts;
    run_campaign(sc, quiet, facts);
    merges.push_back(facts["phase.merge"]);
  }
  return median(merges);
}

// --- Peak memory ----------------------------------------------------------------------

/// Resident-set high-water marks in kB: of set-up, and of the measured
/// operations alone when the mark could be reset after set-up (otherwise
/// of the whole run).
struct PeakRss {
  long setup_kb = 0;
  long measured_kb = 0;
  bool reset = false;
};

/// A "<key> <n> kB" line of /proc/self/status, in kB; 0 if absent.
long status_kb(std::string_view key) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with(key)) return std::stol(line.substr(key.size()));
  }
  return 0;
}

/// Returns the heap's free pages to the system, then resets the process's
/// high-water mark to its current resident set, so that the mark read at
/// exit covers the measured operations and not set-up.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return static_cast<bool>(clear);
}

// --- Output ---------------------------------------------------------------------------

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

std::string facts_json(const Facts& facts) {
  std::string out = "{";
  for (const auto& [k, v] : facts) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + number(v);
  }
  return out + "}";
}

template <typename T, typename Fn>
std::string json_list(const std::vector<T>& items, Fn&& fn, const char* sep = ",") {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? sep : "") + fn(items[i]);
  return out + "]";
}

std::string result_json(const RunState& st, const PeakRss& rss) {
  Facts facts = st.facts;
  for (const auto& [name, values] : st.setup_facts) facts[name] = median(values);
  std::ostringstream o;
  o << "{\n\"workload\":" << json_string(st.args.workload) << ",\"seed\":" << st.args.seed
    << ",\"threads\":" << st.threads << ",\"devices\":" << kDevices
    << ",\"compiler\":" << json_string(CELLBENCH_COMPILER)
    << ",\"build_type\":" << json_string(CELLBENCH_BUILD_TYPE)
    << ",\"optimized\":" << (optimized_build() ? "true" : "false")
    << ",\"sanitized\":" << (sanitized_build() ? "true" : "false")
    << ",\"peak_rss_kb\":" << rss.measured_kb << ",\"setup_peak_rss_kb\":" << rss.setup_kb
    << ",\"peak_rss_reset\":" << (rss.reset ? "true" : "false");
  o << ",\n\"setup\":" << json_list(st.setup_at, [](const auto& p) {
    return "[" + number(p.first) + "," + number(p.second) + "]";
  });
  o << ",\n\"setup_failures\":" << json_list(st.setup_failures, json_string);
  o << ",\n\"probes\":" << json_list(st.probes, [](const auto& p) {
    return "[" + number(p.first) + "," + number(p.second) + "]";
  });
  o << ",\n\"scenarios\":" << json_list(st.scenarios, [](const ScenarioState& sc) {
    std::string digests = "{";
    for (const auto& [label, d] : sc.digests.parts) {
      digests += (digests.size() > 1 ? "," : "") + json_string(label) + ":" + json_string(hex(d));
    }
    std::string counts = "{";
    for (const auto& [name, v] : sc.counts) {
      counts += (counts.size() > 1 ? "," : "") + json_string(name) + ":" + std::to_string(v);
    }
    return "{\"seed\":" + std::to_string(sc.seed) + ",\"combined\":" +
           json_string(hex(sc.digests.combined())) + ",\"digests\":" + digests + "},\"counts\":" +
           counts + "}}";
  }, ",\n");
  o << ",\n\"facts\":" << facts_json(facts);
  o << ",\n\"ops\":" << json_list(st.ops, [](const OpRecord& op) {
    return "{\"scenario\":" + std::to_string(op.scenario) + ",\"kind\":" + json_string(op.kind) +
           ",\"label\":" + json_string(op.label) +
           ",\"start\":" + number(op.start_s) + ",\"end\":" + number(op.end_s) +
           ",\"op_s\":" + number(op.op_s) + ",\"report_s\":" + number(op.report_s) +
           ",\"traced\":" + (op.traced ? "true" : "false") + ",\"ok\":" +
           (op.ok ? "true" : "false") + ",\"digest\":" + json_string(op.digest) +
           ",\"error\":" + json_string(op.error) + ",\"facts\":" + facts_json(op.facts) + "}";
  }, ",\n");
  o << ",\n\"spans\":" << json_list(st.tracer.spans(), [](const Span& s) {
    return "[" + json_string(s.name) + "," + json_string(s.layer) + "," + std::to_string(s.op) +
           "," + std::to_string(s.parent) + "," + std::to_string(s.start_ns) + "," +
           std::to_string(s.end_ns) + "]";
  }, ",\n");
  o << "}\n";
  return o.str();
}

/// Generated inputs of a workload at a seed: per scenario, the scenario the
/// library sees and a digest of the BS deployment it generates.
std::string describe(const Args& args) {
  std::ostringstream o;
  o << "{\"workload\":" << json_string(args.workload) << ",\"scenarios\":[";
  for (int k = 0; k < kScenarios; ++k) {
    const std::uint64_t seed = scenario_seed(args.seed, k);
    const Scenario sc = args.workload == "fleet_mobile" ? mobile_scenario(seed, "spill")
                                                        : stock_scenario(seed);
    const Campaign campaign(sc);
    std::uint64_t h = fnv1a("");
    char buf[128];
    for (const BaseStation& bs : campaign.registry().all()) {
      std::snprintf(buf, sizeof buf, "%d,%d,%d,%.17g,%.17g\n", static_cast<int>(bs.isp()),
                    static_cast<int>(bs.location()), bs.is_cdma() ? 1 : 0,
                    bs.hazard_multiplier(), bs.load());
      h = fnv1a(buf, h);
    }
    o << (k ? "," : "") << "{\"scenario_seed\":" << sc.seed << ",\"devices\":" << sc.device_count
      << ",\"base_stations\":" << sc.deployment.bs_count << ",\"days\":" << number(sc.campaign_days)
      << ",\"policy\":" << json_string(std::string(to_string(sc.policy)))
      << ",\"recovery\":" << json_string(std::string(to_string(sc.recovery)))
      << ",\"mobility\":" << (sc.mobility.enabled ? "true" : "false")
      << ",\"inline_queries\":" << sc.inline_queries.size()
      << ",\"deployment_digest\":" << json_string(hex(h)) << "}";
  }
  o << "]}\n";
  return o.str();
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--describe") {
      a.describe = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = v == "1";
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else if (flag == "--out") {
        a.out = v;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (a.workload != "fleet_stock" && a.workload != "fleet_mobile" &&
      a.workload != "offline_query") {
    return std::nullopt;
  }
  if (!a.describe && (a.work_dir.empty() || a.out.empty())) return std::nullopt;
  return a;
}

/// Sets up every scenario, one after another: its inputs and its threads=1
/// reference. Spans are off during set-up.
void set_up(RunState& st) {
  st.tracer.enabled = false;
  for (int k = 0; k < kScenarios; ++k) {
    st.scenarios.push_back({});
    st.scenarios.back().seed = scenario_seed(st.args.seed, k);
    probe(st);
    const double t0 = st.now();
    if (st.offline()) {
      offline_setup(st, k);
    } else {
      fleet_setup(st, k);
    }
    st.setup_at.emplace_back(t0, st.now());
  }
}

/// Closed loop: one operation at a time, cycling through the scenarios,
/// until the window has closed and every scenario has had a whole cycle
/// (two with tracing, the second traced).
void measure(RunState& st) {
  const std::vector<std::string> steps = st.offline() ? offline_steps()
                                                      : std::vector<std::string>{"campaign"};
  const int m = static_cast<int>(st.scenarios.size());
  const int min_passes = m * (st.args.trace ? 2 : 1);
  const double window_end = st.now() + st.args.seconds;
  for (int pass = 0; pass < min_passes || st.now() < window_end; ++pass) {
    const bool traced = st.args.trace && (pass / m) % 2 == 1;
    for (const std::string& step : steps) {
      probe(st);
      OpRecord op;
      op.scenario = pass % m;
      op.kind = step;
      op.traced = traced;
      st.tracer.enabled = traced;
      st.tracer.op = static_cast<int>(st.ops.size());
      op.start_s = st.now();
      try {
        if (st.offline()) {
          offline_step(st, op);
        } else {
          fleet_op(st, op);
        }
      } catch (const std::exception& e) {
        op.ok = false;
        op.error = std::string("exception: ") + e.what();
      }
      op.end_s = st.now();
      st.ops.push_back(std::move(op));
    }
    if (traced && st.offline()) {
      st.ops.back().facts["csv_io.spill_read_mb_per_s"] =
          spill_read_mb_per_s(st.scenarios[static_cast<std::size_t>(pass % m)].spill_dir, st.tracer);
    }
  }
  probe(st, true);
  st.tracer.enabled = false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: cellbench_driver --workload fleet_stock|fleet_mobile|offline_query "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR --out FILE\n"
                 "       cellbench_driver --describe --workload W --seed N\n");
    return 2;
  }
  if (args->describe) {
    std::fputs(describe(*args).c_str(), stdout);
    return 0;
  }
  if (!optimized_build() || sanitized_build()) {
    std::fprintf(stderr, "cellbench_driver: refusing to time a %s build\n",
                 sanitized_build() ? "sanitizer" : "non-optimized");
    return 3;
  }

  // A dead probe process must fail the run, not kill it with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  RunState st;
  st.args = *args;
  fs::create_directories(st.args.work_dir);
  PeakRss rss;
  try {
    set_up(st);
    rss.setup_kb = status_kb("VmHWM:");
    rss.reset = reset_peak_rss();
    measure(st);
    if (st.args.trace) {
      st.facts["sim.kernel_ns_per_event"] = kernel_ns_per_event();
      if (st.args.workload == "fleet_mobile") {
        st.facts["workload.merge_s_without_queries"] = merge_s_without_queries(st);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cellbench_driver: %s\n", e.what());
    return 1;
  }

  rss.measured_kb = status_kb("VmHWM:");
  std::ofstream out(st.args.out, std::ios::binary);
  out << result_json(st, rss);
  out.close();
  if (!out) {
    std::fprintf(stderr, "cellbench_driver: cannot write %s\n", st.args.out.string().c_str());
    return 1;
  }
  return 0;
}

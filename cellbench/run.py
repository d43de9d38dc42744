#!/usr/bin/env python3
"""cellrel benchmark: builds the driver, runs one workload, prints metrics.

    python3 cellbench/run.py --workload fleet_stock|fleet_mobile|offline_query \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The driver is built from the checkout's
sources into .bench_build/; raw results, the Chrome trace and the per-layer
self-time table go to .bench_out/. The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1. The exit code is 0 only when every
operation's outputs matched the reference. See cellbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cellbench"
OUT_DIR = ROOT / ".bench_out"
DRIVER = BUILD_DIR / "cellbench_driver"
PINNED = BENCH_DIR / "digests.json"

WORKLOADS = ("fleet_stock", "fleet_mobile", "offline_query")
DEFAULT_SEED = 20200101
MAX_BUILD_JOBS = 4
DRIVER_TIMEOUT_S = 170
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# Wall time of the driver's host-speed probe on an unloaded 4-core host.
# End-to-end times are reported at this host speed (README.md, "Noise").
PROBE_NOMINAL_S = 0.040
# Span layers of the self-time table. "shards" is Campaign::run's run_shards
# phase: the event kernel, the per-device stack and the campaign driver,
# which cannot be told apart from outside the library.
SELF_TIME_LAYERS = ("bs", "workload", "shards", "analysis", "csv_io", "query", "detect", "obs")


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- build -------------------------------------------------------------------


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file():
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "cellbench_driver", "-j",
               str(min(MAX_BUILD_JOBS, os.cpu_count() or 1))])
    kind = next((line.split("=", 1)[1] for line in cache.read_text().splitlines()
                 if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if kind not in OPTIMIZED_BUILD_TYPES:
        raise BenchError(f"refusing to time a {kind or 'unoptimized'} build")


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


# --- driver ------------------------------------------------------------------


def run_driver(args):
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = OUT_DIR / f"raw-{tag}.json"
    work = OUT_DIR / f"work-{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if k != "CELLREL_THREADS"}
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--work-dir", work, "--out", raw]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver exceeded {DRIVER_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"driver exited with code {proc.returncode}")
    return json.loads(raw.read_text()), tag


def describe(workload, seed):
    proc = subprocess.run([DRIVER, "--describe", "--workload", workload, "--seed", str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(proc.stderr.strip())
    return json.loads(proc.stdout)


# --- correctness -------------------------------------------------------------


def pinned_entry(raw):
    return [{k: sc[k] for k in ("seed", "combined", "digests", "counts")}
            for sc in raw["scenarios"]]


def check(raw, seed):
    """Returns (failed operation count, reasons)."""
    reasons = list(raw["setup_failures"])
    ops, scenarios = raw["ops"], raw["scenarios"]
    if seed == DEFAULT_SEED:
        pinned = json.loads(PINNED.read_text())["workloads"].get(raw["workload"])
        if pinned != pinned_entry(raw):
            for k, (want, got) in enumerate(zip(pinned or [], pinned_entry(raw))):
                for part in ("digests", "counts"):
                    for name in sorted(set(want[part]) | set(got[part])):
                        if want[part].get(name) != got[part].get(name):
                            reasons.append(f"scenario {k}: pinned {part} mismatch: {name}")
            if not reasons:
                reasons.append("pinned digests do not cover this run's scenarios")
    if reasons:
        return len(ops), reasons
    failed = 0
    for i, op in enumerate(ops):
        sc = scenarios[op["scenario"]]
        want = sc["combined"] if op["label"] == "campaign" else sc["digests"].get(op["label"])
        if not op["ok"] or op["digest"] != want:
            failed += 1
            reasons.append(f"operation {i} ({op['kind']}, scenario {op['scenario']}): "
                           f"{op['error'] or 'digest mismatch'}")
    return failed, reasons


# --- metrics -----------------------------------------------------------------


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1]


def speed_factor(raw):
    """Scales a run's wall times to the nominal host speed: the nominal probe
    time over the median of the run's probes. One factor per run: the host's
    speed over a whole run predicts its operation times, while the few
    probes around one operation do not (README.md, "Noise")."""
    probes = [p[1] for p in raw["probes"]]
    return PROBE_NOMINAL_S / median(probes) if probes else 1.0


def pass_seconds(ops, scenario):
    """Time of one whole operation cycle on one scenario: per kind of
    operation, the median over its repetitions, summed over kinds."""
    by_kind = {}
    for op in ops:
        if op["scenario"] == scenario:
            by_kind.setdefault(op["kind"], []).append(op["op_s"])
    return sum(median(v) for v in by_kind.values())


def end_to_end(raw, scaled=True):
    ops, m = raw["ops"], len(raw["scenarios"])
    factor = speed_factor(raw) if scaled else 1.0
    return {
        "setup_s": median(end - start for start, end in raw["setup"]) * factor,
        "devices_per_s": raw["devices"] / (mean(pass_seconds(ops, k) for k in range(m)) * factor),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def span_self_times(spans):
    """Self time (ns) of each span: its duration minus what its children cover."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    self_ns = []
    for i, (_, _, _, _, start, end) in enumerate(spans):
        covered, cursor = 0, start
        for c in sorted(children.get(i, []), key=lambda k: spans[k][4]):
            lo, hi = max(spans[c][4], cursor), min(spans[c][5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_ns.append(max(0, end - start - covered))
    return self_ns


def per_layer(raw):
    ops, scenarios = raw["ops"], raw["scenarios"]
    traced = [op for op in ops if op["traced"]]
    threads, devices = raw["threads"], raw["devices"]
    setup_facts = raw["facts"]
    # Work counts: the mean over the run's scenarios (each repeats exactly).
    counts = {name: mean(sc["counts"][name] for sc in scenarios)
              for name in scenarios[0]["counts"]}

    def fact(name, scenario=None):
        """Median over traced operations, else the set-up value, else 0."""
        values = [op["facts"][name] for op in traced if name in op["facts"]
                  and scenario in (None, op["scenario"])]
        return median(values) if values else setup_facts.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    run_shards = fact("phase.run_shards")
    records = counts["analysis.records"]
    m = {
        "bs.registry_build_s": fact("bs.registry_build_s"),
        "workload.plan_fleet_s": fact("phase.plan_fleet"),
        "workload.run_shards_s": run_shards,
        "workload.merge_s": fact("phase.merge"),
        "workload.us_per_device": run_shards * threads / devices * 1e6,
        "workload.waypoints": counts["workload.waypoints"],
        "workload.handover_sessions": counts["workload.handover_sessions"],
        "sim.events": counts["sim.events"],
        "sim.events_per_device": counts["sim.events"] / devices,
        "sim.ns_per_event": ratio(run_shards * threads * 1e9, counts["sim.events"]),
        "sim.kernel_ns_per_event": setup_facts.get("sim.kernel_ns_per_event", 0.0),
        "telephony.stall_checks": counts["telephony.stall_checks"],
        "telephony.stall_check_yield": ratio(counts["telephony.stall_episodes"],
                                             counts["telephony.stall_checks"]),
        "telephony.dc_setup_attempts": counts["telephony.dc_setup_attempts"],
        "telephony.dc_setup_fail_ratio": ratio(counts["telephony.dc_setup_failures"],
                                               counts["telephony.dc_setup_attempts"]),
        "telephony.recovery_stages": counts["telephony.recovery_stages"],
        "core.probe_rounds": counts["core.probe_rounds"],
        "core.probe_rounds_per_episode": ratio(counts["core.probe_rounds"],
                                               counts["telephony.stall_episodes"]),
        "core.records_written": counts["core.records_written"],
        "core.fp_filtered_ratio": ratio(counts["core.records_filtered_fp"],
                                        counts["core.records_written"]),
        "radio.ril_failures": counts["radio.ril_failures"],
        "analysis.fold_records_per_s": ratio(records, fact("analysis.fold_s")),
        "analysis.report_s": median(op["report_s"] for op in ops if op["report_s"] > 0),
        "analysis.peak_batch_bytes": fact("analysis.peak_batch_bytes"),
        "analysis.spilled_mb": fact("analysis.spilled_bytes") / 1e6,
        "detect.analyze_s": fact("phase.detect"),
        "detect.records_seen": counts["detect.records_seen"],
        "obs.export_s": fact("obs.export_s"),
        "csv_io.export_s": median(op["op_s"] for op in ops if op["kind"] == "export"),
        "csv_io.write_mb_per_s": fact("csv_io.write_mb_per_s"),
        "csv_io.read_mb_per_s": fact("csv_io.read_mb_per_s"),
        "csv_io.spill_read_mb_per_s": fact("csv_io.spill_read_mb_per_s"),
        "query.exec_ms": fact("query.exec_ms"),
        "query.spill_exec_ms": fact("query.spill_exec_ms"),
        "query.render_ms": fact("query.render_ms"),
        "query.rows_per_s": fact("query.rows_per_s"),
        "query.inline_exec_ms": 0.0,
    }
    if "workload.merge_s_without_queries" in setup_facts:
        m["query.inline_exec_ms"] = (fact("phase.merge", scenario=0)
                                     - setup_facts["workload.merge_s_without_queries"]) * 1e3
    latencies = [op["op_s"] * 1e3 for op in ops if op["kind"].startswith("query.")]
    m["query.latency_ms_p50"] = percentile(latencies, 50)
    m["query.latency_ms_p90"] = percentile(latencies, 90)
    m["query.samples"] = len(latencies)

    # Render time from the spans (the report step's span tree, or the op's).
    spans = [s for s in raw["spans"] if s[2] >= 0]
    m["analysis.report_render_s"] = median((s[5] - s[4]) / 1e9 for s in spans
                                           if s[0] == "render_full_report")

    # Self time per layer, per traced cycle of operations, and the overhead
    # of tracing: traced against untraced cycles.
    kinds = {op["kind"] for op in ops}
    # The rarest kind of operation runs once per cycle.
    traced_cycles = min(Counter(op["kind"] for op in traced).values(), default=1)
    table = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    for s, ns in zip(raw["spans"], span_self_times(raw["spans"])):
        if s[2] >= 0 and s[1] in table:
            table[s[1]] += ns / 1e6 / traced_cycles
    for layer, ms in table.items():
        m[f"self.{layer}_ms"] = ms
    cycle = {}
    for flag in (True, False):
        cycle[flag] = sum(median(op["op_s"] for op in ops
                                 if op["traced"] == flag and op["kind"] == kind)
                          for kind in kinds)
    m["trace.overhead_pct"] = ratio(cycle[True] - cycle[False], cycle[False]) * 100.0
    m["trace.spans"] = len(raw["spans"])
    return m, table, cycle[True], cycle[False]


def write_chrome_trace(raw, path):
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    events = [{"name": name, "cat": layer, "ph": "X", "ts": start / 1e3,
               "dur": max(0, end - start) / 1e3, "pid": 1, "tid": 1,
               "args": {"op": op, "span": i, "parent": parent}}
              for i, (name, layer, op, parent, start, end) in enumerate(raw["spans"])]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# --- main --------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="record this run's reference digests in cellbench/digests.json")
    p.add_argument("--describe", action="store_true",
                   help="print the inputs generated from the seed and exit")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    e2e_units, layer_units = declared_metrics()
    build()
    if args.describe:
        print(json.dumps(describe(args.workload, args.seed), sort_keys=True))
        return 0

    raw, tag = run_driver(args)
    if args.pin:
        if args.seed != DEFAULT_SEED:
            raise BenchError(f"digests are pinned at seed {DEFAULT_SEED} only")
        pinned = json.loads(PINNED.read_text()) if PINNED.is_file() else {"workloads": {}}
        pinned["seed"] = DEFAULT_SEED
        pinned["workloads"][args.workload] = pinned_entry(raw)
        PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    failed, reasons = check(raw, args.seed)
    for reason in reasons:
        log(f"cellbench: FAILED {reason}")

    host = {"nproc": os.cpu_count(), "threads": raw["threads"], "compiler": raw["compiler"],
            "build_type": raw["build_type"], "git_commit": git_commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "scenarios": [sc["seed"] for sc in raw["scenarios"]],
            "operations": len(raw["ops"]), "speed_factor": speed_factor(raw),
            "setup_peak_rss_mb": raw["setup_peak_rss_kb"] / 1024.0,
            "peak_rss_reset": raw["peak_rss_reset"], "raw": str(OUT_DIR / f"raw-{tag}.json")}
    if args.trace:
        values, table, traced_s, untraced_s = per_layer(raw)
        units = layer_units
        trace_path = OUT_DIR / f"trace-{tag}.json"
        write_chrome_trace(raw, trace_path)
        lines = [f"per-layer self time, ms per traced cycle ({args.workload}):"]
        lines += [f"  {layer:<9} {ms:12.3f}" for layer, ms in table.items()]
        lines.append(f"tracing overhead: traced {traced_s:.4f} s vs untraced {untraced_s:.4f} s "
                     f"per cycle ({values['trace.overhead_pct']:+.2f}%)")
        (OUT_DIR / f"selftime-{tag}.txt").write_text("\n".join(lines) + "\n")
        print("\n".join(lines))
        host["trace"] = str(trace_path)
    else:
        values = end_to_end(raw)
        units = e2e_units
        host["unscaled"] = end_to_end(raw, scaled=False)
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    result = {
        "correct": failed == 0,
        "attempted": len(raw["ops"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"host": host, "failures": reasons, **result}, indent=1) + "\n")
    print("# host " + json.dumps(host, sort_keys=True))
    for name in units:
        print(f"{name:<32} {values[name]:>16.6g} {units[name]}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"cellbench: {e}")
        sys.exit(2)

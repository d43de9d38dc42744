"""Tests of the benchmark itself.

    python3 -m unittest discover -s cellbench -p 'test_*.py'

Run from the root of a checkout; the end-to-end cases build the driver
(first run only) and run each workload briefly, a few minutes in all.
"""

import contextlib
import copy
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def bench(*args):
    """Runs the benchmark command; returns (exit code, last stdout line as JSON or None)."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last


class DigestMismatchTest(unittest.TestCase):
    def fake_raw(self):
        digests = {"report": "00000000000000aa", "query.fig2": "00000000000000bb"}
        return {
            "workload": "offline_query",
            "setup_failures": [],
            "scenarios": [{"seed": 7, "combined": "c0", "digests": digests, "counts": {}}],
            "ops": [{"scenario": 0, "kind": "report", "label": "report", "ok": True,
                     "digest": "00000000000000aa", "error": ""},
                    {"scenario": 0, "kind": "query.fig2.spill", "label": "query.fig2",
                     "ok": True, "digest": "00000000000000bb", "error": ""}],
        }

    def test_matching_digests_pass(self):
        self.assertEqual(run.check(self.fake_raw(), seed=7)[0], 0)

    def test_operation_digest_mismatch_fails_it(self):
        raw = self.fake_raw()
        raw["ops"][1]["digest"] = "00000000000000cc"
        failed, reasons = run.check(raw, seed=7)
        self.assertEqual(failed, 1)
        self.assertIn("query.fig2.spill", reasons[0])

    def test_pinned_digest_mismatch_fails_the_run(self):
        pinned = json.loads(run.PINNED.read_text())
        bad = copy.deepcopy(pinned)
        scenario = bad["workloads"]["fleet_stock"][0]
        scenario["digests"]["report"] = "0" * 16
        run.OUT_DIR.mkdir(exist_ok=True)
        path = run.OUT_DIR / "test-bad-digests.json"
        path.write_text(json.dumps(bad))
        stdout = io.StringIO()
        try:
            with mock.patch.object(run, "PINNED", path), contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", "fleet_stock", "--seconds", "0"])
        finally:
            path.unlink()
        self.assertNotEqual(code, 0)
        last = json.loads(stdout.getvalue().strip().splitlines()[-1])
        self.assertFalse(last["correct"])
        self.assertEqual(last["failed"], last["attempted"])


class MetricNamesTest(unittest.TestCase):
    def test_printed_metrics_are_declared(self):
        e2e, layers = run.declared_metrics()
        for workload in run.WORKLOADS:
            for trace, declared in (("0", e2e), ("1", layers)):
                with self.subTest(workload=workload, trace=trace):
                    code, last = bench("--workload", workload, "--seconds", "0",
                                       "--trace", trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertEqual(set(last["metrics"]), set(declared))
                    for name, metric in last["metrics"].items():
                        self.assertEqual(metric["unit"], declared[name])


class SeedTest(unittest.TestCase):
    def describe(self, seed):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                               "fleet_mobile", "--seed", str(seed), "--describe"],
                              cwd=run.ROOT, capture_output=True, text=True, timeout=900,
                              check=True)
        return json.loads(proc.stdout)

    def test_seed_changes_generated_inputs(self):
        first, again, other = self.describe(1), self.describe(1), self.describe(2)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)
        digests = [sc["deployment_digest"] for sc in first["scenarios"] + other["scenarios"]]
        self.assertEqual(len(set(digests)), len(digests))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Checks of bench_ab.py's verdict on canned runs; runs no benchmark.

    python3 tools/bench_ab_check.py
"""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stderr
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_ab  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD = "serve-memcached"
BASE = {"sim_minst_per_s": 10.0, "setup_s": 0.003, "peak_rss_mb": 14.3,
        "req_host_ns_per_inst_p50": 120.0, "req_host_ns_per_inst_p95": 300.0}
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}


def run(scale=1.0, failed=0, **scales):
    """A result line as espbench/run.py prints it; every metric times
    `scale`, and a metric named in `scales` also times its value."""
    metrics = {k: {"value": v * scale * scales.get(k, 1.0), "unit": UNITS[k]}
               for k, v in BASE.items()}
    return {"correct": failed == 0, "attempted": 2, "failed": failed,
            "metrics": metrics}


def parent_runs(**scales):
    """Ten runs 1% apart: a spread well inside every bound."""
    return [run(1.0 + 0.01 * (i % 3 - 1), **scales)
            for i in range(bench_ab.PAIRS)]


def decide(change, parent=None, claims=()):
    runs = {WORKLOAD: {"parent": parent or parent_runs(), "change": change}}
    return bench_ab.decide(BENCH, runs, claims)


class Decide(unittest.TestCase):
    def test_identical_runs_pass(self):
        ok, lines, record = decide(parent_runs())
        self.assertTrue(ok, lines)
        self.assertEqual(set(record[WORKLOAD]["status"].values()), {"ok"})

    def test_thirty_percent_slower_fails_and_names_the_metric(self):
        ok, lines, record = decide(parent_runs(sim_minst_per_s=0.7))
        self.assertFalse(ok)
        self.assertEqual(record[WORKLOAD]["status"]["sim_minst_per_s"],
                         "regressed")
        self.assertTrue(any("sim_minst_per_s" in line and "regressed" in line
                            for line in lines), lines)

    def test_larger_failed_share_fails(self):
        change = parent_runs()
        change[3] = run(failed=1)
        ok, lines, _ = decide(change)
        self.assertFalse(ok)
        self.assertTrue(any(line.startswith("  failed share")
                            for line in lines), lines)

    def test_run_without_result_counts_as_failed(self):
        change = parent_runs()
        change[0] = {"attempted": 1, "failed": 1, "metrics": {}}
        self.assertFalse(decide(change)[0])

    def test_claim_winning_ten_of_ten_pairs_is_met(self):
        change = [run(1.2) for _ in range(bench_ab.PAIRS)]
        ok, lines, _ = decide(change, claims=["sim_minst_per_s@" + WORKLOAD])
        self.assertTrue(ok, lines)
        self.assertIn("wins 10/10", lines[-2])

    def test_claim_winning_eight_of_ten_pairs_is_not_met(self):
        change = [run(1.2) for _ in range(bench_ab.PAIRS)]
        change[1] = change[6] = run(0.9)
        ok, lines, _ = decide(change, claims=["sim_minst_per_s@" + WORKLOAD])
        self.assertFalse(ok)
        self.assertIn("wins 8/10", lines[-2])
        self.assertIn("NOT met", lines[-2])

    def test_claim_inside_the_parent_iqr_is_not_met(self):
        change = [run(1.011) for _ in range(bench_ab.PAIRS)]
        ok, lines, _ = decide(change, claims=["sim_minst_per_s@" + WORKLOAD])
        self.assertFalse(ok, lines)
        self.assertIn("wins 10/10", lines[-2])

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [run(0.6 if i % 2 else 1.4) for i in range(bench_ab.PAIRS)]
        ok, lines, record = decide(parent, parent=parent)
        self.assertTrue(ok, lines)
        self.assertEqual(record[WORKLOAD]["status"]["sim_minst_per_s"],
                         "unresolved")
        self.assertTrue(any("unresolved" in line for line in lines))

    def test_wide_spread_beaten_by_every_change_run_is_resolved(self):
        parent = [run(sim_minst_per_s=0.6 if i % 2 else 1.4)
                  for i in range(bench_ab.PAIRS)]
        change = [run(sim_minst_per_s=1.5) for _ in range(bench_ab.PAIRS)]
        ok, lines, record = decide(change, parent=parent)
        self.assertTrue(ok, lines)
        self.assertEqual(record[WORKLOAD]["status"]["sim_minst_per_s"], "ok")


class Refuse(unittest.TestCase):
    def test_different_benchmark_json_is_refused(self):
        with tempfile.TemporaryDirectory() as tmp:
            parent, change = Path(tmp, "parent"), Path(tmp, "change")
            for d in (parent, change):
                d.mkdir()
                (d / "BENCHMARK.json").write_text(json.dumps(BENCH))
            changed = dict(BENCH, run_seconds=BENCH["run_seconds"] + 1)
            (change / "BENCHMARK.json").write_text(json.dumps(changed))
            err = io.StringIO()
            with redirect_stderr(err):
                rc = bench_ab.main(["--parent", str(parent),
                                    "--change", str(change)])
            self.assertEqual(rc, 2)
            self.assertIn("BENCHMARK.json files differ", err.getvalue())


if __name__ == "__main__":
    unittest.main()

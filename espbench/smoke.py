#!/usr/bin/env python3
"""Smoke test of the ESP-Sim benchmark.

    python3 espbench/smoke.py

Runs every workload named in BENCHMARK.json at a tiny size (--scale
0.02) through both passes (--trace 0 and --trace 1) and every check.
Each run must exit 0, report correct with no failed cell, and print
exactly the metrics BENCHMARK.json lists for that pass, each with its
unit and a finite value. Exits 1 on the first problem.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", trace, "--scale", "0.02",
           "--out", os.path.join(".bench_out", "smoke")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"checks failed: {result['failed']} cells")
    if result["attempted"] < 1:
        raise AssertionError("no cell attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(
            f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics[name]
        if m["unit"] != unit:
            raise AssertionError(f"{name}: unit {m['unit']} != {unit}")
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            raise AssertionError(f"{name}: value {m['value']!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    passes = (("0", "end_to_end"), ("1", "per_layer"))
    for workload in bench["workloads"]:
        for trace, key in passes:
            expected = {m["name"]: m["unit"] for m in bench[key]}
            label = f"{workload['name']} --trace {trace}"
            try:
                check(run(workload["name"], trace), expected)
            except (AssertionError, ValueError, KeyError) as err:
                print(f"FAIL {label}: {err}")
                return 1
            print(f"ok   {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

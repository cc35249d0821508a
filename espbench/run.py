#!/usr/bin/env python3
"""Run the ESP-Sim benchmark on one workload.

    python3 espbench/run.py --workload web-fig09 --seed 0 --seconds 10 --trace 0

Builds the simulator and the espbench program from this checkout's
sources (Release, into .bench_build/espbench) on first use, runs one
workload, validates the artifacts the run wrote with
tools/validate_artifact.py, and prints the program's tables followed by
one JSON line: correct, attempted, failed and metrics (end-to-end with
--trace 0, per-layer with --trace 1). Extra flags (--scale F, --out DIR)
are passed through to the program. See espbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "espbench")
BINARY = os.path.join(BUILD_DIR, "espbench")
VALIDATOR = os.path.join(ROOT, "tools", "validate_artifact.py")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; False on failure."""
    for needed in (os.path.join(ROOT, "src", "CMakeLists.txt"), VALIDATOR):
        if not os.path.isfile(needed):
            log(f"missing {os.path.relpath(needed, ROOT)}: "
                "not a full source checkout")
            return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr; stdout ends with the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def validate(path):
    """Schema-check one artifact the run wrote."""
    proc = subprocess.run([sys.executable, VALIDATOR, path], cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        log(f"artifact {path} failed validation:\n{proc.stdout}{proc.stderr}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args, extra = parser.parse_known_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        log(f"espbench exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("espbench did not end with a JSON result")
        return 1

    failed = result["failed"]
    for path in result.get("artifacts", []):
        if not validate(path):
            failed += 1

    for line in lines[:-1]:
        print(line)
    print(f"# context: {json.dumps(result.get('context', {}))}")
    print(json.dumps({
        "correct": result["correct"] and failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two espsim bench artifacts for throughput regressions.

Reads two `espsim-bench-artifact` JSON files (espsim bench) — a
baseline and a candidate — and compares the simulator's throughput on
every (app, config) cell they share: simulated cycles/sec, events/sec,
and the overall suite wall time. A cell counts as a regression when
the candidate is slower than the baseline by more than --rel-tol.

Wall-clock numbers are noisy, so the gate is deliberately loose by
default (25%) and cells faster than --min-wall-ms are skipped
entirely: a 3 ms cell's throughput is dominated by scheduler jitter,
and a gate that cries wolf gets deleted. Pin --repeat on the producing
`espsim bench` run to tighten the numbers before tightening the
tolerance.

Standard library only, so it runs anywhere the repo builds.

Usage:
    compare_bench.py BASELINE.json CANDIDATE.json [--rel-tol F]
        [--min-wall-ms MS] [--ignore-config-hash]
    compare_bench.py BASELINES_DIR/ CANDIDATE.json [...]
        [--print-baseline]

When BASELINE is a *directory* (typically bench/baselines/), the
baseline is the last entry of its INDEX file, which lists the
committed baselines oldest first (one file name per line; blank lines
and `#` comments ignored).  Adding a baseline means committing the
file and appending its name to the INDEX.  An entry that is unsafe
(`/`, `..`), repeated, missing or not a bench artifact is skipped with
a note on stderr, as `espsim report` skips it.  --print-baseline
prints the chosen path and exits 0, so CI logs record which baseline
gated the run.

Exit code 0 when no shared cell regressed, 1 on a regression or a
config-hash mismatch, 2 when either artifact cannot be loaded (or a
baselines directory whose INDEX is missing or lists no usable
baseline).
"""

import argparse
import json
import sys
from pathlib import Path


def load_bench(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != "espsim-bench-artifact":
        raise ValueError(f"{path}: not an espsim-bench-artifact")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError(f"{path}: cells missing or empty")
    return doc


def select_baseline(directory):
    """The newest baseline: the last usable entry of ``directory``/INDEX.

    Entries are skipped, with a note on stderr, by the rules
    `espsim report` applies to the same file: a name containing ``/``
    or ``..``, a repeated name, and a file that is missing or not a
    loadable bench artifact.  Returns (path, reason).  Raises
    ValueError when the INDEX is missing or lists no usable entry.
    """
    index = Path(directory) / "INDEX"
    try:
        lines = index.read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise ValueError(f"{index}: {err.strerror}") from err
    names = [name for name in map(str.strip, lines)
             if name and not name.startswith("#")]
    seen, usable = set(), []
    for name in names:
        path = Path(directory) / name
        if "/" in name or ".." in name:
            problem = "unsafe INDEX entry"
        elif name in seen:
            problem = "duplicate INDEX entry"
        else:
            seen.add(name)
            try:
                usable.append((path, load_bench(path)))
                continue
            except (OSError, ValueError,
                    json.JSONDecodeError) as err:
                problem = f"unusable: {err}"
        print(f"skipped {index}: {name} ({problem})", file=sys.stderr)
    if not usable:
        raise ValueError(f"{index}: lists no usable baseline")
    path, doc = usable[-1]
    version = doc.get("manifest", {}).get("tool_version", "")
    return path, f"last INDEX entry, {version or 'no version'}"


def slowdown(base, cand):
    """Fractional slowdown of candidate vs baseline (+ = slower)."""
    return 0.0 if base <= 0 else (base - cand) / base


def main(argv):
    parser = argparse.ArgumentParser(
        description="diff two espsim bench artifacts")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--rel-tol", type=float, default=0.25,
                        help="allowed fractional slowdown per metric "
                             "(default 0.25)")
    parser.add_argument("--min-wall-ms", type=float, default=20.0,
                        help="skip cells faster than this in either "
                             "artifact (default 20 ms)")
    parser.add_argument("--ignore-config-hash", action="store_true",
                        help="compare despite different config sets")
    parser.add_argument("--print-baseline", action="store_true",
                        help="print the selected baseline path and "
                             "exit (directory mode dry run)")
    args = parser.parse_args(argv)

    baseline = args.baseline
    if Path(baseline).is_dir():
        try:
            baseline, reason = select_baseline(baseline)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(f"baseline: {baseline} ({reason})", file=sys.stderr)
    if args.print_baseline:
        print(baseline)
        return 0

    try:
        base_doc = load_bench(baseline)
        cand_doc = load_bench(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    base_hash = base_doc.get("manifest", {}).get("config_hash")
    cand_hash = cand_doc.get("manifest", {}).get("config_hash")
    if base_hash != cand_hash and not args.ignore_config_hash:
        print(f"config hash mismatch: baseline {base_hash}, "
              f"candidate {cand_hash} (different design points; "
              "rerun espsim bench or pass --ignore-config-hash)",
              file=sys.stderr)
        return 1

    base_cells = {(c["app"], c["config"]): c
                  for c in base_doc["cells"]}
    cand_cells = {(c["app"], c["config"]): c
                  for c in cand_doc["cells"]}
    shared = sorted(base_cells.keys() & cand_cells.keys())
    if not shared:
        print("error: the artifacts share no (app, config) cells",
              file=sys.stderr)
        return 2

    regressions = 0
    compared = 0
    skipped = 0
    for key in shared:
        base, cand = base_cells[key], cand_cells[key]
        name = f"{key[0]}/{key[1]}"
        if (base["wall_ms"] < args.min_wall_ms
                or cand["wall_ms"] < args.min_wall_ms):
            skipped += 1
            continue
        compared += 1
        for metric in ("cycles_per_sec", "events_per_sec"):
            slow = slowdown(base[metric], cand[metric])
            marker = ""
            if slow > args.rel_tol:
                regressions += 1
                marker = "  REGRESSION"
            print(f"{name:<24} {metric:<16} "
                  f"{base[metric]:>14.0f} -> {cand[metric]:>14.0f} "
                  f"({-100 * slow:+.1f}%){marker}")

    # Suite wall regresses when the *candidate* takes longer.
    base_wall = base_doc.get("suite_wall_ms", 0.0)
    cand_wall = cand_doc.get("suite_wall_ms", 0.0)
    wall_slow = (cand_wall - base_wall) / base_wall if base_wall else 0.0
    marker = ""
    if wall_slow > args.rel_tol:
        regressions += 1
        marker = "  REGRESSION"
    print(f"{'suite':<24} {'wall_ms':<16} "
          f"{base_doc.get('suite_wall_ms', 0):>14.0f} -> "
          f"{cand_doc.get('suite_wall_ms', 0):>14.0f}{marker}")

    print(f"compared {compared} cells ({skipped} below "
          f"--min-wall-ms), {regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Paired A/B runs of the ESP-Sim benchmark on one host: the perf gate.

    bench_ab.py --parent DIR --change DIR [--workload W]... [--seed S]
                [--claim METRIC@WORKLOAD]... [--out record.json]

Each DIR is a full checkout (for example from `git worktree add`) and
both hold the same BENCHMARK.json; no git is run. Per workload
(default: all), 10 pairs of `--trace 0` benchmark runs alternate which
side goes first; a run's last JSON line is its result (a run without
one counts as one failed cell). Exit 1 when a change median of an
end-to-end metric is worse than the parent's beyond the metric's bound
(direction from `better`), when the change fails a larger share of its
cells, or when a --claim is not met: the change wins at least 9 of 10
pairs and beats the parent median by more than the parent's IQR. A
metric whose parent spread (IQR / median) exceeds its bound prints as
"unresolved", unless every change run beats every parent run. Exit 2 on usage errors or differing BENCHMARK.json files.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SIDES = ("parent", "change")


def summarize(values):
    """Median and IQR, quartiles as in espbench/README.md."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0} if values else None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1}


def value(run, name):
    """A run's value of metric `name` (None when it has none)."""
    return run["metrics"].get(name, {}).get("value")


def worse_by(metric, parent, change):
    """Relative change of `change` against `parent`; > 0 means worse."""
    if parent == 0:
        return 0.0
    sign = -1.0 if metric["better"] == "higher" else 1.0
    return sign * (change - parent) / abs(parent)


def decide(bench, runs, claims=()):
    """The gate's verdict: (ok, report lines, record).

    `runs` maps workload -> side -> list of result lines (attempted,
    failed, metrics as {name: {"value", "unit"}}); item i is pair i.
    """
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok, lines, record = True, [], {}
    for workload, sides in runs.items():
        shares = {s: sum(r["failed"] for r in sides[s]) /
                  max(1, sum(r["attempted"] for r in sides[s]))
                  for s in SIDES}
        summary = {s: {} for s in SIDES}
        status = {}
        lines.append(f"== {workload} ({len(sides['change'])} pairs)")
        for name, metric in metrics.items():
            vals = {s: [v for v in (value(r, name) for r in sides[s])
                        if v is not None] for s in SIDES}
            for s in SIDES:
                summary[s][name] = summarize(vals[s])
            p, c = summary["parent"][name], summary["change"][name]
            if p is None or c is None:
                continue
            delta = worse_by(metric, p["median"], c["median"])
            shift = c["median"] / p["median"] - 1 if p["median"] else 0.0
            spread = p["iqr"] / abs(p["median"]) if p["median"] else 0.0
            # A wide spread hides a shift of the bound's size, unless
            # every change run beats every parent run.
            beats_all = all(worse_by(metric, pv, cv) < 0
                            for pv in vals["parent"] for cv in vals["change"])
            status[name] = ("regressed" if delta > metric["bound"] else
                            "unresolved" if spread > metric["bound"] and
                            not beats_all else "ok")
            ok &= status[name] != "regressed"
            lines.append(
                f"  {name:26} {p['median']:.4g} (IQR {p['iqr']:.3g}) -> "
                f"{c['median']:.4g} (IQR {c['iqr']:.3g})  "
                f"{shift:+.1%}  {status[name]}")
        if shares["change"] > shares["parent"]:
            ok = False
            lines.append(f"  failed share {shares['parent']:.3f} -> "
                         f"{shares['change']:.3f}  regressed")
        record[workload] = {"runs": sides, "summary": summary,
                            "status": status, "failed_share": shares}
    for claim in claims:
        name, _, workload = claim.partition("@")
        metric, sides = metrics[name], runs[workload]
        pairs = [(value(p, name), value(c, name))
                 for p, c in zip(sides["parent"], sides["change"])]
        wins = sum(1 for p, c in pairs
                   if None not in (p, c) and worse_by(metric, p, c) < 0)
        p = record[workload]["summary"]["parent"][name]
        c = record[workload]["summary"]["change"][name]
        met = bool(p and c and wins >= 0.9 * len(pairs) and
                   worse_by(metric, p["median"], c["median"]) < 0 and
                   abs(c["median"] - p["median"]) > p["iqr"])
        ok &= met
        lines.append(f"claim {claim}: change wins {wins}/{len(pairs)} "
                     f"pairs  {'met' if met else 'NOT met'}")
    lines.append("PASS" if ok else "FAIL")
    return ok, lines, record


def run_once(bench, checkout, workload, seed):
    """One benchmark run in `checkout`: its result line."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"attempted": 1, "failed": 1, "metrics": {},
                "error": f"exit {proc.returncode}, no result line"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--claim", action="append", default=[])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    try:
        texts = [(Path(d) / "BENCHMARK.json").read_bytes()
                 for d in (args.parent, args.change)]
    except OSError as exc:
        ap.error(str(exc))
    if texts[0] != texts[1]:
        print("bench_ab: refused: the two BENCHMARK.json files differ",
              file=sys.stderr)
        return 2
    bench = json.loads(texts[0])
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    for w in workloads:
        if w not in names:
            ap.error(f"unknown workload '{w}'")
    for claim in args.claim:
        name, _, w = claim.partition("@")
        if w not in workloads or name not in {m["name"] for m in
                                              bench["end_to_end"]}:
            ap.error(f"--claim {claim}: not METRIC@WORKLOAD with an "
                     "end-to-end metric and a workload that runs")
    runs = {w: {s: [] for s in SIDES} for w in workloads}
    for w in workloads:
        for i in range(PAIRS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = run_once(bench, getattr(args, side), w, args.seed)
                runs[w][side].append(result)
                print(f"bench_ab: {w} pair {i + 1}/{PAIRS} {side}: "
                      f"sim_minst_per_s {value(result, 'sim_minst_per_s')}",
                      file=sys.stderr)
    ok, lines, record = decide(bench, runs, args.claim)
    print("\n".join(lines))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "pairs": PAIRS, "claims": args.claim,
             "ok": ok, "workloads": record}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Render phase plots from a telemetry stream.

Reads an `espsim-telemetry-stream` JSON-lines file (espsim run/serve
--telemetry PATH --telemetry-period N) and prints an ASCII time series
of derived per-interval metrics: how IPC, the L1-I MPKI, the L1-D miss
rate and ESP pre-execution occupancy evolve over the run. End-of-run
aggregates (the paper's figures) hide phase behaviour — a warmup
transient, a pointer-chasing stretch, an ESP window that only pays off
mid-run; this is the tool that shows it.

The stream stores absolute, monotone counter snapshots (see
src/report/telemetry.hh), never rates. An interval is the difference
of two consecutive snapshots; the first one runs from the start of
the measured run, where the simulator has reset every counter to
zero. An interval in which no counter moved (a final snapshot taken
on a grid point) is not plotted. A stream with several run blocks
(one per `espsim serve` config) is plotted block by block.

Standard library only, so it runs anywhere the repo builds.

Usage:
    plot_intervals.py STREAM.jsonl [--metric NAME] [--width N]

Exit code 0 on success, 1 on a malformed stream or an unknown metric
name.
"""

import argparse
import json
import sys

BAR_WIDTH = 50
STREAM_SCHEMA = "espsim-telemetry-stream"


def _ratio(deltas, num, den, scale=1.0):
    d = deltas.get(den, 0.0)
    return scale * deltas.get(num, 0.0) / d if d else 0.0


# name -> (description, fn(deltas) -> value)
METRICS = {
    "ipc": ("instructions per cycle",
            lambda d: _ratio(d, "core.instructions", "core.cycles")),
    "l1i_mpki": ("L1-I misses per kilo-instruction",
                 lambda d: _ratio(d, "mem.l1i.misses",
                                  "core.instructions", 1000.0)),
    "l1d_miss_rate": ("L1-D miss fraction",
                      lambda d: _ratio(d, "mem.l1d.misses",
                                       "mem.l1d.accesses")),
    "esp_occupancy": ("ESP pre-execution cycles per cycle",
                      lambda d: _ratio(d, "core.cycle_bucket.esp_pre_exec",
                                       "core.cycles")),
    "events_per_interval": ("events retired in the interval",
                            lambda d: d.get("core.events", 0.0)),
}


def load_blocks(path):
    """Return [(header, [(end_cycle, {name: delta})])], one per block."""
    blocks = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: not an object")
            if "schema" in record:
                if record["schema"] != STREAM_SCHEMA:
                    raise ValueError(
                        f"{path}:{number}: not an {STREAM_SCHEMA}")
                names = record.get("names")
                if not isinstance(names, list):
                    raise ValueError(f"{path}:{number}: header has no "
                                     "names")
                blocks.append((record, [], [0.0] * len(names)))
                continue
            if not blocks:
                raise ValueError(f"{path}:{number}: snapshot before "
                                 "any header")
            header, intervals, prev = blocks[-1]
            values = record.get("values")
            if (not isinstance(values, list)
                    or len(values) != len(prev)):
                raise ValueError(f"{path}:{number}: values width != "
                                 "names width")
            deltas = [v - p for v, p in zip(values, prev)]
            prev[:] = values
            if any(deltas):
                intervals.append((record["cycle"],
                                  dict(zip(header["names"], deltas))))
    if not blocks:
        raise ValueError(f"{path}: no {STREAM_SCHEMA} header")
    return [(header, intervals) for header, intervals, _ in blocks]


def plot_metric(name, header, intervals, width):
    description, fn = METRICS[name]
    rows = [(end_cycle, fn(deltas)) for end_cycle, deltas in intervals]
    peak = max((value for _, value in rows), default=0.0)
    print(f"{name} ({description}) — {header.get('config', '?')} on "
          f"{header.get('workload', '?')}, {len(rows)} intervals")
    for end_cycle, value in rows:
        frac = value / peak if peak else 0.0
        bar = "#" * round(frac * width)
        print(f"  @{end_cycle:>12} {value:>10.4f}  {bar}")
    print()


def main(argv):
    parser = argparse.ArgumentParser(
        description="phase plots from a telemetry stream")
    parser.add_argument("stream")
    parser.add_argument("--metric", action="append",
                        help="metric to plot (default: all); one of "
                             + ", ".join(sorted(METRICS)))
    parser.add_argument("--width", type=int, default=BAR_WIDTH,
                        help="bar width in characters")
    args = parser.parse_args(argv)

    wanted = args.metric or sorted(METRICS)
    for name in wanted:
        if name not in METRICS:
            print(f"error: unknown metric {name!r} (choose from "
                  f"{', '.join(sorted(METRICS))})", file=sys.stderr)
            return 1

    try:
        blocks = load_blocks(args.stream)
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not any(intervals for _, intervals in blocks):
        print("error: stream has no intervals (run long enough for "
              "at least one --telemetry-period)", file=sys.stderr)
        return 1

    for header, intervals in blocks:
        for name in wanted:
            plot_metric(name, header, intervals, args.width)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

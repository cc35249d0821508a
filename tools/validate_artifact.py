#!/usr/bin/env python3
"""Validate an espsim observability artifact.

Checks the schema of the JSON artifacts the simulator's binaries
write — suite artifacts (espsim suite / figure binaries --json), table
artifacts (descriptive figures --json), Chrome-trace timelines
(espsim run --timeline), latency and span artifacts (espsim serve)
and observatory reports (espsim report), plus the committed bench
baselines (bench/baselines/).
Standard library only, so it runs anywhere the repo builds.

Files ending in ``.jsonl`` are treated as telemetry streams — the
counter time series (``espsim run/serve --telemetry``): one header
line per run block followed by absolute counter snapshots.  The
semantic checks mirror the stream's contract (src/report/telemetry.hh):
contiguous 1-based seq, monotone cycle/events/counter values within a
block, and exactly one ``"final": true`` line closing each block.

Usage:
    validate_artifact.py ARTIFACT.json [ARTIFACT2.jsonl ...]

Exit code 0 when every file validates, 1 otherwise; problems are
printed one per line as `file: message`.
"""

import json
import math
import sys

SUITE_SCHEMA = "espsim-suite-artifact"
TABLE_SCHEMA = "espsim-table-artifact"
BENCH_SCHEMA = "espsim-bench-artifact"
LATENCY_SCHEMA = "espsim-latency-artifact"
SPAN_SCHEMA = "espsim-span-artifact"
TELEMETRY_SCHEMA = "espsim-telemetry-stream"
OBSERVATORY_SCHEMA = "espsim-observatory-report"
SUPPORTED_FORMAT_VERSIONS = {1}


def _fail(problems, message):
    problems.append(message)
    return problems


def _check_manifest(doc, problems, *, want_hash):
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        return _fail(problems, "missing manifest object")
    for key in ("source", "tool_version", "build_type"):
        if not isinstance(manifest.get(key), str) or not manifest[key]:
            _fail(problems, f"manifest.{key} missing or empty")
    if want_hash:
        config_hash = manifest.get("config_hash")
        if (not isinstance(config_hash, str) or len(config_hash) != 16
                or any(c not in "0123456789abcdef"
                       for c in config_hash)):
            _fail(problems, "manifest.config_hash is not a 16-digit "
                            "lowercase hex string")
    return problems


def validate_suite(doc, problems):
    _check_manifest(doc, problems, want_hash=True)
    manifest = doc.get("manifest", {})
    apps = manifest.get("apps")
    configs = manifest.get("configs")
    if not isinstance(apps, list) or not apps:
        _fail(problems, "manifest.apps missing or empty")
    if not isinstance(configs, list) or not configs:
        _fail(problems, "manifest.configs missing or empty")
    results = doc.get("results")
    if not isinstance(results, list):
        return _fail(problems, "results missing")
    errors = doc.get("errors", [])
    if not isinstance(errors, list):
        _fail(problems, "errors is not a list")
        errors = []
    if not results and not errors:
        return _fail(problems, "results missing or empty")
    if (isinstance(apps, list) and isinstance(configs, list)
            and manifest.get("points") != len(apps) * len(configs)):
        _fail(problems, "manifest.points != apps x configs")
    # Failed cells land in the errors block instead of results; the
    # two together must still cover the whole (app, config) matrix.
    if (isinstance(apps, list) and isinstance(configs, list)
            and len(results) + len(errors) != len(apps) * len(configs)):
        _fail(problems, "results + errors length != apps x configs")
    for i, entry in enumerate(errors):
        where = f"errors[{i}]"
        if not isinstance(entry, dict):
            _fail(problems, f"{where} is not an object")
            continue
        if isinstance(apps, list) and entry.get("app") not in apps:
            _fail(problems, f"{where}.app not listed in manifest.apps")
        if (isinstance(configs, list)
                and entry.get("config") not in configs):
            _fail(problems,
                  f"{where}.config not listed in manifest.configs")
        message = entry.get("message")
        if not isinstance(message, str) or not message:
            _fail(problems, f"{where}.message missing or empty")
        config_hash = entry.get("config_hash")
        if (not isinstance(config_hash, str) or len(config_hash) != 16
                or any(c not in "0123456789abcdef"
                       for c in config_hash)):
            _fail(problems, f"{where}.config_hash is not a 16-digit "
                            "lowercase hex string")
    for i, entry in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(entry, dict):
            _fail(problems, f"{where} is not an object")
            continue
        if isinstance(apps, list) and entry.get("app") not in apps:
            _fail(problems, f"{where}.app not listed in manifest.apps")
        if (isinstance(configs, list)
                and entry.get("config") not in configs):
            _fail(problems,
                  f"{where}.config not listed in manifest.configs")
        stats = entry.get("stats")
        if not isinstance(stats, dict) or not stats:
            _fail(problems, f"{where}.stats missing or empty")
            continue
        for name, value in stats.items():
            # Non-finite values serialize as null by policy.
            if value is not None and not isinstance(value, (int, float)):
                _fail(problems, f"{where}.stats[{name!r}] is not a "
                                "number or null")
        for required in ("core.cycles", "derived.ipc"):
            if required not in stats:
                _fail(problems, f"{where}.stats lacks {required!r}")
    return problems


def validate_table(doc, problems):
    _check_manifest(doc, problems, want_hash=False)
    if not isinstance(doc.get("title"), str) or not doc["title"]:
        _fail(problems, "title missing or empty")
    header = doc.get("header")
    if not isinstance(header, list) or not header:
        return _fail(problems, "header missing or empty")
    rows = doc.get("rows")
    if not isinstance(rows, list):
        return _fail(problems, "rows missing")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(header):
            _fail(problems, f"rows[{i}] width != header width")
    return problems


def validate_bench(doc, problems):
    _check_manifest(doc, problems, want_hash=True)
    manifest = doc.get("manifest", {})
    for key in ("jobs", "repeat"):
        value = manifest.get(key)
        if not isinstance(value, int) or value < 1:
            _fail(problems,
                  f"manifest.{key} is not a positive integer")
    for key in ("suite_wall_ms", "peak_rss_mb"):
        value = doc.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            _fail(problems, f"{key} is not a non-negative number")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        return _fail(problems, "cells missing or empty")
    for i, cell in enumerate(cells):
        where = f"cells[{i}]"
        if not isinstance(cell, dict):
            _fail(problems, f"{where} is not an object")
            continue
        for key in ("app", "config"):
            if not isinstance(cell.get(key), str) or not cell[key]:
                _fail(problems, f"{where}.{key} missing or empty")
        for key in ("sim_cycles", "sim_events", "instructions"):
            value = cell.get(key)
            if not isinstance(value, int) or value < 0:
                _fail(problems,
                      f"{where}.{key} is not a non-negative integer")
        for key in ("wall_ms", "cycles_per_sec", "events_per_sec"):
            value = cell.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                _fail(problems,
                      f"{where}.{key} is not a non-negative number")
    return problems


def _check_latency_summary(summary, where, problems):
    if not isinstance(summary, dict):
        _fail(problems, f"{where} is not an object")
        return None
    count = summary.get("count")
    if not isinstance(count, int) or count < 0:
        _fail(problems, f"{where}.count is not a non-negative integer")
    for key in ("mean", "max", "p50", "p95", "p99", "p999"):
        value = summary.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            _fail(problems,
                  f"{where}.{key} is not a non-negative number")
            return None
    # Quantiles of one sample set are necessarily monotone; a
    # violation means the reservoir or summariser is broken.
    chain = ("p50", "p95", "p99", "p999", "max")
    for lo, hi in zip(chain, chain[1:]):
        if summary[lo] > summary[hi]:
            _fail(problems, f"{where}.{lo} > {where}.{hi}")
    return summary


def validate_latency(doc, problems):
    """`espsim serve` tail-latency artifact."""
    _check_manifest(doc, problems, want_hash=True)
    manifest = doc.get("manifest", {})
    if not isinstance(manifest.get("profile"), str) \
            or not manifest.get("profile"):
        _fail(problems, "manifest.profile missing or empty")
    for key in ("events", "window", "reservoir_capacity"):
        value = manifest.get(key)
        if not isinstance(value, int) or value < 0:
            _fail(problems,
                  f"manifest.{key} is not a non-negative integer")
    configs = manifest.get("configs")
    if not isinstance(configs, list) or not configs:
        _fail(problems, "manifest.configs missing or empty")
    arrival = manifest.get("arrival")
    if not isinstance(arrival, dict):
        _fail(problems, "manifest.arrival missing or not an object")
    else:
        if arrival.get("kind") not in ("poisson", "bursty", "closed"):
            _fail(problems, "manifest.arrival.kind is not a known "
                            "discipline")
        # A NaN or infinite gap renders as null, and a schedule built
        # from one is meaningless.
        for key in ("mean_gap_cycles", "burst_gap_factor",
                    "calm_gap_factor", "mean_burst_cycles",
                    "mean_calm_cycles"):
            value = arrival.get(key)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not math.isfinite(value) or value < 0):
                _fail(problems, f"manifest.arrival.{key} is not a "
                                "finite non-negative number")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return _fail(problems, "results missing or empty")
    if isinstance(configs, list) and len(results) != len(configs):
        _fail(problems, "results length != manifest.configs length")
    for i, entry in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(entry, dict):
            _fail(problems, f"{where} is not an object")
            continue
        if (isinstance(configs, list)
                and entry.get("config") not in configs):
            _fail(problems,
                  f"{where}.config not listed in manifest.configs")
        for key in ("cycles", "idle_cycles", "events"):
            value = entry.get(key)
            if not isinstance(value, int) or value < 0:
                _fail(problems,
                      f"{where}.{key} is not a non-negative integer")
        ipc = entry.get("ipc")
        if not isinstance(ipc, (int, float)) or ipc < 0:
            _fail(problems, f"{where}.ipc is not a non-negative number")
        latency = entry.get("latency")
        if not isinstance(latency, dict):
            _fail(problems, f"{where}.latency missing")
            continue
        total = None
        for klass in ("queue", "service", "total"):
            summary = _check_latency_summary(
                latency.get(klass), f"{where}.latency.{klass}",
                problems)
            if klass == "total":
                total = summary
        handlers = entry.get("handlers")
        if not isinstance(handlers, list):
            _fail(problems, f"{where}.handlers missing or not a list")
        else:
            handler_events = 0
            for j, row in enumerate(handlers):
                hw = f"{where}.handlers[{j}]"
                if not isinstance(row, dict):
                    _fail(problems, f"{hw} is not an object")
                    continue
                for key in ("handler", "events"):
                    value = row.get(key)
                    if not isinstance(value, int) or value < 0:
                        _fail(problems, f"{hw}.{key} is not a "
                                        "non-negative integer")
                if isinstance(row.get("events"), int):
                    handler_events += row["events"]
                for klass in ("queue", "service"):
                    _check_latency_summary(row.get(klass),
                                           f"{hw}.{klass}", problems)
            # Every served request belongs to exactly one handler.
            if (handlers and isinstance(entry.get("events"), int)
                    and handler_events != entry["events"]):
                _fail(problems, f"{where}.handlers events sum != "
                                f"{where}.events")
        histogram = entry.get("histogram")
        if not isinstance(histogram, dict):
            _fail(problems, f"{where}.histogram missing")
            continue
        if histogram.get("scale") != "pow2_cycles":
            _fail(problems, f"{where}.histogram.scale != 'pow2_cycles'")
        buckets = histogram.get("buckets")
        if (not isinstance(buckets, list)
                or not all(isinstance(b, int) and b >= 0
                           for b in buckets)):
            _fail(problems, f"{where}.histogram.buckets not a list of "
                            "non-negative integers")
        elif total is not None and isinstance(total.get("count"), int) \
                and sum(buckets) != total["count"]:
            _fail(problems, f"{where}.histogram buckets sum != "
                            "latency.total.count")
    return problems


CYCLE_BUCKETS = (
    "retiring", "frontend_bubble", "icache_miss", "dcache_miss",
    "lsq_full", "mispredict_redirect", "drain", "looper_overhead",
    "esp_pre_exec", "runahead", "idle",
)

PREFETCH_SOURCES = (
    "esp_ilist", "esp_dlist", "next_line_instr", "next_line_data",
    "stride_data", "other",
)


def _check_span(span, where, problems):
    """One RequestSpan record: field shape plus closure invariants."""
    if not isinstance(span, dict):
        _fail(problems, f"{where} is not an object")
        return None
    for key in ("event", "handler", "arrival", "dispatch", "retire",
                "queue_cycles", "service_cycles", "total_cycles",
                "span_cycles", "instructions"):
        value = span.get(key)
        if not isinstance(value, int) or value < 0:
            _fail(problems,
                  f"{where}.{key} is not a non-negative integer")
            return None
    if span["queue_cycles"] + span["service_cycles"] \
            != span["total_cycles"]:
        _fail(problems, f"{where}: queue + service != total")
    buckets = span.get("buckets")
    if (not isinstance(buckets, dict)
            or sorted(buckets) != sorted(CYCLE_BUCKETS)
            or not all(isinstance(v, int) and v >= 0
                       for v in buckets.values())):
        _fail(problems, f"{where}.buckets is not the full cycle-bucket "
                        "set of non-negative integers")
        return None
    # The span window closure invariant: the bucket deltas captured
    # over the span must tile it exactly (see src/report/spans.hh).
    if sum(buckets.values()) != span["span_cycles"]:
        _fail(problems, f"{where}: bucket sum != span_cycles")
    esp = span.get("esp")
    if not isinstance(esp, dict):
        _fail(problems, f"{where}.esp missing")
        return span
    pre_exec = esp.get("pre_exec_cycles")
    if not isinstance(pre_exec, int) or pre_exec < 0:
        _fail(problems,
              f"{where}.esp.pre_exec_cycles is not a non-negative "
              "integer")
    elif pre_exec != buckets["esp_pre_exec"]:
        _fail(problems,
              f"{where}.esp.pre_exec_cycles != buckets.esp_pre_exec")
    prefetch = esp.get("prefetch")
    if (not isinstance(prefetch, dict)
            or sorted(prefetch) != sorted(PREFETCH_SOURCES)):
        _fail(problems, f"{where}.esp.prefetch is not the full "
                        "prefetch-source set")
        return span
    for source, stats in prefetch.items():
        sw = f"{where}.esp.prefetch.{source}"
        if not isinstance(stats, dict):
            _fail(problems, f"{sw} is not an object")
            continue
        for key in ("issued", "timely", "late", "harmful"):
            value = stats.get(key)
            if not isinstance(value, int) or value < 0:
                _fail(problems,
                      f"{sw}.{key} is not a non-negative integer")
    return span


def validate_span(doc, problems):
    """`espsim serve --trace-spans` blame-decomposition artifact."""
    _check_manifest(doc, problems, want_hash=True)
    manifest = doc.get("manifest", {})
    if not isinstance(manifest.get("profile"), str) \
            or not manifest.get("profile"):
        _fail(problems, "manifest.profile missing or empty")
    for key in ("events", "flight_recorder", "worst_k",
                "anomaly_min_samples"):
        value = manifest.get(key)
        if not isinstance(value, int) or value < 0:
            _fail(problems,
                  f"manifest.{key} is not a non-negative integer")
    threshold = manifest.get("anomaly_threshold")
    if not isinstance(threshold, (int, float)) or threshold <= 0:
        _fail(problems,
              "manifest.anomaly_threshold is not a positive number")
    configs = manifest.get("configs")
    if not isinstance(configs, list) or not configs:
        _fail(problems, "manifest.configs missing or empty")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return _fail(problems, "results missing or empty")
    if isinstance(configs, list) and len(results) != len(configs):
        _fail(problems, "results length != manifest.configs length")
    for i, entry in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(entry, dict):
            _fail(problems, f"{where} is not an object")
            continue
        if (isinstance(configs, list)
                and entry.get("config") not in configs):
            _fail(problems,
                  f"{where}.config not listed in manifest.configs")
        for key in ("cycles", "events", "spans_recorded",
                    "anomaly_overflow"):
            value = entry.get(key)
            if not isinstance(value, int) or value < 0:
                _fail(problems,
                      f"{where}.{key} is not a non-negative integer")
        p99 = entry.get("running_p99")
        if not isinstance(p99, (int, float)) or p99 < 0:
            _fail(problems,
                  f"{where}.running_p99 is not a non-negative number")
        dump = entry.get("dump")
        if not isinstance(dump, dict) \
                or not isinstance(dump.get("triggered"), bool):
            _fail(problems, f"{where}.dump.triggered missing")
        elif dump["triggered"] and not isinstance(dump.get("event"),
                                                  int):
            _fail(problems,
                  f"{where}.dump.event missing on a triggered dump")
        worst = entry.get("worst")
        if not isinstance(worst, list):
            _fail(problems, f"{where}.worst missing or not a list")
            worst = []
        prev_total = None
        for j, span in enumerate(worst):
            checked = _check_span(span, f"{where}.worst[{j}]", problems)
            if checked is None:
                continue
            total = checked["total_cycles"]
            if prev_total is not None and total > prev_total:
                _fail(problems,
                      f"{where}.worst not sorted by total_cycles "
                      "descending")
            prev_total = total
        anomalies = entry.get("anomalies")
        if not isinstance(anomalies, list):
            _fail(problems, f"{where}.anomalies missing or not a list")
            anomalies = []
        for j, record in enumerate(anomalies):
            aw = f"{where}.anomalies[{j}]"
            if not isinstance(record, dict):
                _fail(problems, f"{aw} is not an object")
                continue
            ref = record.get("running_p99")
            if not isinstance(ref, (int, float)) or ref < 0:
                _fail(problems,
                      f"{aw}.running_p99 is not a non-negative number")
            span = _check_span(record.get("span"), f"{aw}.span",
                               problems)
            # The detector's defining inequality, replayed offline.
            if (span is not None and isinstance(threshold, (int, float))
                    and isinstance(ref, (int, float))
                    and span["total_cycles"] <= threshold * ref):
                _fail(problems,
                      f"{aw}: span total does not exceed threshold x "
                      "running_p99")
    return problems


def _check_telemetry_header(doc, where, problems):
    """One telemetry block header line; returns names or None."""
    if doc.get("schema") != TELEMETRY_SCHEMA:
        _fail(problems, f"{where}: expected a block header with "
                        f"schema {TELEMETRY_SCHEMA!r}")
        return None
    # Version 2 dropped the header's wall_ms: pacing is by cycles only.
    if doc.get("format_version") != 2:
        _fail(problems, f"{where}: unsupported format_version")
    for key in ("config", "workload"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            _fail(problems, f"{where}: {key} missing or empty")
    config_hash = doc.get("config_hash")
    if (not isinstance(config_hash, str) or len(config_hash) != 16
            or any(c not in "0123456789abcdef" for c in config_hash)):
        _fail(problems, f"{where}: config_hash is not a 16-digit "
                        "lowercase hex string")
    period = doc.get("period_cycles")
    if not isinstance(period, int) or period < 0:
        _fail(problems,
              f"{where}: period_cycles is not a non-negative integer")
    names = doc.get("names")
    if not isinstance(names, list) or not names \
            or not all(isinstance(n, str) and n for n in names):
        _fail(problems, f"{where}: names missing or not a list of "
                        "non-empty strings")
        return None
    if sorted(names) != names:
        _fail(problems, f"{where}: names are not sorted")
    return names


def validate_telemetry_stream(path):
    """A .jsonl telemetry stream: header + snapshot lines per block.

    Semantic contract (src/report/telemetry.hh): within a block, seq
    is contiguous from 1, cycle/events never decrease, every counter
    value is monotone non-decreasing (they are absolute readouts of
    monotone counters), and the block closes with exactly one
    `"final": true` line. A stream may carry several blocks (a serve
    sweep writes one per config).
    """
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        return [str(exc)]
    if not lines:
        return _fail(problems, "empty telemetry stream")

    names = None          # current block's frozen name set
    prev = None           # previous snapshot line of the block
    block_closed = True   # no block open yet
    block = 0
    for i, raw in enumerate(lines):
        where = f"line {i + 1}"
        if not raw.strip():
            _fail(problems, f"{where}: blank line")
            continue
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            _fail(problems, f"{where}: {exc}")
            continue
        if not isinstance(doc, dict):
            _fail(problems, f"{where}: not an object")
            continue
        if "schema" in doc:
            # A new block header. The previous block (if any) must
            # have been closed by a final snapshot.
            if not block_closed:
                _fail(problems, f"{where}: block {block} not closed "
                                "by a final snapshot")
            block += 1
            names = _check_telemetry_header(doc, where, problems)
            prev = None
            block_closed = False
            continue
        if names is None:
            _fail(problems, f"{where}: snapshot before any valid "
                            "block header")
            continue
        if block_closed:
            _fail(problems, f"{where}: snapshot after the final "
                            f"snapshot of block {block}")
            continue
        seq = doc.get("seq")
        want_seq = 1 if prev is None else prev["seq"] + 1
        if not isinstance(seq, int) or seq != want_seq:
            _fail(problems,
                  f"{where}: seq is {seq!r}, expected {want_seq} "
                  "(contiguous, 1-based)")
        for key in ("cycle", "events"):
            value = doc.get(key)
            if not isinstance(value, int) or value < 0:
                _fail(problems,
                      f"{where}: {key} is not a non-negative integer")
            elif prev is not None and value < prev[key]:
                _fail(problems, f"{where}: {key} decreased "
                                f"({prev[key]} -> {value})")
        values = doc.get("values")
        if (not isinstance(values, list) or len(values) != len(names)
                or not all(isinstance(v, (int, float))
                           for v in values)):
            _fail(problems, f"{where}: values not numeric or length "
                            "!= header names length")
            values = None
        elif prev is not None and prev["values"] is not None:
            for name, before, now in zip(names, prev["values"],
                                         values):
                if now < before:
                    _fail(problems,
                          f"{where}: counter {name!r} decreased "
                          f"({before} -> {now})")
        final = doc.get("final", False)
        if final is True:
            block_closed = True
        elif final is not False:
            _fail(problems, f"{where}: final is not a boolean")
        if isinstance(seq, int) and isinstance(doc.get("cycle"), int) \
                and isinstance(doc.get("events"), int):
            prev = {"seq": seq, "cycle": doc["cycle"],
                    "events": doc["events"], "values": values}
    if block == 0:
        _fail(problems, "no block header found")
    elif not block_closed:
        _fail(problems, f"block {block} not closed by a final "
                        "snapshot")
    return problems


def validate_observatory(doc, problems):
    """`espsim report` cross-run report; group members index runs[],
    and a group whose runs have no recorded order carries no trend."""
    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        return _fail(problems, "missing manifest object")
    if not isinstance(manifest.get("source"), str) \
            or not manifest.get("source"):
        _fail(problems, "manifest.source missing or empty")
    tolerance = manifest.get("tolerance")
    if not isinstance(tolerance, (int, float)) or tolerance < 0:
        _fail(problems,
              "manifest.tolerance is not a non-negative number")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return _fail(problems, "runs missing or empty")
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            _fail(problems, f"{where} is not an object")
            continue
        for key in ("path", "schema"):
            if not isinstance(run.get(key), str) or not run[key]:
                _fail(problems, f"{where}.{key} missing or empty")
        metrics = run.get("metrics")
        if not isinstance(metrics, dict):
            _fail(problems, f"{where}.metrics missing")
        elif not all(isinstance(v, (int, float))
                     for v in metrics.values()):
            _fail(problems, f"{where}.metrics not all numeric")
    groups = doc.get("groups")
    if not isinstance(groups, list):
        return _fail(problems, "groups missing")
    flagged = 0
    for i, group in enumerate(groups):
        where = f"groups[{i}]"
        if not isinstance(group, dict):
            _fail(problems, f"{where} is not an object")
            continue
        if not isinstance(group.get("schema"), str):
            _fail(problems, f"{where}.schema missing")
        members = group.get("runs")
        if not isinstance(members, list) or not members:
            _fail(problems, f"{where}.runs missing or empty")
            members = []
        for ref in members:
            if not isinstance(ref, int) or isinstance(ref, bool):
                _fail(problems,
                      f"{where}.runs entry {ref!r} is not an index")
            elif not 0 <= ref < len(runs):
                _fail(problems,
                      f"{where}.runs index {ref} out of range")
        trends = group.get("trends")
        if not isinstance(trends, list):
            _fail(problems, f"{where}.trends missing or not a list")
            trends = []
        if len(members) < 2 and trends:
            _fail(problems,
                  f"{where}: trends present with fewer than 2 runs")
        if not isinstance(group.get("ordered"), bool):
            _fail(problems, f"{where}.ordered is not a boolean")
        elif not group["ordered"] and trends:
            _fail(problems, f"{where}: trends present in an "
                            "unordered group")
        for j, trend in enumerate(trends):
            tw = f"{where}.trends[{j}]"
            if not isinstance(trend, dict):
                _fail(problems, f"{tw} is not an object")
                continue
            if not isinstance(trend.get("metric"), str) \
                    or not trend.get("metric"):
                _fail(problems, f"{tw}.metric missing or empty")
            for key in ("first", "last", "rel_change"):
                if not isinstance(trend.get(key), (int, float)):
                    _fail(problems, f"{tw}.{key} is not a number")
            for key in ("higher_is_better", "regressed"):
                if not isinstance(trend.get(key), bool):
                    _fail(problems, f"{tw}.{key} is not a boolean")
            flagged += trend.get("regressed") is True
            # Replay the regression rule offline: the flag must
            # follow from rel_change, direction and tolerance.
            rel = trend.get("rel_change")
            if (isinstance(rel, (int, float))
                    and isinstance(tolerance, (int, float))
                    and isinstance(trend.get("higher_is_better"),
                                   bool)
                    and isinstance(trend.get("regressed"), bool)):
                bad = -rel if trend["higher_is_better"] else rel
                if trend["regressed"] != (bad > tolerance):
                    _fail(problems,
                          f"{tw}.regressed inconsistent with "
                          "rel_change and tolerance")
    regressions = doc.get("regressions")
    if not isinstance(regressions, int) or regressions < 0:
        _fail(problems,
              "regressions is not a non-negative integer")
    elif regressions != flagged:
        _fail(problems, f"regressions is {regressions} but "
                        f"{flagged} trend(s) are flagged")
    if not isinstance(doc.get("skipped"), list):
        _fail(problems, "skipped missing or not a list")
    return problems


def validate_timeline(doc, problems):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return _fail(problems, "traceEvents missing or empty")
    other = doc.get("otherData")
    if not isinstance(other, dict) or other.get("tool") != "espsim":
        _fail(problems, "otherData.tool != 'espsim'")
    elif (other.get("timeline_format_version")
          not in SUPPORTED_FORMAT_VERSIONS):
        _fail(problems, "unsupported otherData.timeline_format_version")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            _fail(problems, f"{where} is not an object")
            continue
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase == "C":
            # Counter sample (cycle-accounting track): numeric series
            # in args, no duration.
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                _fail(problems, f"{where} counter lacks args")
            elif not all(isinstance(v, (int, float))
                         for v in args.values()):
                _fail(problems, f"{where} counter args not numeric")
            for key in ("name", "ts", "pid", "tid"):
                if key not in event:
                    _fail(problems, f"{where} lacks {key!r}")
            continue
        if phase != "X":
            _fail(problems,
                  f"{where}.ph is {phase!r}, expected X, C or M")
            continue
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in event:
                _fail(problems, f"{where} lacks {key!r}")
        if isinstance(event.get("ts"), (int, float)) and event["ts"] < 0:
            _fail(problems, f"{where}.ts is negative")
    return problems


def validate(path):
    if path.endswith(".jsonl"):
        return validate_telemetry_stream(path)
    problems = []
    try:
        with open(path, "rb") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]

    if "traceEvents" in doc:
        return validate_timeline(doc, problems)

    schema = doc.get("schema")
    handlers = {
        SUITE_SCHEMA: validate_suite,
        TABLE_SCHEMA: validate_table,
        BENCH_SCHEMA: validate_bench,
        LATENCY_SCHEMA: validate_latency,
        SPAN_SCHEMA: validate_span,
        OBSERVATORY_SCHEMA: validate_observatory,
    }
    if schema not in handlers:
        return _fail(problems, f"unknown schema {schema!r}")
    # Version 2 of the observatory report added groups[].ordered;
    # version 3 dropped runs[].degraded, which no artifact can set.
    versions = ({3} if schema == OBSERVATORY_SCHEMA
                else SUPPORTED_FORMAT_VERSIONS)
    if doc.get("format_version") not in versions:
        _fail(problems, "unsupported format_version")
    return handlers[schema](doc, problems)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    status = 0
    for path in argv[1:]:
        problems = validate(path)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            print(f"{path}: OK")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

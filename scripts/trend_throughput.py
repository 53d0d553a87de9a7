#!/usr/bin/env python3
"""Append the current BENCH_throughput.json run to a BENCH_trend.jsonl log.

Each invocation appends one compact JSON line keyed by the git commit the
report was produced from, so successive CI runs accumulate a trend of replay
throughput (and dense-vs-sparse speedups) over the repository's history:

    scripts/trend_throughput.py                        # defaults
    scripts/trend_throughput.py --report=B.json --trend=trend.jsonl
    scripts/trend_throughput.py --gate=10              # fail on >10% drop

If a line for the same commit already exists it is replaced, so re-running
a job never duplicates a data point.

With --gate=<pct>, the run is additionally compared against the most recent
prior trend entry (a different commit): the geometric mean of
dense_requests_per_sec over the trace cells present in both runs must not
drop by more than <pct> percent, or the script exits 2 — after still
recording the run. The first run on a fresh trend log always passes. CI
enforces the gate as a hard failure with a threshold wide enough to absorb
shared-runner clock noise (see WEBCACHE_GATE_PCT in .github/workflows);
local runs with a pinned CPU can gate much tighter. Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        return out or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return os.environ.get("GITHUB_SHA", "unknown")


def cell_speedups(cells):
    """[{label, speedup, dense_requests_per_sec, identical}, ...]"""
    out = []
    for cell in cells:
        label = cell.get("label") or "{} {}".format(
            cell.get("policy", "?"), cell.get("cost_model", ""))
        out.append({
            "label": label.strip(),
            "speedup": cell.get("speedup"),
            "dense_requests_per_sec": cell.get("dense_requests_per_sec"),
            "identical": cell.get("identical"),
        })
    return out


def summarize(report: dict) -> dict:
    entry = {
        "sha": git_sha(),
        "timestamp": int(time.time()),
        "scale": report.get("scale"),
        "seed": report.get("seed"),
        "cache_fraction": report.get("cache_fraction"),
        "reps": report.get("reps"),
        "peak_rss_kb": report.get("peak_rss_kb"),
        "all_identical": report.get("all_identical"),
        "hierarchy": cell_speedups(report.get("hierarchy", [])),
        "partitioned": cell_speedups(report.get("partitioned", [])),
        "stack_sweep": cell_speedups(report.get("stack_sweep", [])),
        "trace_load": cell_speedups(report.get("trace_load", [])),
        # Bounded-memory paths (absent in reports from before the streaming
        # engine landed): file-streamed replay and the SHARDS-sampled sweep
        # against their materialized twins.
        "streaming": cell_speedups(report.get("streaming", [])),
        # Checkpointed streaming replay vs the plain streamed baseline at
        # each snapshot cadence (absent in reports from before the
        # checkpoint layer landed). speedup < 1 here is the snapshot cost.
        "checkpoint": cell_speedups(report.get("checkpoint", [])),
    }
    # Sharded replay scaling ladder (absent in reports from before the
    # sharded engine landed). These keys ride along in the trend line; the
    # throughput gate still reads only the `traces` cells.
    sharded = report.get("sharded") or {}
    entry["sharded"] = {
        "policy": sharded.get("policy"),
        "serial_requests_per_sec": sharded.get("serial_requests_per_sec"),
        "delegation_overhead_pct": sharded.get("delegation_overhead_pct"),
        "cells": [
            {
                "label": cell.get("label"),
                "threads": cell.get("threads"),
                "requests_per_sec": cell.get("requests_per_sec"),
                "requests_per_sec_per_core":
                    cell.get("requests_per_sec_per_core"),
                "speedup_vs_serial": cell.get("speedup_vs_serial"),
                "identical": cell.get("identical"),
            }
            for cell in sharded.get("cells", [])
        ],
    }
    traces = []
    for trace in report.get("traces", []):
        traces.append({
            "trace": trace.get("trace"),
            "requests": trace.get("requests"),
            "densify_seconds": trace.get("densify_seconds"),
            "cells": cell_speedups(trace.get("cells", [])),
        })
    entry["traces"] = traces
    return entry


def dense_rps_by_cell(entry: dict) -> dict:
    """{(trace, label): dense_requests_per_sec} for every gated cell of the
    per-trace grid."""
    out = {}
    for trace in entry.get("traces", []):
        for cell in trace.get("cells", []):
            rps = cell.get("dense_requests_per_sec")
            if rps:
                out[(trace.get("trace"), cell.get("label"))] = rps
    return out


def gate_against(prior: dict, entry: dict, pct: float) -> int:
    """Returns 0 if the geometric-mean throughput over the cells common to
    both runs dropped by no more than pct percent, 2 otherwise."""
    current = dense_rps_by_cell(entry)
    baseline = dense_rps_by_cell(prior)
    common = sorted(set(current) & set(baseline))
    if not common:
        print("gate: no comparable cells in the prior entry; passing")
        return 0

    log_ratio = 0.0
    worst = (0.0, None)
    for key in common:
        ratio = current[key] / baseline[key]
        log_ratio += math.log(ratio)
        if worst[1] is None or ratio < worst[0]:
            worst = (ratio, key)
    geomean = math.exp(log_ratio / len(common))

    change = (geomean - 1.0) * 100.0
    print(f"gate: geomean dense throughput {change:+.2f}% vs "
          f"{prior.get('sha', '?')[:12]} over {len(common)} cell(s); "
          f"worst cell {worst[1]} at {(worst[0] - 1.0) * 100.0:+.2f}%")
    if geomean < 1.0 - pct / 100.0:
        print(f"gate: regression exceeds the {pct:g}% budget",
              file=sys.stderr)
        return 2
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", default="BENCH_throughput.json",
                        help="throughput report to ingest")
    parser.add_argument("--trend", default="BENCH_trend.jsonl",
                        help="JSONL trend log to append to")
    parser.add_argument("--gate", type=float, default=None, metavar="PCT",
                        help="exit 2 if geomean dense throughput drops more "
                             "than PCT%% vs the previous trend entry")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {args.report}: {err}", file=sys.stderr)
        return 1

    entry = summarize(report)

    lines = []
    if os.path.exists(args.trend):
        with open(args.trend, encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    prior = json.loads(raw)
                except json.JSONDecodeError:
                    continue  # drop corrupt lines rather than propagate them
                if prior.get("sha") != entry["sha"]:
                    lines.append(raw)

    gate_status = 0
    if args.gate is not None:
        if lines:
            gate_status = gate_against(json.loads(lines[-1]), entry,
                                       args.gate)
        else:
            print("gate: no prior trend entry; passing")

    lines.append(json.dumps(entry, sort_keys=True))
    with open(args.trend, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    print(f"{args.trend}: {len(lines)} run(s), latest {entry['sha'][:12]} "
          f"(all_identical={entry['all_identical']})")
    return gate_status


if __name__ == "__main__":
    sys.exit(main())

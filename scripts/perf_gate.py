#!/usr/bin/env python3
"""Perf gate: compare a change against its base with perfbench, ABBA.

    python3 scripts/perf_gate.py BASE_DIR CHANGE_DIR

BASE_DIR and CHANGE_DIR are two source checkouts, e.g. a `git worktree` of
the merge base and the change itself. For every workload in
CHANGE_DIR/BENCHMARK.json the script runs each tree's perfbench/run.py
(`--seed 1 --seconds <run_seconds>`) ROUNDS times in the fixed order base,
change, change, base. Each tree builds its own .bench_build on its first
run.

It takes the median of every end-to-end metric per side and fails (exit 1),
naming the workload, the metric and both medians, when

  * a change median is worse than the base median by more than the metric's
    relative `bound`, in the direction of its `better`;
  * a change run exits non-zero, reports failed cells, or lacks a metric.

A workload the base's run.py rejects (exit 2 with nothing on stdout, e.g. a
workload the base does not know yet) is reported as not gated; its change
runs must still pass. Every run is written to BENCH_perf_gate.json in the
current directory.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 2  # ABBA rounds per workload: 2 * ROUNDS runs per side
SEED = 1
REPORT = Path("BENCH_perf_gate.json")


def run_perfbench(tree, workload, seconds):
    """One run.py run in `tree`; its exit code and last stdout line, parsed
    (None when there is none). run.py's stderr goes to ours."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return {"exit": proc.returncode, "result": result}


def rejected(run):
    """run.py refused the workload before measuring anything."""
    return run["exit"] == 2 and run["result"] is None


def metric(run, name):
    try:
        return float(run["result"]["metrics"][name]["value"])
    except (TypeError, KeyError, ValueError):
        return None


def compare(workload, bounds, base, change):
    """Checks one workload's runs against the bounds.

    `bounds` is BENCHMARK.json's end_to_end list. `base` and `change` are
    lists of runs, each {"exit": code, "result": run.py's last stdout line
    as a dict, or None}; `base` is None when the base rejected the workload.
    Returns (report lines, failures); the workload passes when failures is
    empty."""
    lines, failures = [], []
    for i, run in enumerate(change):
        failed = (run["result"] or {}).get("failed")
        if run["exit"] != 0 or not isinstance(failed, int) or failed > 0:
            failures.append(f"{workload}: change run {i + 1} exited "
                            f"{run['exit']} with failed={failed}")
    if base is None:
        lines.append(f"{workload}: not gated (the base's run.py rejects it)")
        return lines, failures
    for i, run in enumerate(base):
        if run["exit"] != 0 or run["result"] is None:
            failures.append(f"{workload}: base run {i + 1} exited "
                            f"{run['exit']}; nothing to compare against")
    for bound in bounds:
        name = bound["name"]
        base_values = [metric(r, name) for r in base]
        change_values = [metric(r, name) for r in change]
        if None in change_values:
            failures.append(f"{workload} {name}: missing from a change run")
            continue
        if None in base_values:
            lines.append(f"{workload} {name}: not gated (missing from a "
                         f"base run)")
            continue
        base_median = statistics.median(base_values)
        change_median = statistics.median(change_values)
        change_rel = change_median / base_median - 1.0
        worse = change_rel if bound["better"] == "lower" else -change_rel
        verdict = "FAIL" if worse > bound["bound"] else "ok"
        line = (f"{workload} {name}: base median {base_median:.4g}, "
                f"change median {change_median:.4g} {bound['unit']} "
                f"({change_rel:+.1%}; {bound['better']} is better, "
                f"bound {bound['bound']:.0%}) {verdict}")
        lines.append(line)
        if verdict == "FAIL":
            failures.append(line)
    return lines, failures


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} BASE_DIR CHANGE_DIR")
    base_tree, change_tree = (Path(a).resolve() for a in argv[1:])
    config = json.loads((change_tree / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = config["end_to_end"]

    runs, report, failures = [], [], []
    for workload in (w["name"] for w in config["workloads"]):
        sides = {"base": [], "change": []}
        base_rejected = False
        for round_no in range(ROUNDS):
            for side in ("base", "change", "change", "base"):
                if side == "base" and base_rejected:
                    continue
                tree = base_tree if side == "base" else change_tree
                print(f"perf_gate: {workload} round {round_no + 1}: {side}",
                      file=sys.stderr, flush=True)
                run = run_perfbench(tree, workload, seconds)
                runs.append({"workload": workload, "side": side,
                             "round": round_no + 1, **run})
                if side == "base" and rejected(run):
                    base_rejected = True
                    continue
                sides[side].append(run)
        lines, bad = compare(workload, bounds,
                             None if base_rejected else sides["base"],
                             sides["change"])
        report += lines
        failures += bad

    REPORT.write_text(json.dumps({"rounds": ROUNDS, "seed": SEED,
                                  "run_seconds": seconds, "runs": runs,
                                  "failures": failures}, indent=1) + "\n")
    print("\n".join(report))
    if failures:
        print(f"perf_gate: FAILED ({len(failures)}):\n  " +
              "\n  ".join(failures))
        return 1
    print(f"perf_gate: passed; runs in {REPORT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

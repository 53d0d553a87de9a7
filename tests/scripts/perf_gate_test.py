#!/usr/bin/env python3
"""Tests of scripts/perf_gate.py's comparison, run under CTest as `perf_gate`.

Feeds compare() canned run.py last lines for a base and a change side and
checks that the gate fails when a change median crosses a bound, or a change
run fails a cell or lacks a metric, and passes otherwise. Nothing is built
or run.

Usage: perf_gate_test.py <path-to-perf_gate.py>
"""

import importlib.util
import json
import sys

FAILURES = []

# BENCHMARK.json's end-to-end bounds.
BOUNDS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "mreq_per_s", "unit": "Mreq/s", "better": "higher",
     "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]
BASE_METRICS = {"wall_s": 0.40, "mreq_per_s": 3.4, "cpu_s": 0.38,
                "peak_rss_mb": 110.0, "setup_s": 2.5}


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def last_line(failed=0, drop=None, **scaled):
    """run.py's last stdout line: BASE_METRICS, each metric in `scaled`
    multiplied by its factor, `drop` left out."""
    metrics = {name: {"value": value * scaled.get(name, 1.0), "unit": "x"}
               for name, value in BASE_METRICS.items() if name != drop}
    return json.dumps({"correct": failed == 0, "attempted": 3,
                       "failed": failed, "metrics": metrics})


def runs(*lines, exit_code=0):
    return [{"exit": exit_code, "result": json.loads(line)} for line in lines]


def gate(change, base=None):
    base = runs(last_line(), last_line()) if base is None else base
    return perf_gate.compare("dfn-simulate-lru", BOUNDS, base, change)[1]


def main():
    failures = gate(runs(last_line(), last_line()))
    check("identical sides pass", failures == [], failures)

    failures = gate(runs(last_line(wall_s=1.3), last_line(wall_s=1.3)))
    check("+30% wall_s fails", len(failures) == 1, failures)
    check("the failure names the workload, the metric and both medians",
          failures and "dfn-simulate-lru wall_s" in failures[0]
          and "0.4" in failures[0] and "0.52" in failures[0], failures)

    failures = gate(runs(last_line(wall_s=1.1), last_line(wall_s=1.1)))
    check("+10% wall_s passes", failures == [], failures)

    failures = gate(runs(last_line(peak_rss_mb=1.2),
                         last_line(peak_rss_mb=1.2)))
    check("+20% peak_rss_mb fails (bound 0.15)",
          len(failures) == 1 and "peak_rss_mb" in failures[0], failures)

    failures = gate(runs(last_line(mreq_per_s=0.7), last_line(mreq_per_s=0.7)))
    check("-30% mreq_per_s (higher is better) fails",
          len(failures) == 1 and "mreq_per_s" in failures[0], failures)

    failures = gate(runs(last_line(wall_s=0.5), last_line(wall_s=0.5)))
    check("a faster change passes", failures == [], failures)

    failures = gate(runs(last_line(), last_line(wall_s=2.0),
                         last_line(wall_s=2.0)))
    check("the median, not one run, is gated", len(failures) == 1, failures)

    failures = gate(runs(last_line(), last_line(failed=1)))
    check("a change run with failed: 1 fails", len(failures) == 1, failures)

    failures = gate(runs(last_line()) + runs(last_line(failed=1),
                                             exit_code=1))
    check("a change run exiting non-zero fails", len(failures) == 1, failures)

    failures = gate(runs(last_line(), last_line(drop="cpu_s")))
    check("a change run missing a metric fails",
          len(failures) == 1 and "cpu_s" in failures[0], failures)

    failures = gate([{"exit": 1, "result": None}] + runs(last_line()))
    check("a change run with no result line fails", failures != [], failures)

    lines, failures = perf_gate.compare("new-workload", BOUNDS, None,
                                        runs(last_line()))
    check("a workload the base rejects is not gated",
          failures == [] and "not gated" in lines[0], lines)
    _, failures = perf_gate.compare("new-workload", BOUNDS, None,
                                    runs(last_line(failed=2)))
    check("an ungated workload's change runs must still pass",
          len(failures) == 1, failures)

    rejected = {"exit": 2, "result": None}
    check("exit 2 with no result is a rejection", perf_gate.rejected(rejected))
    check("exit 1 is not a rejection",
          not perf_gate.rejected({"exit": 1, "result": None}))

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed")
        return 1
    print("\nall perf_gate checks passed")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    spec = importlib.util.spec_from_file_location("perf_gate", sys.argv[1])
    perf_gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perf_gate)
    sys.exit(main())

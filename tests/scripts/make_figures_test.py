#!/usr/bin/env python3
"""End-to-end test of scripts/make_figures.sh, run under CTest as
`make_figures`.

Runs the script at a tiny scale into a temporary directory and checks the
Figure 2-3 and Section 4.4 panels it writes through `webcache sweep
--panels-out`: every figure CSV exists, has the policy columns in order and
one row per cache size, and the cost-model-blind LRU / LFU-DA columns agree
between the constant-cost and packet-cost sweeps of the same trace.

Usage: make_figures_test.py <path-to-make_figures.sh> <build-dir>
"""

import csv
import subprocess
import sys
import tempfile
from pathlib import Path

FAILURES = []
SCALE = "0.005"
CLASSES = ["Images", "HTML", "Multi Media", "Application", "overall"]
CONSTANT = ["LRU", "LFU-DA", "GDS(1)", "GD*(1)"]
PACKET = ["LRU", "LFU-DA", "GDS(packet)", "GD*(packet)"]
FIGURES = {"fig2": CONSTANT, "fig3": PACKET,
           "rtp_cc": CONSTANT, "rtp_pc": PACKET}
LADDER_ROWS = 7  # the paper's cache sizes, 0.5 % to 40 %


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def read_panel(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def column(rows, name):
    i = rows[0].index(name)
    return [row[i] for row in rows[1:]]


def main():
    script, build_dir = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(["bash", script, build_dir, tmp, SCALE],
                              capture_output=True, text=True)
        check("make_figures.sh exits 0", proc.returncode == 0,
              proc.stderr.strip()[-2000:])
        if proc.returncode != 0:
            return 1

        panels = {}
        for prefix, policies in FIGURES.items():
            for metric in ("hr", "bhr"):
                for cls in CLASSES:
                    name = f"{prefix}_{metric}_{cls}.csv"
                    path = Path(tmp) / name
                    check(f"{name} exists", path.is_file())
                    if not path.is_file():
                        continue
                    rows = read_panel(path)
                    panels[name] = rows
                    header = ["Cache (MB)", "Cache (%)"] + policies
                    check(f"{name} header", rows[0] == header, rows[0])
                    check(f"{name} rows", len(rows) - 1 == LADDER_ROWS,
                          len(rows) - 1)

        # LRU and LFU-DA ignore the cost model, so the two DFN sweeps must
        # agree on them: a wrong policy list in either sweep shows here.
        for metric in ("hr", "bhr"):
            for cls in CLASSES:
                fig2 = panels.get(f"fig2_{metric}_{cls}.csv")
                fig3 = panels.get(f"fig3_{metric}_{cls}.csv")
                if fig2 is None or fig3 is None:
                    continue
                for policy in ("LRU", "LFU-DA"):
                    check(f"fig2 == fig3 {metric} {cls} {policy}",
                          column(fig2, policy) == column(fig3, policy))

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

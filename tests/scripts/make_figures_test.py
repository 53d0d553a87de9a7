#!/usr/bin/env python3
"""End-to-end test of scripts/make_figures.sh, run under CTest as
`make_figures`.

Runs the script at a tiny scale into a temporary directory and checks what
it writes: Table 1 in tables.txt has a dfn and an rtp column and each trace
has a breakdown table titled by its stem; both *_profile.ini files exist;
each Figure 1 CSV has at least 100 windows whose per-class occupancy sums to
the totals; every Figure 2-3 / Section 4.4 panel CSV exists with the policy
columns in order and one row per cache size, and the cost-model-blind LRU /
LFU-DA columns agree between the constant- and packet-cost sweeps of one
trace. A bench binary whose --csv directory cannot be written must exit
non-zero naming the path, so the script's `set -e` stops there.

Usage: make_figures_test.py <path-to-make_figures.sh> <build-dir>
"""

import csv
import json
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
SLUGS = ["images", "html", "multi_media", "application", "other"]
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


def check_tables(out):
    lines = (out / "tables.txt").read_text().splitlines()
    title = "Table 1. Properties of the traces"
    header = lines[lines.index(title) + 1] if title in lines else ""
    check("Table 1 has dfn and rtp columns", header.split() == ["dfn", "rtp"],
          header)
    for stem in ("dfn", "rtp"):
        check(f"breakdown table titled {stem}", f"{stem} trace: workload "
              "characteristics broken down into document types" in lines)
        check(f"{stem}_profile.ini exists",
              (out / f"{stem}_profile.ini").is_file())


def check_figure1(out):
    for policy in ("1", "packet"):
        name = f"fig1_gdstar_{policy}.csv"
        with open(out / name, newline="") as f:
            rows = list(csv.DictReader(f))
        check(f"{name} has at least 100 windows", len(rows) >= 100, len(rows))
        bad = [row["last_request"] for row in rows
               if any(sum(int(row[f"{s}_{k}"]) for s in SLUGS) != int(row[k])
                      for k in ("occupancy_objects", "occupancy_bytes"))]
        check(f"{name} per-class occupancy sums to the totals", not bad,
              f"windows ending at {bad[:5]}")


STUDIES = ([f"ablation_mod_{r}" for r in ("threshold", "any", "never")]
           + [f"ablation_warmup_{w}" for w in ("0", "0.05", "0.1", "0.2")]
           + [f"{name}_{trace}" for trace in ("dfn", "rtp") for name in
              ("ablation_beta", "overview", "ext_lazy_promotion")]
           + ["opt_headroom", "ext_latency"])
REPORTS = ([f"ext_hierarchy_{root}.txt" for root in ("gdstar_packet", "mesh",
            "gds_packet", "lfu-da", "lru", "gdstar_1")]
           + [f"replication_{p}_{c}.txt" for p in ("DFN", "RTP")
              for c in ("1", "packet")]
           + ["ablation_warmup_stackdist.txt", "ext_partitioned.csv",
              "ext_future_x10.csv", "ext_per_class_beta_learned_RTP.csv"])


def sweep_cells(out, name):
    """policy -> cell of the first cache size in NAME.json."""
    with open(out / f"{name}.json") as f:
        doc = json.load(f)
    return {c["policy"]: c for c in doc["points"][0]["policies"]}


def check_studies(out):
    for name in STUDIES:
        for ext in ("txt", "json"):
            check(f"{name}.{ext} exists", (out / f"{name}.{ext}").is_file())
    for name in REPORTS:
        check(f"{name} exists", (out / name).is_file())

    # GD* with beta pinned to 1 is GDSF's formula: the same hits, exactly.
    for trace in ("dfn", "rtp"):
        cells = sweep_cells(out, f"ablation_beta_{trace}")
        fixed = cells.get("GD*(1) [beta=1.000000]", {}).get("overall")
        gdsf = cells.get("GDSF(1)", {}).get("overall")
        check(f"{trace}: GD*(1) beta=1 equals GDSF(1) in HR and BHR",
              fixed is not None and gdsf is not None and
              (fixed["hit_rate"], fixed["byte_hit_rate"]) ==
              (gdsf["hit_rate"], gdsf["byte_hit_rate"]), f"{fixed} {gdsf}")

    for name in ("opt_headroom", "overview_dfn", "overview_rtp"):
        check(f"{name} has an OPT column", "OPT" in sweep_cells(out, name))
    for profile in ("DFN", "RTP"):
        for cost in ("1", "packet"):
            text = (out / f"replication_{profile}_{cost}.txt").read_text()
            verdicts = [line for line in text.splitlines()
                        if " (hit rate): " in line]
            check(f"replication_{profile}_{cost} has 6 pairwise verdicts",
                  len(verdicts) == 6, text[-600:])
    check("mesh hierarchy reports sibling hits",
          "Sibling hits" in (out / "ext_hierarchy_mesh.txt").read_text())


def check_bench_csv_failure(build_dir):
    missing = "/nonexistent/dir"
    proc = subprocess.run(
        [str(Path(build_dir) / "bench" / "ext_partitioned_cache"),
         "--scale=0.002", f"--csv={missing}"],
        capture_output=True, text=True)
    check("bench with an unwritable --csv exits non-zero",
          proc.returncode > 0, f"rc={proc.returncode}")
    check("bench --csv error names the path", missing in proc.stderr,
          proc.stderr.strip()[-300:])


def main():
    script, build_dir = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(["bash", script, build_dir, tmp, SCALE],
                              capture_output=True, text=True)
        check("make_figures.sh exits 0", proc.returncode == 0,
              proc.stderr.strip()[-2000:])
        if proc.returncode != 0:
            return 1

        check_tables(Path(tmp))
        check_figure1(Path(tmp))
        check_studies(Path(tmp))

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

    check_bench_csv_failure(build_dir)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""One-pass sweep CLI smoke test, run under CTest as `cli_one_pass`.

The one-pass stack-analysis fast path behind `sweep --one-pass` is exact,
so `--one-pass=auto` (the default) and `--one-pass=off` must produce the
same numbers on a mixed-policy grid. This test generates a synthetic mix,
exports the sweep curves both ways via --curve-out, and asserts:

  * both documents carry the webcache.sweep.v1 schema with the requested
    policy columns and fraction ladder;
  * every LRU column (the columns the fast path may take over) is
    identical between the two runs, counter for counter;
  * the non-LRU columns — which never take the fast path — agree too;
  * the rendered stdout tables match byte for byte, and the default run
    matches the explicit auto run;
  * a bogus --one-pass value (`maybe`, `on`) fails with a diagnostic
    naming both accepted modes, not a crash.

Usage: cli_one_pass_test.py <path-to-webcache-binary>
"""

import json
import os
import subprocess
import sys
import tempfile

FAILURES = []

POLICIES = "LRU,LFU-DA,GDS(1)"
FRACTIONS = "0.01,0.02,0.04,0.08"


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def run(cli, *args, timeout=240):
    return subprocess.run(
        [cli, *args], capture_output=True, text=True, timeout=timeout
    )


def sweep(cli, wct, mode, out_path):
    return run(
        cli, "sweep", wct, f"--policies={POLICIES}",
        f"--fractions={FRACTIONS}", "--warmup=0.1", "--threads=2",
        f"--one-pass={mode}", f"--curve-out={out_path}",
    )


def load_curves(path):
    with open(path) as f:
        doc = json.load(f)
    check("schema tag", doc.get("schema") == "webcache.sweep.v1")
    points = doc.get("points", [])
    check("one point per fraction", len(points) == len(FRACTIONS.split(",")))
    for point in points:
        names = [p["policy"] for p in point["policies"]]
        check(
            f"policy columns at fraction {point['cache_fraction']}",
            names == ["LRU", "LFU-DA", "GDS(1)"],
            f"got {names}",
        )
    return doc


def columns(doc, policy):
    """[(capacity, policy-record)] for one policy column across the sweep."""
    out = []
    for point in doc.get("points", []):
        for rec in point.get("policies", []):
            if rec.get("policy") == policy:
                out.append((point.get("capacity_bytes"), rec))
    return out


def compare_columns(auto_doc, off_doc, policy):
    auto_col = columns(auto_doc, policy)
    off_col = columns(off_doc, policy)
    if len(auto_col) != len(off_col) or not auto_col:
        check(f"{policy} column present both ways", False,
              f"{len(auto_col)} vs {len(off_col)} cells")
        return
    for (cap_auto, rec_auto), (cap_off, rec_off) in zip(auto_col, off_col):
        if cap_auto != cap_off or rec_auto != rec_off:
            check(f"{policy} columns identical auto/off", False,
                  f"capacity {cap_auto}: {rec_auto} != {rec_off}")
            return
    check(f"{policy} columns identical auto/off", True)


def main():
    if len(sys.argv) != 2:
        print("usage: cli_one_pass_test.py <webcache-binary>", file=sys.stderr)
        return 2
    cli = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="webcache_cli_one_pass.") as tmp:
        wct = os.path.join(tmp, "mix.wct")
        auto_json = os.path.join(tmp, "curves_auto.json")
        off_json = os.path.join(tmp, "curves_off.json")

        p = run(cli, "generate", "--profile=DFN", "--scale=0.002", "--seed=11",
                f"--out={wct}")
        check("generate mix", p.returncode == 0, p.stderr.strip()[:200])

        p_auto = sweep(cli, wct, "auto", auto_json)
        check("sweep --one-pass=auto", p_auto.returncode == 0,
              p_auto.stderr.strip()[:200])
        p_off = sweep(cli, wct, "off", off_json)
        check("sweep --one-pass=off", p_off.returncode == 0,
              p_off.stderr.strip()[:200])
        if FAILURES:
            print(f"\n{len(FAILURES)} check(s) failed: {FAILURES}",
                  file=sys.stderr)
            return 1

        check("rendered tables identical auto/off",
              p_auto.stdout == p_off.stdout)

        auto_doc = load_curves(auto_json)
        off_doc = load_curves(off_json)
        for policy in ("LRU", "LFU-DA", "GDS(1)"):
            compare_columns(auto_doc, off_doc, policy)

        # auto is the default: a run without the flag is the auto run.
        p_default = run(cli, "sweep", wct, f"--policies={POLICIES}",
                        f"--fractions={FRACTIONS}", "--warmup=0.1",
                        "--threads=2")
        check("sweep default", p_default.returncode == 0,
              p_default.stderr.strip()[:200])
        check("default tables match --one-pass=auto",
              p_default.stdout == p_auto.stdout)

        for bogus in ("maybe", "on"):
            p_bad = run(cli, "sweep", wct, f"--one-pass={bogus}")
            check(f"--one-pass={bogus} exits 1 naming auto and off",
                  p_bad.returncode == 1 and "--one-pass" in p_bad.stderr
                  and "auto" in p_bad.stderr and "off" in p_bad.stderr,
                  f"rc={p_bad.returncode} "
                  f"stderr={p_bad.stderr.strip()[:200]}")

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("\nall one-pass CLI checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Streaming CLI test, run under CTest as `cli_streaming`.

`simulate --stream` replays the binary trace chunk by chunk through the
same per-request core as the materialized path, so its rendered table and
metrics JSON must match the non-streamed run byte for byte, at any chunk
size. `sweep --stream` runs the
SHARDS-sampled LRU curve; at --sample-rate=1.0 it is exact, below that the
exported JSON must carry the sampling block and per-cell error bars. Error
paths (missing --cache-mb, --squid, corrupt traces) must fail with a
diagnostic, never a crash.

Usage: cli_streaming_test.py <path-to-webcache-binary>
"""

import json
import os
import subprocess
import sys
import tempfile

FAILURES = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def run(cli, *args, timeout=240):
    return subprocess.run(
        [cli, *args], capture_output=True, text=True, timeout=timeout
    )


def main():
    if len(sys.argv) != 2:
        print("usage: cli_streaming_test.py <webcache-binary>",
              file=sys.stderr)
        return 2
    cli = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="webcache_cli_streaming.") as tmp:
        wct = os.path.join(tmp, "mix.wct")
        p = run(cli, "generate", "--profile=DFN", "--scale=0.002", "--seed=7",
                f"--out={wct}")
        check("generate mix", p.returncode == 0, p.stderr.strip()[:200])
        if FAILURES:
            return 1

        # ---- simulate --stream is bit-identical to materialized ----
        base = run(cli, "simulate", wct, "--policy=GD*(packet)",
                   "--cache-mb=2")
        check("materialized simulate", base.returncode == 0,
              base.stderr.strip()[:200])
        for extra in ([], ["--chunk=7"], ["--chunk=4096"]):
            p = run(cli, "simulate", wct, "--policy=GD*(packet)",
                    "--cache-mb=2", "--stream", *extra)
            label = " ".join(extra) or "default chunk"
            check(f"simulate --stream {label} runs", p.returncode == 0,
                  p.stderr.strip()[:200])
            check(f"simulate --stream {label} table identical",
                  p.stdout == base.stdout,
                  f"stdout diverged:\n{p.stdout[:400]}")

        # ---- metrics JSON round-trips identically ----
        mat_json = os.path.join(tmp, "mat.json")
        str_json = os.path.join(tmp, "str.json")
        p = run(cli, "simulate", wct, "--policy=LRU", "--cache-mb=2",
                "--metrics-window=113", f"--metrics-out={mat_json}")
        check("materialized metrics run", p.returncode == 0,
              p.stderr.strip()[:200])
        p = run(cli, "simulate", wct, "--policy=LRU", "--cache-mb=2",
                "--stream", "--chunk=7", "--metrics-window=113",
                f"--metrics-out={str_json}")
        check("streamed metrics run", p.returncode == 0,
              p.stderr.strip()[:200])
        if os.path.exists(mat_json) and os.path.exists(str_json):
            with open(mat_json) as f:
                mat = f.read()
            with open(str_json) as f:
                stre = f.read()
            check("metrics JSON identical streamed vs materialized",
                  mat == stre)

        # ---- sweep --stream: exact at rate 1.0, error bars below ----
        exact_json = os.path.join(tmp, "exact.json")
        p = run(cli, "sweep", wct, "--stream", "--capacities-mb=16,32,64",
                "--sample-rate=1.0", f"--curve-out={exact_json}")
        check("sweep --stream rate=1.0 runs", p.returncode == 0,
              p.stderr.strip()[:200])
        if os.path.exists(exact_json):
            with open(exact_json) as f:
                doc = json.load(f)
            check("exact stream sweep schema",
                  doc.get("schema") == "webcache.sweep.v1")
            check("exact stream sweep has no sampling block",
                  "sampling" not in doc)
            check("exact stream sweep point count",
                  len(doc.get("points", [])) == 3)

        sampled_json = os.path.join(tmp, "sampled.json")
        p1 = run(cli, "sweep", wct, "--stream", "--capacities-mb=16,32,64",
                 "--sample-rate=0.2", f"--curve-out={sampled_json}")
        check("sweep --stream rate=0.2 runs", p1.returncode == 0,
              p1.stderr.strip()[:200])
        if os.path.exists(sampled_json):
            with open(sampled_json) as f:
                doc = json.load(f)
            check("sampled stream sweep has sampling block",
                  isinstance(doc.get("sampling"), dict)
                  and doc["sampling"].get("rate", 0) > 0)
            cells = [rec for point in doc.get("points", [])
                     for rec in point.get("policies", [])]
            check("sampled cells flagged",
                  cells and all(rec.get("sampled") for rec in cells))
            check("sampled cells carry error bars",
                  all(rec.get("hit_rate_error", 0) > 0 for rec in cells))

        # Deterministic: the same seeded sampled run twice, byte for byte.
        p2 = run(cli, "sweep", wct, "--stream", "--capacities-mb=16,32,64",
                 "--sample-rate=0.2")
        p3 = run(cli, "sweep", wct, "--stream", "--capacities-mb=16,32,64",
                 "--sample-rate=0.2")
        check("sampled stream sweep deterministic",
              p2.returncode == 0 and p2.stdout == p3.stdout)

        # ---- materialized sweep --sampling=on annotates its output ----
        p = run(cli, "sweep", wct, "--policies=LRU,FIFO",
                "--fractions=0.02,0.08", "--sampling=on", "--sample-rate=0.2")
        check("sweep --sampling=on runs", p.returncode == 0,
              p.stderr.strip()[:200])
        check("sweep --sampling=on reports the rate",
              "sampled LRU columns" in p.stderr)

        # ---- error paths: diagnostics, never crashes ----
        for name, argv in (
            ("stream without --cache-mb",
             ["simulate", wct, "--stream", "--policy=LRU"]),
            ("stream with --cache-fraction",
             ["simulate", wct, "--stream", "--cache-fraction=0.04"]),
            ("stream with --squid",
             ["simulate", wct, "--stream", "--cache-mb=2", "--squid"]),
            ("stream sweep without capacities",
             ["sweep", wct, "--stream"]),
            ("bogus sampling mode",
             ["sweep", wct, "--sampling=maybe"]),
            ("missing trace file",
             ["simulate", os.path.join(tmp, "nope.wct"), "--stream",
              "--cache-mb=2"]),
        ):
            p = run(cli, *argv)
            check(f"{name} fails cleanly",
                  p.returncode == 1 and "webcache" in p.stderr,
                  f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")

        # Corrupt trace: truncate the file mid-record; the streamed replay
        # must name the record index and byte offset like the loaders do.
        corrupt = os.path.join(tmp, "corrupt.wct")
        with open(wct, "rb") as f:
            data = f.read()
        with open(corrupt, "wb") as f:
            f.write(data[: len(data) // 2 + 3])
        p = run(cli, "simulate", corrupt, "--stream", "--cache-mb=2")
        check("corrupt trace fails with located diagnostic",
              p.returncode == 1 and "record" in p.stderr
              and "byte offset" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

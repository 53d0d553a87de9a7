#!/usr/bin/env python3
"""CLI smoke tests, run under CTest as `cli_smoke`.

Exercises the webcache binary the way a user would: the help and error
paths must exit with the documented status codes (never crash), and a
generate -> export -> convert -> simulate round trip must produce a
--metrics-out JSON file that parses, carries the webcache.metrics.v1
schema, and satisfies the roll-up invariants (window sums equal the
aggregate, per-class sums equal the overall counters). The CSV variant
must agree with the JSON row for row. On the checked-in golden trace,
`simulate --result-out` must reproduce golden_dfn_expected.tsv's
constant-cost rows counter for counter.

Usage: cli_smoke_test.py <path-to-webcache-binary>
"""

import csv
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


def run(cli, *args, timeout=120):
    return subprocess.run(
        [cli, *args], capture_output=True, text=True, timeout=timeout
    )


def check_exit_codes(cli):
    check("help exits 0", run(cli, "help").returncode == 0)
    check("no arguments exits 2 (usage)", run(cli).returncode == 2)
    check("unknown command exits 2", run(cli, "frobnicate").returncode == 2)

    p = run(cli, "simulate", "/nonexistent/trace.wct", "--policy=LRU")
    check(
        "missing trace exits 1, not a crash",
        p.returncode == 1,
        f"rc={p.returncode} stderr={p.stderr.strip()[:200]}",
    )
    # A signal-terminated process has a negative returncode under Python.
    check("missing trace did not signal", p.returncode >= 0)


def class_slugs():
    return ["images", "html", "multi_media", "application", "other"]


def check_metrics_json(path):
    with open(path) as f:
        doc = json.load(f)

    check("schema tag", doc.get("schema") == "webcache.metrics.v1")
    for key in (
        "policy",
        "capacity_bytes",
        "window_requests",
        "total_requests",
        "warmup_requests",
        "measured_requests",
        "aggregate",
        "windows",
    ):
        check(f"top-level key {key}", key in doc)

    windows = doc["windows"]
    check("at least one window", len(windows) >= 1)
    check(
        "windows cover the whole run",
        windows[0]["first_request"] == 1
        and windows[-1]["last_request"] == doc["total_requests"],
    )

    agg = doc["aggregate"]["overall"]
    sums = {k: 0 for k in ("requests", "hits", "requested_bytes", "hit_bytes")}
    evictions = 0
    for w in windows:
        for k in sums:
            sums[k] += w["overall"][k]
        evictions += w["overall"]["evictions"]
        per_class = w["per_class"]
        check(
            "window class slugs",
            sorted(per_class.keys()) == sorted(class_slugs()),
        )
        for k in ("requests", "hits", "requested_bytes", "hit_bytes"):
            total = sum(per_class[s][k] for s in class_slugs())
            if total != w["overall"][k]:
                check(f"per-class {k} sums to overall", False,
                      f"window {w['first_request']}: {total} != {w['overall'][k]}")
                return doc
    check("per-class sums to overall in every window", True)
    for k in sums:
        check(
            f"window {k} sum equals aggregate",
            sums[k] == agg[k],
            f"{sums[k]} != {agg[k]}",
        )
    check(
        "window evictions sum equals aggregate",
        evictions == doc["aggregate"]["evictions"],
    )
    return doc


def check_metrics_csv(path, doc):
    with open(path) as f:
        rows = list(csv.DictReader(f))
    check("csv row per window", len(rows) == len(doc["windows"]))
    for row, w in zip(rows, doc["windows"]):
        if (
            int(row["first_request"]) != w["first_request"]
            or int(row["requests"]) != w["overall"]["requests"]
            or int(row["hits"]) != w["overall"]["hits"]
            or int(row["evictions"]) != w["overall"]["evictions"]
        ):
            check("csv agrees with json", False, f"row {row['first_request']}")
            return
    check("csv agrees with json", True)


def check_round_trip(cli, tmp):
    wct = os.path.join(tmp, "smoke.wct")
    log = os.path.join(tmp, "smoke.log")
    wct2 = os.path.join(tmp, "smoke2.wct")
    mjson = os.path.join(tmp, "metrics.json")
    mcsv = os.path.join(tmp, "metrics.csv")

    p = run(
        cli, "generate", "--profile=DFN", "--scale=0.001", "--seed=7",
        f"--out={wct}",
    )
    check("generate", p.returncode == 0, p.stderr.strip()[:200])
    p = run(cli, "export", wct, log)
    check("export to squid log", p.returncode == 0, p.stderr.strip()[:200])
    p = run(cli, "convert", log, wct2)
    check("convert squid log back", p.returncode == 0, p.stderr.strip()[:200])

    p = run(
        cli, "simulate", wct2, "--policy=GD*(1)", "--cache-fraction=0.04",
        f"--metrics-out={mjson}", "--metrics-window=500",
    )
    check("simulate --metrics-out json", p.returncode == 0,
          p.stderr.strip()[:200])
    doc = check_metrics_json(mjson)
    check("beta trace recorded for GD*",
          any(w.get("beta") is not None for w in doc["windows"]))

    p = run(
        cli, "simulate", wct2, "--policy=GD*(1)", "--cache-fraction=0.04",
        f"--metrics-out={mcsv}", "--metrics-window=500",
    )
    check("simulate --metrics-out csv", p.returncode == 0,
          p.stderr.strip()[:200])
    check_metrics_csv(mcsv, doc)

    # The direct squid-log path must work without the binary conversion.
    p = run(
        cli, "simulate", log, "--squid", "--policy=LRU",
        "--cache-fraction=0.04", f"--metrics-out={mjson}",
    )
    check("simulate --squid --metrics-out", p.returncode == 0,
          p.stderr.strip()[:200])
    doc = check_metrics_json(mjson)
    check("LRU has no beta trace",
          all(w.get("beta") is None for w in doc["windows"]))


def check_lazy_family(cli, tmp):
    """The lazy-promotion / RANDOM family through every policy-taking
    command, plus the parameter-error diagnostics."""
    wct = os.path.join(tmp, "lazy.wct")
    p = run(
        cli, "generate", "--profile=DFN", "--scale=0.001", "--seed=7",
        f"--out={wct}",
    )
    check("generate (lazy family)", p.returncode == 0, p.stderr.strip()[:200])

    for policy in (
        "RANDOM",
        "CLOCK",
        "DELAY-CLOCK:k=2",
        "PROB-LRU:p=0.1",
        "DELAY-LRU:k=8",
        "BATCH-LRU:batch=32",
        "prob-lru:p=0.1,seed=3",  # case-insensitive base, multi-param
    ):
        p = run(cli, "simulate", wct, f"--policy={policy}",
                "--cache-fraction=0.04")
        check(f"simulate accepts {policy}", p.returncode == 0,
              p.stderr.strip()[:200])

    p = run(cli, "sweep", wct, "--policies=RANDOM,CLOCK,PROB-LRU:p=0.5",
            "--fractions=0.01,0.04", "--threads=2")
    check("sweep accepts the lazy family", p.returncode == 0,
          p.stderr.strip()[:200])

    p = run(cli, "hierarchy", wct, "--edges=2", "--edge-policy=CLOCK",
            "--root-policy=DELAY-CLOCK:k=2")
    check("hierarchy accepts CLOCK policies", p.returncode == 0,
          p.stderr.strip()[:200])

    # Exact sharded replay covers the read-only-hit-path members.
    p = run(cli, "simulate", wct, "--policy=RANDOM", "--cache-fraction=0.04",
            "--threads=2", "--sharded=exact")
    check("sharded exact accepts RANDOM", p.returncode == 0,
          p.stderr.strip()[:200])

    # Metrics JSON schema for a new-family policy.
    mjson = os.path.join(tmp, "lazy_metrics.json")
    p = run(cli, "simulate", wct, "--policy=DELAY-CLOCK:k=2",
            "--cache-fraction=0.04", f"--metrics-out={mjson}",
            "--metrics-window=500")
    check("simulate DELAY-CLOCK --metrics-out", p.returncode == 0,
          p.stderr.strip()[:200])
    doc = check_metrics_json(mjson)
    check("metrics policy name is canonical",
          doc["policy"] == "DELAY-CLOCK:k=2", doc["policy"])

    # Bogus parameter strings fail with the offending field named, and
    # exit 1 (a diagnosed error), not 2 (usage) and not a crash.
    for policy, fragment in (
        ("PROB-LRU:p=1.5", "p"),
        ("PROB-LRU:probability=0.5", "probability"),
        ("DELAY-CLOCK:k=0", "k"),
        ("BATCH-LRU:batch=none", "batch"),
        ("RANDOM:seed=abc", "seed"),
    ):
        p = run(cli, "simulate", wct, f"--policy={policy}",
                "--cache-fraction=0.04")
        check(f"bogus {policy} rejected", p.returncode == 1,
              f"rc={p.returncode}")
        check(f"bogus {policy} error names '{fragment}'",
              fragment in p.stderr, p.stderr.strip()[:200])


DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "data")
# kCacheFraction in tests/integration/golden_trace_test.cpp.
GOLDEN_CACHE_FRACTION = "0.04"


def golden_rows():
    """Constant-cost rows of golden_dfn_expected.tsv: policy -> counters."""
    rows = {}
    with open(os.path.join(DATA_DIR, "golden_dfn_expected.tsv")) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if fields[1] == "constant":
                rows[fields[0]] = [int(x) for x in fields[2:]]
    return rows


def result_counters(doc):
    """A webcache.result.v1 file in the golden TSV's column order."""
    def hits(h):
        return [h["requests"], h["hits"], h["requested_bytes"], h["hit_bytes"]]

    out = hits(doc["overall"])
    out += [doc["evictions"], doc["bypasses"], doc["modification_misses"]]
    for cls in doc["per_class"]:
        out += hits(cls)
    return out


def check_golden_counters(cli, tmp):
    """`webcache simulate` on the golden trace reproduces the library's
    golden counters: the CLI's own load -> densify -> replay path, not just
    the library overloads GoldenTrace covers."""
    wct = os.path.join(DATA_DIR, "golden_dfn.wct")
    rows = golden_rows()
    check("golden TSV has constant-cost rows", len(rows) >= 4, str(rows))
    for policy, expected in rows.items():
        out = os.path.join(tmp, "golden_result.json")
        p = run(cli, "simulate", wct, f"--policy={policy}",
                f"--cache-fraction={GOLDEN_CACHE_FRACTION}",
                f"--result-out={out}")
        check(f"simulate golden {policy}", p.returncode == 0,
              p.stderr.strip()[:200])
        if p.returncode != 0:
            continue
        with open(out) as f:
            doc = json.load(f)
        check(f"golden {policy} policy name", doc["policy"] == policy,
              doc["policy"])
        actual = result_counters(doc)
        check(f"golden {policy} counters match the TSV", actual == expected,
              f"expected {expected} got {actual}")


def main():
    if len(sys.argv) != 2:
        print("usage: cli_smoke_test.py <webcache-binary>", file=sys.stderr)
        return 2
    cli = sys.argv[1]
    check_exit_codes(cli)
    with tempfile.TemporaryDirectory(prefix="webcache_cli_smoke.") as tmp:
        check_round_trip(cli, tmp)
        check_lazy_family(cli, tmp)
        check_golden_counters(cli, tmp)
    if FAILURES:
        print(f"\n{len(FAILURES)} smoke check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("\nall CLI smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

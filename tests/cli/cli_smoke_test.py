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
constant-cost rows counter for counter, and `convert --recover` upgrades
it from WCT1 v2 to v4 (dense ids stored) without changing a `simulate
--result-out` or `sweep --curve-out` byte. `replicate` prints a verdict
line for every policy pair, and OPT is refused, by name, everywhere but
`sweep`. Every text output written to a full device exits 1 naming its
path. NaN, infinite, negative and overflowing cache fractions and
warm-up shares exit 1 with a diagnostic that names the flag.

Usage: cli_smoke_test.py <path-to-webcache-binary>
"""

import csv
import json
import os
import re
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
        for k in ("occupancy_objects", "occupancy_bytes"):
            total = sum(per_class[s][k] for s in class_slugs())
            if total != w[k]:
                check(f"per-class {k} sums to the window's", False,
                      f"window {w['first_request']}: {total} != {w[k]}")
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
            or any(int(row[f"{s}_{k}"]) != w["per_class"][s][k]
                   for s in class_slugs()
                   for k in ("occupancy_objects", "occupancy_bytes"))
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

    # characterize: Table 1 has a column per trace named by its file stem,
    # and the per-trace tables are titled by the stem.
    p = run(cli, "characterize", wct, wct2)
    check("characterize two traces", p.returncode == 0 and
          p.stdout.splitlines()[1].split() == ["smoke", "smoke2"] and
          "smoke trace:" in p.stdout and "smoke2 trace:" in p.stdout,
          p.stderr.strip()[:200] or p.stdout[:400])

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

    # A negative cache size must not wrap to an effectively infinite cache.
    p = run(cli, "simulate", wct, "--policy=LRU", "--cache-mb=-1")
    check("simulate --cache-mb=-1 rejected", p.returncode != 0,
          f"rc={p.returncode}")
    check("--cache-mb=-1 error names the flag", "--cache-mb" in p.stderr,
          p.stderr.strip()[:200])

    # List flags parse each element whole: no ignored tail, no negative
    # capacity cast to a huge one.
    for name, args in (
        ("sweep --fractions=0.04x", ("--fractions=0.04x",)),
        ("sweep --stream --capacities-mb=-16",
         ("--stream", "--capacities-mb=-16")),
    ):
        flag = args[-1].split("=")[0]
        p = run(cli, "sweep", wct, "--policies=LRU", *args)
        check(f"{name} rejected", p.returncode != 0, f"rc={p.returncode}")
        check(f"{name} error names {flag}", flag in p.stderr,
              p.stderr.strip()[:200])

    # Cache fractions and the warm-up share reject NaN, infinity, negative
    # and overflowing values by name (a NaN passes `<` and `>=` checks, and
    # a huge fraction overflows the 64-bit capacity).
    for command, flag, extra in (
        ("sweep", "--fractions", ("--policies=LRU",)),
        ("simulate", "--cache-fraction", ("--policy=LRU",)),
        ("hierarchy", "--edge-fraction", ()),
        ("hierarchy", "--root-fraction", ()),
        ("simulate", "--warmup", ("--policy=LRU",)),
        ("sweep", "--warmup", ("--policies=LRU",)),
    ):
        for value in ("nan", "inf", "-1", "1e30"):
            if flag == "--fractions":
                value = "0.04," + value
            p = run(cli, command, wct, *extra, f"{flag}={value}")
            check(f"{command} {flag}={value} exits 1 naming the flag",
                  p.returncode == 1 and flag in p.stderr,
                  f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")

    # With sampling on, a rate outside (0, 1] exits 1 naming the flag, also
    # where no sampled engine would run (NaN and 1.5 used to fall through to
    # the exact grid).
    for value in ("nan", "inf", "1.5", "0"):
        p = run(cli, "sweep", wct, "--policies=LRU", "--fractions=0.04",
                "--sampling=on", f"--sample-rate={value}")
        check(f"sweep --sampling=on --sample-rate={value} exits 1 naming "
              "the flag", p.returncode == 1 and "--sample-rate" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")
        # The streamed sweep names the flag and echoes the value too.
        p = run(cli, "sweep", wct, "--stream", "--capacities-mb=1",
                f"--sample-rate={value}")
        check(f"sweep --stream --sample-rate={value} exits 1 naming the "
              "flag and the value",
              p.returncode == 1 and "--sample-rate" in p.stderr
              and f"(got {value})" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")

    # Sampling is either on or off; the removed auto mode is an error.
    p = run(cli, "sweep", wct, "--policies=LRU", "--sampling=auto")
    check("sweep --sampling=auto rejected", p.returncode != 0,
          f"rc={p.returncode}")
    check("--sampling error names on and off",
          re.search(r"\bon\b", p.stderr) and re.search(r"\boff\b", p.stderr),
          p.stderr.strip()[:200])

    # An unwritable --panels-out fails the sweep and names the path.
    prefix = "/nonexistent/dir/x"
    p = run(cli, "sweep", wct, "--policies=LRU", f"--panels-out={prefix}")
    check("sweep --panels-out unwritable rejected", p.returncode != 0,
          f"rc={p.returncode}")
    check("--panels-out error names the path", prefix in p.stderr,
          p.stderr.strip()[:200])


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


def check_replicate_and_opt(cli, tmp):
    """`replicate` prints a verdict line per policy pair; OPT runs only
    inside `sweep`, and every other policy-taking command names it in its
    error."""
    policies = ["LRU", "LFU-DA", "GDS(1)", "GD*(1)"]
    p = run(cli, "replicate", "--profile=DFN", "--scale=0.002", "--seeds=3",
            "--policies=" + ",".join(policies))
    check("replicate exits 0", p.returncode == 0, p.stderr.strip()[:200])
    verdicts = [line for line in p.stdout.splitlines()
                if " (hit rate): " in line]
    pairs = [f"{a} vs {b} (hit rate): "
             for i, a in enumerate(policies) for b in policies[i + 1:]]
    check("replicate prints one separated-or-not verdict per policy pair",
          len(verdicts) == len(pairs) and all(
              line.startswith(pair) and "separated" in line
              for line, pair in zip(verdicts, pairs)), "\n".join(verdicts))

    wct = os.path.join(DATA_DIR, "golden_dfn.wct")
    p = run(cli, "sweep", wct, "--policies=OPT,LRU", "--fractions=0.04")
    check("sweep accepts OPT", p.returncode == 0 and "OPT" in p.stdout,
          p.stderr.strip()[:200])
    for name, args in (
        ("simulate --policy=OPT", ("simulate", wct, "--policy=OPT")),
        ("hierarchy --root-policy=OPT",
         ("hierarchy", wct, "--root-policy=OPT")),
        ("replicate --policies=OPT",
         ("replicate", "--scale=0.002", "--seeds=1", "--policies=OPT")),
    ):
        p = run(cli, *args)
        check(f"{name} exits 1", p.returncode == 1, f"rc={p.returncode}")
        check(f"{name} error names OPT", "OPT" in p.stderr,
              p.stderr.strip()[:200])


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


def check_full_device(cli, tmp):
    """Every text output, stdout included, fails by name when its device is
    full: a write that only fails as the stream is flushed at close must not
    exit 0.
    Symlinks to /dev/full give the paths the CSV names the commands
    choose by."""
    if not os.path.exists("/dev/full"):
        print("[skip] text outputs to /dev/full: no such device")
        return
    wct = os.path.join(DATA_DIR, "golden_dfn.wct")
    full_csv = os.path.join(tmp, "full.csv")
    os.symlink("/dev/full", full_csv)
    panels = os.path.join(tmp, "panels")
    os.symlink("/dev/full", panels + "_hr_overall.csv")
    for name, path, args in (
        ("simulate --result-out", "/dev/full",
         ("simulate", wct, "--result-out=/dev/full")),
        ("simulate --metrics-out json", "/dev/full",
         ("simulate", wct, "--metrics-out=/dev/full")),
        ("simulate --metrics-out csv", full_csv,
         ("simulate", wct, f"--metrics-out={full_csv}")),
        ("sweep --curve-out", "/dev/full",
         ("sweep", wct, "--policies=LRU", "--fractions=0.04",
          "--curve-out=/dev/full")),
        ("sweep --panels-out", panels + "_hr_overall.csv",
         ("sweep", wct, "--policies=LRU", "--fractions=0.04",
          f"--panels-out={panels}")),
        ("export", "/dev/full", ("export", wct, "/dev/full")),
        ("generate --format=squid", "/dev/full",
         ("generate", "--profile=DFN", "--scale=0.001", "--format=squid",
          "--out=/dev/full")),
    ):
        p = run(cli, *args)
        check(f"{name} to a full device exits 1 naming {path}",
              p.returncode == 1 and f"cannot write {path}" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[-200:]}")
    # The reports that only go to stdout.
    for args in (("stackdist", wct), ("characterize", wct), ("profile",)):
        with open("/dev/full", "w") as full:
            p = subprocess.run([cli, *args], stdout=full,
                               stderr=subprocess.PIPE, text=True,
                               timeout=120)
        check(f"{args[0]} > /dev/full exits 1 naming stdout",
              p.returncode == 1 and "cannot write stdout" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[-200:]}")


def check_upgrade_to_v4(cli, tmp):
    """`convert --recover` is the upgrade path for v1-v3 traces: it rewrites
    the v2 golden trace as v4, which stores each record's dense id after its
    document id, and replays of the two files write the same result and
    curve bytes."""
    golden = os.path.join(DATA_DIR, "golden_dfn.wct")
    upgraded = os.path.join(tmp, "golden_v4.wct")
    p = run(cli, "convert", "--recover", golden, upgraded)
    check("convert --recover golden", p.returncode == 0,
          p.stderr.strip()[:200])
    if p.returncode != 0:
        return
    with open(golden, "rb") as f:
        old = f.read()
    with open(upgraded, "rb") as f:
        new = f.read()
    count = int.from_bytes(old[8:16], "little")
    check("golden is version 2", int.from_bytes(old[4:8], "little") == 2)
    check("upgraded is version 4", int.from_bytes(new[4:8], "little") == 4,
          str(new[4:8]))
    check("upgrade keeps the magic and count, adds 4 bytes a record",
          new[:4] == old[:4] and new[8:16] == old[8:16]
          and len(new) == len(old) + 4 * count)

    for job, flags, out_flag in (
            ("simulate", ("--policy=GD*(1)",
                          f"--cache-fraction={GOLDEN_CACHE_FRACTION}"),
             "--result-out"),
            ("sweep", ("--policies=LRU,GD*(1)", "--fractions=0.005,0.04"),
             "--curve-out")):
        outputs = []
        for wct in (golden, upgraded):
            out = os.path.join(tmp, f"{os.path.basename(wct)}.{job}.json")
            p = run(cli, job, wct, *flags, f"{out_flag}={out}")
            check(f"{job} {os.path.basename(wct)}", p.returncode == 0,
                  p.stderr.strip()[:200])
            with open(out, "rb") as f:
                outputs.append(f.read())
        check(f"v2 and v4 golden {job} write identical {out_flag}",
              outputs[0] == outputs[1])


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
        check_upgrade_to_v4(cli, tmp)
        check_replicate_and_opt(cli, tmp)
        check_full_device(cli, tmp)
    if FAILURES:
        print(f"\n{len(FAILURES)} smoke check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("\nall CLI smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

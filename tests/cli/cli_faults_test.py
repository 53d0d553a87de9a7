#!/usr/bin/env python3
"""CLI fault-path tests, run under CTest as `cli_faults`.

Covers the robustness surface of the front end:
  * a corrupted binary trace must exit nonzero with a stderr diagnostic
    naming the failing record/byte offset (never crash, never exit 0);
  * `convert --strict` must abort on the first malformed log line, naming
    the line, while the tolerant default classifies and reports it;
  * `hierarchy --faults` must replay a schedule, print the fault counters,
    and emit a webcache.metrics.v1 hierarchy JSON whose windows satisfy
    conservation (hits + lost <= requests) and roll up to the aggregate;
  * a malformed schedule file must exit 1 naming the offending line.

Usage: cli_faults_test.py <path-to-webcache-binary>
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


def run(cli, *args, timeout=120):
    return subprocess.run(
        [cli, *args], capture_output=True, text=True, timeout=timeout
    )


def make_trace(cli, tmp):
    wct = os.path.join(tmp, "faults.wct")
    p = run(cli, "generate", "--profile=DFN", "--scale=0.001", "--seed=7",
            f"--out={wct}")
    check("generate workload", p.returncode == 0, p.stderr.strip()[:200])
    return wct


def check_corrupted_trace(cli, tmp, wct):
    # Flip one byte inside the first record: the checksum must catch it and
    # the diagnostic must point into the file.
    corrupted = os.path.join(tmp, "corrupted.wct")
    with open(wct, "rb") as f:
        data = bytearray(f.read())
    data[16 + 5] ^= 0x01
    with open(corrupted, "wb") as f:
        f.write(data)

    p = run(cli, "simulate", corrupted, "--policy=LRU")
    check("corrupted trace exits 1", p.returncode == 1,
          f"rc={p.returncode}")
    check("corrupted trace did not signal", p.returncode >= 0)
    check("diagnostic names the checksum", "checksum mismatch" in p.stderr,
          p.stderr.strip()[:200])
    check("diagnostic names a byte offset", "byte offset" in p.stderr,
          p.stderr.strip()[:200])

    # Truncation mid-record: the record index must be named.
    truncated = os.path.join(tmp, "truncated.wct")
    with open(truncated, "wb") as f:
        f.write(bytes(data[: 16 + 43 + 10]))
    p = run(cli, "simulate", truncated, "--policy=LRU")
    check("truncated trace exits 1", p.returncode == 1, f"rc={p.returncode}")
    check("diagnostic names the record", "record 1" in p.stderr,
          p.stderr.strip()[:200])


def check_strict_convert(cli, tmp, wct):
    log = os.path.join(tmp, "faults.log")
    out = os.path.join(tmp, "roundtrip.wct")
    p = run(cli, "export", wct, log)
    check("export squid log", p.returncode == 0, p.stderr.strip()[:200])
    with open(log, "a") as f:
        f.write("this line is not squid format\n")

    p = run(cli, "convert", log, out)
    check("tolerant convert succeeds", p.returncode == 0,
          p.stderr.strip()[:200])
    check("tolerant convert reports the reject",
          "1 lines rejected" in p.stderr, p.stderr.strip()[:300])

    p = run(cli, "convert", log, out, "--strict")
    check("strict convert exits 1", p.returncode == 1, f"rc={p.returncode}")
    check("strict convert names the line", "squid log line" in p.stderr,
          p.stderr.strip()[:200])


def check_fault_metrics(cli, tmp, wct):
    schedule = os.path.join(tmp, "faults.schedule")
    with open(schedule, "w") as f:
        f.write(
            "# CLI fault scenario\n"
            "probe-timeout-rate 1.0\n"
            "1500 edge-crash 0\n"
            "2000 root-outage\n"
            "2600 edge-recover 0\n"
            "3000 root-recover\n"
        )
    mjson = os.path.join(tmp, "fault_metrics.json")
    p = run(cli, "hierarchy", wct, "--edges=3", "--mesh",
            f"--faults={schedule}", f"--metrics-out={mjson}",
            "--metrics-window=500")
    check("hierarchy --faults runs", p.returncode == 0,
          p.stderr.strip()[:300])
    check("fault table printed", "Fault events applied" in p.stdout,
          p.stdout[:300])

    with open(mjson) as f:
        doc = json.load(f)
    check("schema tag", doc.get("schema") == "webcache.metrics.v1")
    check("hierarchy mode tag", doc.get("mode") == "hierarchy")
    agg = doc.get("aggregate", {})
    check("aggregate faults present", "faults" in agg)
    faults = agg.get("faults", {})
    check("events applied", faults.get("events_applied", 0) == 4)
    check("failovers counted", faults.get("failovers", 0) > 0)
    check("lost requests counted", faults.get("lost_requests", 0) > 0)

    windows = doc.get("windows", [])
    check("windows present", len(windows) >= 1)
    lost = failovers = events = 0
    conserved = True
    availability_ok = True
    degraded_seen = False
    for w in windows:
        overall = w["overall"]
        if overall["hits"] + overall["lost"] > overall["requests"]:
            conserved = False
        lost += overall["lost"]
        failovers += w["failovers"]
        events += w["fault_events"]
        if w.get("availability") is None:
            availability_ok = False
        elif w["availability"] < 1.0:
            degraded_seen = True
    check("window conservation (hits + lost <= requests)", conserved)
    check("window lost rolls up", lost == faults.get("lost_requests"))
    check("window failovers roll up", failovers == faults.get("failovers"))
    check("window fault events roll up",
          events == faults.get("events_applied"))
    check("availability present in every window", availability_ok)
    check("availability dips during the outage", degraded_seen)

    curves = doc.get("warmup_curves", [])
    check("warm-up curves recorded", len(curves) == 2)
    check("root curve serialized by name",
          any(c.get("node") == "root" for c in curves))

    # Determinism: the same schedule yields byte-identical metrics.
    mjson2 = os.path.join(tmp, "fault_metrics2.json")
    p = run(cli, "hierarchy", wct, "--edges=3", "--mesh",
            f"--faults={schedule}", f"--metrics-out={mjson2}",
            "--metrics-window=500")
    check("second fault run succeeds", p.returncode == 0)
    with open(mjson) as a, open(mjson2) as b:
        check("fault metrics deterministic", a.read() == b.read())


def check_bad_schedule(cli, tmp, wct):
    schedule = os.path.join(tmp, "bad.schedule")
    with open(schedule, "w") as f:
        f.write("1500 melt-down 0\n")
    p = run(cli, "hierarchy", wct, f"--faults={schedule}")
    check("bad schedule exits 1", p.returncode == 1, f"rc={p.returncode}")
    check("bad schedule names the line", "line 1" in p.stderr,
          p.stderr.strip()[:200])

    p = run(cli, "hierarchy", wct, "--faults=/nonexistent/faults.schedule")
    check("missing schedule exits 1", p.returncode == 1)


def main():
    if len(sys.argv) != 2:
        print("usage: cli_faults_test.py <webcache-binary>", file=sys.stderr)
        return 2
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="webcache_cli_faults.") as tmp:
        wct = make_trace(cli, tmp)
        check_corrupted_trace(cli, tmp, wct)
        check_strict_convert(cli, tmp, wct)
        check_fault_metrics(cli, tmp, wct)
        check_bad_schedule(cli, tmp, wct)
    if FAILURES:
        print(f"\n{len(FAILURES)} fault check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("\nall CLI fault checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

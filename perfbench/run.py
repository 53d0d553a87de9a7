#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the webcache CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dfn-simulate-lru --seed 1 \
        --seconds 10 --trace 0

The first run builds the library, the `webcache` CLI and the probe binary
`wcbench` into .bench_build (Release). Each run then generates the workload's
trace from --seed (the set-up), and

  --trace 0  runs the CLI job as a child process, one job after another,
             for --seconds, and reports the end-to-end metrics;
  --trace 1  runs the traced, in-process replay of the same job plus the
             stripped per-layer loops (wcbench trace), and reports the
             per-layer metrics derived from its spans.

Every cell (one policy at one capacity) a job produces is checked: against
the digest recorded in perfbench/digests.json when the seed has one, and
otherwise against the same cell recomputed through a different replay
engine (wcbench reference). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. The exit status is non-zero
when any cell failed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

MIB = 1024 * 1024
SETUP_REPS = 7  # set-ups per run; setup_s is their median
MIN_JOB_REPS = 3  # untraced jobs per run, even when --seconds is short
SWEEP_THREADS = min(4, os.cpu_count() or 1)
SWEEP_POLICIES = "LRU,LFU-DA,GDS(1),GD*(1)"
SWEEP_FRACTIONS = "0.005,0.04,0.4"  # Figure 2's ends and its 4 % point
PACKET_CACHE_SHARE = 0.01  # GD*(packet)'s cache, as a share of overall size

# Each workload is one CLI job on one generated trace. `scale` is the share
# of the paper's trace size (DFN 1.0 = 6.7 M requests, 3.0 M documents).
WORKLOADS = {
    "dfn-simulate-lru": {
        "profile": "DFN", "scale": 0.2, "job": "simulate",
        "policy": "LRU", "cache_fraction": 0.04,
    },
    "dfn-fig2-sweep": {"profile": "DFN", "scale": 0.1, "job": "sweep"},
    "rtp-stream-packet": {
        "profile": "RTP", "scale": 0.2, "job": "stream",
        "policy": "GD*(packet)",
    },
}

END_TO_END = {
    "wall_s": "s", "mreq_per_s": "Mreq/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
POLICY_SLUGS = ["lru", "lfu-da", "gds-1", "gdstar-1", "gdstar-packet"]
PER_LAYER = {
    "synth.generate_ns_per_req": "ns/req",
    "trace.write_ns_per_req": "ns/req",
    "trace.load_ns_per_req": "ns/req",
    "trace.overall_size_ns_per_req": "ns/req",
    "trace.densify_ns_per_req": "ns/req",
    "trace.stream_decode_ns_per_req": "ns/req",
    "cache.probe_ns_per_req": "ns/req",
    **{f"cache.access_ns_per_req.{p}": "ns/req" for p in POLICY_SLUGS},
    **{f"cache.evictions_per_req.{p}": "evictions/req" for p in POLICY_SLUGS},
    **{f"cache.state_bytes_per_doc.{p}": "B/doc" for p in POLICY_SLUGS},
    **{f"sim.replay_ns_per_req.{p}": "ns/req" for p in POLICY_SLUGS},
    "sim.core_ns_per_req": "ns/req",
    "sim.stack_sweep_ns_per_req": "ns/req",
    "sim.sweep_cell_s.p50": "s",
    "sim.sweep_cell_s.max": "s",
    "sim.sweep_cells": "count",
    "sim.sweep_idle_frac": "fraction",
    "sim.stream_ns_per_req": "ns/req",
    "obs.recording_ns_per_req": "ns/req",
    "obs.metrics_write_ms": "ms",
    "checkpoint.write_ms": "ms",
    "checkpoint.bytes": "B",
    "trace.job_unattributed_frac": "fraction",
    "trace.overhead_s": "s",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message, code=1):
    log(f"perfbench: {message}")
    sys.exit(code)


def build():
    """Configures once, then brings `webcache` and `wcbench` up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "CMakeLists.txt").is_file():
        fail(f"no webcache sources under {ROOT} (src/, tools/)", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j",
                    str(min(4, os.cpu_count() or 1)), "--target",
                    "webcache_cli", "wcbench"], stdout=sys.stderr, check=True)
    return BUILD / "tools" / "webcache", BUILD / "wcbench"


def job_flags(spec):
    """wcbench flags describing the workload's job (and the sweep probes)."""
    flags = [f"--job={spec['job']}", f"--policies={SWEEP_POLICIES}",
             f"--fractions={SWEEP_FRACTIONS}", f"--threads={SWEEP_THREADS}",
             f"--checkpoint-every={spec['checkpoint_every']}",
             f"--cache-mb={spec['cache_mb']}"]
    if "policy" in spec:
        flags.append(f"--policy={spec['policy']}")
    if "cache_fraction" in spec:
        flags.append(f"--cache-fraction={spec['cache_fraction']}")
    return flags


def resolve_cache(spec, overall_bytes):
    """Sizes GD*(packet)'s cache: the stream job's, and that of the
    GD*(packet) probes on every workload. It is PACKET_CACHE_SHARE of the
    trace's overall size in whole MiB, because `simulate --stream` takes
    only --cache-mb (it never sees the whole trace)."""
    spec["cache_mb"] = max(1, int(math.floor(
        overall_bytes * PACKET_CACHE_SHARE / MIB + 0.5)))


def cli_argv(cli, spec, trace_file, out_dir):
    """The user's command line for the workload's job."""
    if spec["job"] == "simulate":
        return [str(cli), "simulate", str(trace_file),
                f"--policy={spec['policy']}",
                f"--cache-fraction={spec['cache_fraction']}",
                f"--result-out={out_dir / 'result.json'}"]
    if spec["job"] == "sweep":
        return [str(cli), "sweep", str(trace_file),
                f"--policies={SWEEP_POLICIES}",
                f"--fractions={SWEEP_FRACTIONS}",
                f"--threads={SWEEP_THREADS}",
                f"--curve-out={out_dir / 'curve.json'}"]
    return [str(cli), "simulate", str(trace_file), "--stream",
            f"--policy={spec['policy']}",
            f"--cache-mb={spec['cache_mb']}",
            f"--metrics-out={out_dir / 'metrics.json'}",
            f"--checkpoint-dir={out_dir / 'checkpoints'}",
            f"--checkpoint-every={spec['checkpoint_every']}",
            f"--result-out={out_dir / 'result.json'}"]


def run_child(argv, stderr_path):
    """Runs one child to completion.

    Returns (exit code, wall s, user + system CPU s, peak RSS KiB); the
    resource figures are the child's own, from wait4."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss)


def read_json_stdout(argv, what):
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout)


# ---- cells and digests ----

def cell_from_result(r):
    return {"policy": r["policy"], "capacity_bytes": r["capacity_bytes"],
            "overall": [r["overall"][k] for k in
                        ("requests", "hits", "requested_bytes", "hit_bytes")],
            "per_class": [[c[k] for k in ("requests", "hits",
                                          "requested_bytes", "hit_bytes")]
                          for c in r["per_class"]],
            "evictions": r["evictions"],
            "modification_misses": r["modification_misses"]}


def job_cells(spec, out_dir, exit_code):
    """The job's cells, or none when it failed or left unreadable output."""
    if exit_code != 0:
        return []
    try:
        return cells_from_outputs(spec, out_dir)
    except (OSError, ValueError, KeyError, TypeError):
        return []


def cells_from_outputs(spec, out_dir):
    """The job's cells, read back from --result-out / --curve-out."""
    if spec["job"] != "sweep":
        return [cell_from_result(json.loads(
            (out_dir / "result.json").read_text()))]
    cells = []
    for point in json.loads((out_dir / "curve.json").read_text())["points"]:
        for r in point["policies"]:
            cells.append(cell_from_result({
                **r, "capacity_bytes": point["capacity_bytes"],
                "per_class": list(r["per_class"].values())}))
    return cells


def cell_key(cell):
    return f"{cell['policy']}@{cell['capacity_bytes']}"


def digest(cell):
    canonical = json.dumps(cell, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def consistent(cell):
    """Counter invariants every correct cell satisfies."""
    sums = [sum(c[i] for c in cell["per_class"]) for i in range(4)]
    req, hits, req_bytes, hit_bytes = cell["overall"]
    return sums == cell["overall"] and hits <= req and hit_bytes <= req_bytes


def count_failures(cells, expected):
    """Failed cells of one job: missing, inconsistent or digest mismatch."""
    got = {cell_key(c): c for c in cells}
    failed = 0
    for key, want in expected.items():
        cell = got.get(key)
        if cell is None or not consistent(cell) or digest(cell) != want:
            failed += 1
    return failed


def digest_key(name, scale, seed):
    return f"{name} scale={scale:g} seed={seed}"


def expected_digests(args, name, spec, wcbench, trace_file):
    """Recorded digests for this seed, else digests of the reference cells."""
    key = digest_key(name, spec["scale"], args.seed)
    if not args.record_digests and key in recorded_digests(args):
        return recorded_digests(args)[key], "recorded digests"
    ref = read_json_stdout([str(wcbench), "reference", f"--trace={trace_file}",
                            *job_flags(spec)], "reference")
    return {cell_key(c): digest(c) for c in ref["cells"]}, "reference engine"


def recorded_digests(args):
    return json.loads(args.digests.read_text()) if args.digests.is_file() \
        else {}


def record_digests(args, name, spec, cells):
    recorded = recorded_digests(args)
    recorded[digest_key(name, spec["scale"], args.seed)] = {
        cell_key(c): digest(c) for c in cells}
    args.digests.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                            + "\n")


# ---- the two kinds of run ----

def generate(wcbench, spec, seed, trace_file):
    """Generates and writes the workload's trace; returns its summary."""
    return read_json_stdout(
        [str(wcbench), "gen", f"--profile={spec['profile']}",
         f"--scale={spec['scale']}", f"--seed={seed}", f"--out={trace_file}"],
        "trace generation")


def timed_setup(wcbench, spec, seed, trace_file):
    """One set-up; returns (seconds, trace summary).

    Earlier writes are flushed before the clock starts and this one after it
    stops, so no set-up or job waits on another's write-back."""
    os.sync()
    start = time.perf_counter()
    info = generate(wcbench, spec, seed, trace_file)
    seconds = time.perf_counter() - start
    os.sync()
    return seconds, info


def prepare_outputs(out_dir):
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)


def untraced_run(args, name, spec, cli, wcbench, work):
    trace_file = work / "trace.wct"
    spare_file = work / "setup.wct"
    out_dir = work / "out"
    first_setup, info = timed_setup(wcbench, spec, args.seed, trace_file)
    setups = [first_setup]
    resolve_cache(spec, info["overall_size_bytes"])
    expected, source = expected_digests(args, name, spec, wcbench, trace_file)
    log(f"{name}: checking cells against the {source}")
    argv = cli_argv(cli, spec, trace_file, out_dir)
    walls, cpus, rss = [], [], []
    attempted = failed = 0
    first_cells = None
    start = time.perf_counter()
    while len(walls) < MIN_JOB_REPS or len(setups) < SETUP_REPS or \
            time.perf_counter() - start < args.seconds:
        # The other set-ups are spread evenly over the measured time, so
        # that, like the jobs, they sample the host's quiet and busy spells.
        # They write a spare file and leave the jobs' input alone.
        if len(setups) < SETUP_REPS and time.perf_counter() - start >= \
                len(setups) * args.seconds / SETUP_REPS:
            setups.append(timed_setup(wcbench, spec, args.seed,
                                      spare_file)[0])
            continue
        prepare_outputs(out_dir)
        code, wall, cpu, maxrss = run_child(argv, work / "job.stderr")
        cells = job_cells(spec, out_dir, code)
        first_cells = cells if first_cells is None else first_cells
        attempted += len(expected)
        failed += count_failures(cells, expected)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)
    spare_file.unlink(missing_ok=True)
    if args.record_digests and failed == 0:
        record_digests(args, name, spec, first_cells)
    # Other tenants of a shared host only ever add time to a job, so the
    # fastest job is the steadiest estimate of what the job itself costs.
    wall_s = min(walls)
    metrics = {
        "wall_s": wall_s,
        "mreq_per_s": info["requests"] * len(expected) / wall_s / 1e6,
        "cpu_s": min(cpus),
        "peak_rss_mb": statistics.median(rss) / 1024.0,
        "setup_s": statistics.median(setups),
    }
    log(f"{name}: set-up s {[round(s, 3) for s in setups]}")
    log(f"{name}: {len(walls)} jobs, wall s {[round(w, 3) for w in walls]}")
    return attempted, failed, metrics, END_TO_END


class Spans:
    """The traced run's spans, indexed by parent and name."""

    def __init__(self, path):
        self.spans = json.loads(path.read_text())["spans"]
        for s in self.spans:
            s["dur"] = (s["end_ns"] - s["start_ns"]) / 1e9
            s["children"] = []
        for s in self.spans:
            if s["parent"] >= 0:
                self.spans[s["parent"]]["children"].append(s)

    def under(self, parent_name, name):
        parent = next(s for s in self.spans if s["name"] == parent_name)
        return [s for s in parent["children"] if s["name"] == name]

    def median(self, parent_name, name):
        return statistics.median(s["dur"] for s in
                                 self.under(parent_name, name))

    def one(self, parent_name, name):
        found = self.under(parent_name, name)
        if len(found) != 1:
            fail(f"traced run: expected one span {parent_name}/{name}")
        return found[0]

    @staticmethod
    def self_time(span):
        """Duration minus the part of it the child spans cover."""
        covered, end = 0, None
        for c in sorted(span["children"], key=lambda c: c["start_ns"]):
            lo = c["start_ns"] if end is None else max(c["start_ns"], end)
            if c["end_ns"] > lo:
                covered += c["end_ns"] - lo
            end = c["end_ns"] if end is None else max(end, c["end_ns"])
        return span["dur"] - covered / 1e9

    def log_self_times(self):
        totals = {}
        for s in self.spans:
            path, p = [s["name"]], s["parent"]
            while p >= 0:
                path.append(self.spans[p]["name"])
                p = self.spans[p]["parent"]
            key = "/".join(reversed(path))
            n, dur, own = totals.get(key, (0, 0.0, 0.0))
            totals[key] = (n + 1, dur + s["dur"], own + self.self_time(s))
        log(f"{'span':58s} {'n':>3s} {'total s':>9s} {'self s':>9s}")
        for key, (n, dur, own) in totals.items():
            log(f"{key:58s} {n:3d} {dur:9.4f} {own:9.4f}")


def layer_metrics(spans, requests, documents, untraced_wall):
    ns = 1e9 / requests

    def probe(name):
        return spans.one("probes", name)

    m = {
        "synth.generate_ns_per_req":
            spans.one("setup", "synth.generate")["dur"] * ns,
        "trace.write_ns_per_req":
            spans.one("setup", "trace.write")["dur"] * ns,
        "trace.load_ns_per_req": probe("trace.load")["dur"] * ns,
        "trace.overall_size_ns_per_req":
            probe("trace.overall_size")["dur"] * ns,
        "trace.densify_ns_per_req": probe("trace.densify")["dur"] * ns,
        "trace.stream_decode_ns_per_req":
            probe("trace.stream_decode")["dur"] * ns,
        "cache.probe_ns_per_req": probe("cache.contains")["dur"] * ns,
    }
    for p in POLICY_SLUGS:
        access = probe(f"cache.access.{p}")
        m[f"cache.access_ns_per_req.{p}"] = access["dur"] * ns
        m[f"cache.evictions_per_req.{p}"] = \
            access["attrs"]["evictions"] / requests
        m[f"cache.state_bytes_per_doc.{p}"] = \
            access["attrs"]["state_bytes"] / documents
        m[f"sim.replay_ns_per_req.{p}"] = \
            probe(f"sim.simulate.{p}")["dur"] * ns
    m["sim.core_ns_per_req"] = \
        m["sim.replay_ns_per_req.lru"] - m["cache.access_ns_per_req.lru"]

    stack = spans.under("probes", "sim.stack_sweep")
    stack_s = stack[0]["dur"] if stack else 0.0
    m["sim.stack_sweep_ns_per_req"] = stack_s * ns
    cells = [s["dur"] for s in spans.under("probes", "sim.sweep_cell")]
    m["sim.sweep_cell_s.p50"] = statistics.median(cells)
    m["sim.sweep_cell_s.max"] = max(cells)
    m["sim.sweep_cells"] = len(cells)
    pooled = probe("sim.run_sweep")
    m["sim.sweep_idle_frac"] = 1.0 - (sum(cells) + stack_s) / (
        pooled["attrs"]["threads"] * pooled["dur"])

    plain = spans.median("probes", "sim.simulate_stream")
    m["sim.stream_ns_per_req"] = plain * ns
    m["obs.recording_ns_per_req"] = \
        (spans.median("probes", "sim.simulate_stream.recording") - plain) * ns
    m["obs.metrics_write_ms"] = probe("obs.write_metrics_json")["dur"] * 1e3
    checkpointed = probe("sim.simulate_stream_checkpointed")
    written = checkpointed["attrs"]["checkpoints"]
    m["checkpoint.write_ms"] = \
        (checkpointed["dur"] - plain) * 1e3 / max(1, written)
    m["checkpoint.bytes"] = checkpointed["attrs"]["checkpoint_bytes"]

    job = spans.one("run", "job")
    m["trace.job_unattributed_frac"] = Spans.self_time(job) / job["dur"]
    m["trace.overhead_s"] = job["dur"] - untraced_wall
    return m


def traced_run(args, name, spec, cli, wcbench, work):
    trace_file = work / "trace.wct"
    spans_file = work / "spans.json"
    resolve_cache(spec, generate(wcbench, spec, args.seed,
                                 trace_file)["overall_size_bytes"])
    os.sync()
    summary = read_json_stdout(
        [str(wcbench), "trace", f"--profile={spec['profile']}",
         f"--scale={spec['scale']}", f"--seed={args.seed}",
         f"--out={trace_file}", f"--work-dir={work / 'traced'}",
         f"--spans-out={spans_file}", f"--run-id={name}-seed{args.seed}",
         *job_flags(spec)], "traced run")
    expected, source = expected_digests(args, name, spec, wcbench, trace_file)
    log(f"{name}: checking cells against the {source}")
    attempted = len(expected)
    failed = count_failures(summary["cells"], expected)

    # The untraced baseline for trace.overhead_s: the CLI job itself.
    out_dir = work / "out"
    walls = []
    for _ in range(MIN_JOB_REPS):
        prepare_outputs(out_dir)
        code, wall, _, _ = run_child(cli_argv(cli, spec, trace_file, out_dir),
                                     work / "job.stderr")
        attempted += len(expected)
        failed += count_failures(job_cells(spec, out_dir, code), expected)
        walls.append(wall)

    spans = Spans(spans_file)
    spans.log_self_times()
    metrics = layer_metrics(spans, summary["requests"], summary["documents"],
                            statistics.median(walls))
    return attempted, failed, metrics, PER_LAYER


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="multiplies every workload's trace scale "
                             "(self_check.py runs tiny ones)")
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="recorded cell digests (default: %(default)s)")
    parser.add_argument("--record-digests", action="store_true",
                        help="check the cells against the reference engine "
                             "only, then record their digests for this seed")
    args = parser.parse_args()

    cli, wcbench = build()
    spec = dict(WORKLOADS[args.workload])
    spec["scale"] = spec["scale"] * args.scale_factor
    spec["checkpoint_every"] = max(1000, round(1_000_000 * spec["scale"]))
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)

    run = traced_run if args.trace else untraced_run
    attempted, failed, metrics, units = run(args, args.workload, spec, cli,
                                            wcbench, work)
    log(f"{args.workload}: failed/attempted cells = {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

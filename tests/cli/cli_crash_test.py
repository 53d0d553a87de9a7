#!/usr/bin/env python3
"""Crash-injection harness, run under CTest as `cli_crash`.

A checkpointed streaming replay must survive being SIGKILLed at arbitrary
request indices — including in the middle of a checkpoint write, leaving a
torn file under the final name — and, once resumed, finish with results
byte-identical to an uninterrupted run: the full-precision --result-out
JSON (every counter and latency double) and the webcache.metrics.v1
windowed series. Torn or corrupt checkpoints must be rejected on stderr
with a named diagnostic, never silently restored.

The kill points are drawn from a seeded RNG so every run of this harness
exercises the same 20 crash sites across five eviction families.

Usage: cli_crash_test.py <path-to-webcache-binary>
"""

import os
import random
import signal
import subprocess
import sys
import tempfile

FAILURES = []

POLICIES = [
    ("LRU", "lru"),
    ("GDSF(1)", "gdsf"),
    ("RANDOM:seed=7", "random"),
    ("DELAY-CLOCK:k=3", "delay_clock"),
    ("PROB-LRU:p=0.5,seed=9", "prob_lru"),
]
TOTAL_REQUESTS = 13436  # DFN --scale=0.002 --seed=7
CHECKPOINT_EVERY = 1500
METRICS_WINDOW = 113


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def run(cli, *args, env_extra=None, timeout=240):
    env = None
    if env_extra:
        env = {**os.environ, **env_extra}
    return subprocess.run(
        [cli, *args], capture_output=True, text=True, timeout=timeout,
        env=env
    )


def read(path):
    with open(path, "rb") as f:
        return f.read()


def simulate_args(cli, wct, policy, result_out, metrics_out):
    return [cli, "simulate", wct, f"--policy={policy}", "--cache-mb=4",
            "--stream", f"--metrics-window={METRICS_WINDOW}",
            f"--metrics-out={metrics_out}", f"--result-out={result_out}"]


def crash_chain(cli, wct, tmp, policy, tag, kill_points, torn_write,
                keep=None):
    """Kill a checkpointed run at each point in turn, resume after every
    crash, and compare the finished run byte-for-byte with the
    uninterrupted baseline. A torn write dies in checkpoint write 2, or in
    write 3 with keep=1: by then the first checkpoint was pruned into the
    spare, so the torn file is a recycled one."""
    label = tag

    base_result = os.path.join(tmp, f"{tag}_base_result.json")
    base_metrics = os.path.join(tmp, f"{tag}_base_metrics.json")
    p = run(*simulate_args(cli, wct, policy, base_result, base_metrics))
    check(f"{label}: baseline runs", p.returncode == 0,
          p.stderr.strip()[:200])
    if p.returncode != 0:
        return

    ckpt_dir = os.path.join(tmp, f"ckpt_{tag}")
    final_result = os.path.join(tmp, f"{tag}_result.json")
    final_metrics = os.path.join(tmp, f"{tag}_metrics.json")
    ckpt_flags = [f"--checkpoint-dir={ckpt_dir}",
                  f"--checkpoint-every={CHECKPOINT_EVERY}"]
    if keep is not None:
        ckpt_flags.append(f"--checkpoint-keep={keep}")
    torn_at = 3 if keep == 1 else 2

    # Segment 0 starts cold; each later segment resumes the ring.
    resumed = False
    for i, kill_at in enumerate(kill_points):
        env = {"WEBCACHE_CRASH_AT_REQUEST": str(kill_at)}
        if torn_write and i == 0:
            # Die mid-checkpoint-write instead: the temp file is truncated
            # to half and renamed over the final name before the SIGKILL,
            # so the newest checkpoint on disk is torn.
            env = {"WEBCACHE_CHECKPOINT_CRASH_AT_WRITE": str(torn_at)}
        argv = simulate_args(cli, wct, policy, final_result,
                             final_metrics) + ckpt_flags
        if resumed:
            argv.append("--resume")
        p = run(*argv, env_extra=env)
        check(f"{label}: segment {i} dies by SIGKILL",
              p.returncode == -signal.SIGKILL,
              f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")
        if torn_write and i == 0 and keep == 1:
            # Write 3 took the spare: only checkpoints 2 (whole) and 3
            # (torn) are left.
            names = sorted(os.listdir(ckpt_dir))
            check(f"{label}: torn write recycled the spare",
                  names == [f"checkpoint-{n * CHECKPOINT_EVERY:020d}.wckp"
                            for n in (2, 3)], str(names))
        resumed = True

    argv = simulate_args(cli, wct, policy, final_result,
                         final_metrics) + ckpt_flags + ["--resume"]
    p = run(*argv)
    check(f"{label}: final resume completes", p.returncode == 0,
          p.stderr.strip()[:200])
    if p.returncode != 0:
        return
    check(f"{label}: final resume actually resumed",
          "resumed after request" in p.stderr, p.stderr.strip()[:200])
    if torn_write:
        check(f"{label}: torn checkpoint rejected by name",
              "rejected '" in p.stderr and "checkpoint" in p.stderr,
              p.stderr.strip()[:300])
        check(f"{label}: resume fell back to the next-older checkpoint",
              "resuming from older checkpoint 'checkpoint-"
              f"{(torn_at - 1) * CHECKPOINT_EVERY:020d}.wckp'" in p.stderr,
              p.stderr.strip()[:300])

    check(f"{label}: result JSON byte-identical after crashes",
          read(base_result) == read(final_result))
    check(f"{label}: metrics JSON byte-identical after crashes",
          read(base_metrics) == read(final_metrics))


def trace_identity_checks(cli, wct, tmp):
    """Checkpoints name the trace by content (WCT1 version, record count,
    trailer digest), not by the path as typed: a resume through another
    spelling of the path or from a moved copy continues, and a different
    trace of the same length is refused with the field named."""
    ckpt = os.path.join(tmp, "ckpt_identity")
    flags = ["--policy=LRU", "--cache-mb=4", "--stream",
             f"--checkpoint-dir={ckpt}", f"--checkpoint-every={CHECKPOINT_EVERY}"]
    p = run(cli, "simulate", wct, *flags)
    check("identity: checkpointed run", p.returncode == 0,
          p.stderr.strip()[:200])

    def resume(trace, cwd=None):
        return subprocess.run([cli, "simulate", trace, *flags, "--resume"],
                              capture_output=True, text=True, timeout=240,
                              cwd=cwd)

    p = resume(os.path.join(".", os.path.basename(wct)), cwd=tmp)
    check("identity: resume through another spelling of the path",
          p.returncode == 0 and "resumed after request" in p.stderr,
          f"rc={p.returncode} stderr={p.stderr.strip()[:300]}")

    moved_dir = os.path.join(tmp, "moved")
    os.makedirs(moved_dir)
    moved = os.path.join(moved_dir, "renamed.wct")
    os.rename(wct, moved)
    try:
        p = resume(moved)
        check("identity: resume from a moved copy",
              p.returncode == 0 and "resumed after request" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[:300]}")
    finally:
        os.rename(moved, wct)

    other = os.path.join(tmp, "other.wct")
    p = run(cli, "generate", "--profile=DFN", "--scale=0.002", "--seed=8",
            f"--out={other}")
    check("identity: generate a second trace of the same length",
          p.returncode == 0
          and f"{TOTAL_REQUESTS} requests" in p.stdout + p.stderr,
          (p.stdout + p.stderr).strip()[:200])
    p = resume(other)
    check("identity: a different trace of the same length is refused",
          p.returncode == 1 and "fingerprint mismatch" in p.stderr
          and "trace_source" in p.stderr,
          f"rc={p.returncode} stderr={p.stderr.strip()[:300]}")


def main():
    if len(sys.argv) != 2:
        print("usage: cli_crash_test.py <webcache-binary>", file=sys.stderr)
        return 2
    cli = sys.argv[1]
    rng = random.Random(0xC0FFEE)

    with tempfile.TemporaryDirectory(prefix="webcache_cli_crash.") as tmp:
        wct = os.path.join(tmp, "mix.wct")
        p = run(cli, "generate", "--profile=DFN", "--scale=0.002", "--seed=7",
                f"--out={wct}")
        check("generate mix", p.returncode == 0, p.stderr.strip()[:200])
        if FAILURES:
            return 1

        # Four randomized kill points per policy, one in each quarter of
        # the span past the first checkpoint, so they increase and every
        # resume starts from real state: 5 policies x 4 = 20 kill sites,
        # plus torn-write cells below.
        first = CHECKPOINT_EVERY + 100
        quarter = (TOTAL_REQUESTS - 200 - first) // 4
        for policy, tag in POLICIES:
            kills = [rng.randrange(first + q * quarter,
                                   first + (q + 1) * quarter - 100)
                     for q in range(4)]
            crash_chain(cli, wct, tmp, policy, tag, kills,
                        torn_write=False)

        # Torn-checkpoint cells: the crash happens inside the checkpoint
        # writer, leaving a half-length file under the final checkpoint
        # name. Resume must reject it by name and fall back.
        crash_chain(cli, wct, tmp, "LRU", "lru_torn", [0], torn_write=True)
        crash_chain(cli, wct, tmp, "GDSF(1)", "gdsf_torn", [0],
                    torn_write=True)
        crash_chain(cli, wct, tmp, "GDSF(1)", "gdsf_torn_recycled", [0],
                    torn_write=True, keep=1)

        # A checkpoint directory full of garbage must abort the resume with
        # diagnostics, never cold-start over the user's intent.
        bad_dir = os.path.join(tmp, "ckpt_garbage")
        os.makedirs(bad_dir)
        with open(os.path.join(bad_dir, "checkpoint-00000000000000001000.wckp"),
                  "wb") as f:
            f.write(b"WCKP garbage that is not a checkpoint")
        p = run(cli, "simulate", wct, "--policy=LRU", "--cache-mb=4",
                "--stream", f"--checkpoint-dir={bad_dir}", "--resume")
        check("garbage checkpoint dir aborts resume",
              p.returncode == 1 and "no usable checkpoint" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[:300]}")

        # Resuming under a different configuration must be rejected with the
        # mismatching field named.
        good_dir = os.path.join(tmp, "ckpt_lru")
        p = run(cli, "simulate", wct, "--policy=GDSF(1)", "--cache-mb=4",
                "--stream", f"--checkpoint-dir={good_dir}", "--resume")
        check("cross-policy resume rejected by field name",
              p.returncode == 1 and "fingerprint mismatch" in p.stderr
              and "policy" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[:300]}")

        trace_identity_checks(cli, wct, tmp)

        # Checkpoint flags require the streaming path.
        p = run(cli, "simulate", wct, "--policy=LRU", "--cache-mb=4",
                f"--checkpoint-dir={os.path.join(tmp, 'nope')}")
        check("checkpoints without --stream fail cleanly",
              p.returncode == 1 and "stream" in p.stderr,
              f"rc={p.returncode} stderr={p.stderr.strip()[:200]}")

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {FAILURES}",
              file=sys.stderr)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-check of the perfbench harness on tiny traces.

    python3 perfbench/self_check.py

For every workload in BENCHMARK.json it runs run.py on a trace scaled down
by SCALE_FACTOR, once untraced and once traced, and checks that

  * the last stdout line holds exactly correct/attempted/failed/metrics,
    every cell passed, and every end-to-end (untraced) or per-layer
    (traced) metric named in BENCHMARK.json is printed with its unit;
  * a recorded digest that no longer matches fails its cell: the run then
    reports failed > 0, correct false, and exits non-zero.

Digests go to a scratch file under .bench_work; perfbench/digests.json is
not touched. Exits non-zero on the first broken expectation.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCALE_FACTOR = 0.05
SEED = 1


def run(workload, trace, digests, *extra):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--scale-factor", str(SCALE_FACTOR), "--digests", str(digests),
            *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"self-check: {workload} printed nothing\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def expect(ok, message):
    if not ok:
        sys.exit(f"self-check: FAILED: {message}")
    print(f"ok  {message}")


def check_result(workload, result, metrics):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result has exactly the four keys")
    for m in metrics:
        got = result["metrics"].get(m["name"])
        expect(got is not None and got["unit"] == m["unit"] and
               isinstance(got["value"], (int, float)),
               f"{workload}: {m['name']} printed in {m['unit']}")


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = ROOT / ".bench_work" / "self-check-digests.json"
    digests.parent.mkdir(parents=True, exist_ok=True)
    digests.unlink(missing_ok=True)

    for w in (w["name"] for w in config["workloads"]):
        code, result = run(w, 0, digests, "--record-digests")
        expect(code == 0 and result["correct"] and result["failed"] == 0 and
               result["attempted"] >= 1, f"{w}: untraced run passes")
        check_result(w, result, config["end_to_end"])
        code, result = run(w, 1, digests)
        expect(code == 0 and result["correct"] and result["failed"] == 0,
               f"{w}: traced run passes against the recorded digests")
        check_result(w, result, config["per_layer"])

        recorded = json.loads(digests.read_text())
        key = next(k for k in recorded if k.startswith(w + " "))
        cell = next(iter(recorded[key]))
        recorded[key][cell] = "0" * 16
        digests.write_text(json.dumps(recorded))
        code, result = run(w, 0, digests)
        expect(code != 0 and not result["correct"] and result["failed"] >= 1,
               f"{w}: a corrupted digest fails cell {cell} and the run")
    print("self-check passed")


if __name__ == "__main__":
    main()

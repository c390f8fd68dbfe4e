"""Benchmark entry point: one fresh worker process per workload.

    python3 perfbench/run.py --workload slab3d --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. This file imports no numpy: it pins the
BLAS/OpenMP thread variables to one thread, puts the checkout's ``src`` first
on PYTHONPATH, starts ``worker.py`` for each workload and waits for it. The
last line of standard output is the JSON result; for ``all`` the metric names
carry the workload as a prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(w["name"] for w in DECLARED["workloads"])
THREADS = "1"  # single-threaded: at most nproc, and steadier on a shared machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_timeout(seconds) -> float:
    """Wall-time limit of one worker: the probe and set-up plus a slow host."""
    return 45 + 4 * seconds


def run_worker(name, args) -> dict:
    env = dict(os.environ)
    env.update({k: THREADS for k in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(ROOT / ".bench_out"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timeout = worker_timeout(args.seconds)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {name} did not finish within {timeout:g} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {name} worker exited with code {proc.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lagmhd benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lagmhd" / "__init__.py").is_file():
        print(f"perfbench: no lagmhd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_worker(args.workload, args)
    else:
        results = {name: run_worker(name, args) for name in NAMES}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

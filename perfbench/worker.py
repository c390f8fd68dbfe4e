"""Run one workload in this process and print its result.

run.py starts this file in a fresh process per workload, with the thread
variables pinned and ``src`` on PYTHONPATH. The sequence is:

1. the reference probe: the workload at the default seed over a short
   horizon, held against reference.json; it also warms the caches;
2. timed calls at ``--seed``, as many as take about ``--seconds`` on the
   reference machine, with only the spans the end-to-end metrics need and
   the host gauge after every step; with ``--trace 1`` every other call has
   every layer span installed instead, and the per-layer metrics come from
   those calls.

The time metrics are reported at the reference host speed: the gauge's
time on this host scales them (``at_reference_speed``).

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy


import checks
import layers
import workloads
from run import DECLARED, NAMES, THREAD_VARS
from spans import Tracer, patched

HERE = Path(__file__).resolve().parent
MIN_CALLS = 2  # repeats needed for the byte-identity and exact-count checks
UNITS = {
    trace: {m["name"]: m["unit"] for m in DECLARED[key]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer"))
}
NOTES = {
    "grid.fft_bytes_per_step": "computed from array sizes",
    "checkpoint.bytes_per_run": "size of the written file",
}


def environment() -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return ""

    cpu = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        **caches,
        "threads": {k: os.environ.get(k, "") for k in THREAD_VARS},
    }


class Bench:
    """The calls of one workload and the failures each of them showed."""

    def __init__(self, wl, reference, out_dir: Path):
        self.wl = wl
        self.reference = reference
        self.out_dir = out_dir
        self.calls = []  # {"label", "failures", "output"} per gated call

    def gated_call(self, cfg, label):
        """One call through the correctness gate; returns (report, record)."""
        record = {"label": label, "failures": [], "output": None}
        self.calls.append(record)
        try:
            report = workloads.invoke(self.wl, cfg)
        except Exception:
            record["failures"].append(traceback.format_exc(limit=4).strip())
            return None, record
        bound = self.reference["det_drift_bound"]
        if self.wl.kind == "compare":
            record["failures"] += checks.gate_compare(report, bound)
            record["output"] = checks.final_values("compare", report)
        else:
            record["failures"] += checks.gate_run(report, bound)
            record["output"] = Path(cfg.output_dir, "diagnostics.csv").read_bytes()
        return report, record

    def probe(self):
        cfg = workloads.probe_config(self.wl, str(self.out_dir / "probe"))
        report, record = self.gated_call(cfg, "probe")
        if report is not None:
            record["failures"] += checks.gate_reference(
                checks.final_values(self.wl.kind, report),
                self.reference["probe"],
            )

    def timed_calls(self, phases, seconds):
        """The timed calls at the workload's seed; returns each phase's run ids.

        The number of calls is fixed by ``seconds`` and the workload's nominal
        call time, not by the clock, so every run does the same work and the
        tail percentile does not move with the machine's speed. ``phases`` are
        (tracer, targets) pairs taken in turn, so that traced and untraced
        calls see the same machine.
        """
        name = layers.CALLS[self.wl.kind == "compare"]
        n_calls = max(MIN_CALLS * len(phases), round(seconds / self.wl.call_seconds))
        runs = [[] for _ in phases]
        for n in range(n_calls):
            tracer, targets = phases[n % len(phases)]
            run_id = len(self.calls)
            cfg = replace(self.wl.config, output_dir=str(self.out_dir / f"call{run_id}"))
            tracer.run_id = run_id
            with patched(targets), tracer.span(name):
                _, record = self.gated_call(cfg, f"call {run_id}")
            tracer.run_id = -1
            if not record["failures"]:  # a failed call may have no spans to measure
                runs[n % len(phases)].append(run_id)
        return runs

    def gate_repeats(self):
        """Every timed call of the seed must give the first one's output."""
        timed = [c for c in self.calls if c["label"] != "probe" and c["output"] is not None]
        for c in timed[1:]:
            if c["output"] != timed[0]["output"]:
                what = "compare values" if self.wl.kind == "compare" else "diagnostics CSV"
                c["failures"].append(f"{what} differ from those of {timed[0]['label']}")


def at_reference_speed(timed: dict, gauge_ms: float) -> dict:
    """The end-to-end metrics of ``timed`` scaled to the reference host speed.

    ``timed`` holds the figures as this host ran them. The step rate and the
    set-up time are scaled by the run's slowdown, ``timed["gauge_ms"] /
    gauge_ms``; the step median and tail are taken from the intervals in
    gauge units, each of which was scaled by the gauges on either side of it.
    """
    slowdown = timed["gauge_ms"] / gauge_ms
    return {
        "steps_per_s": timed["steps_per_s"] * slowdown,
        "step_ms_p50": timed["p50_in_gauges"] * gauge_ms,
        "step_ms_tail": timed["tail_in_gauges"] * gauge_ms,
        "setup_s": timed["setup_s"] / slowdown,
    }


def measure(args):
    wl = workloads.build(args.workload, args.seed)
    reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    out_dir = Path(args.out) / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    bench = Bench(wl, reference, out_dir)

    bench.probe()
    gauge = workloads.host_gauge(wl.config.sizes)
    plain = Tracer()
    phases = [(plain, layers.end_to_end_targets(plain, gauge))]
    if args.trace:
        traced = Tracer()
        phases.append((traced, layers.trace_targets(traced, gauge)))
    runs = bench.timed_calls(phases, args.seconds)
    timed = layers.end_to_end(plain, runs[0]) if runs[0] else {}
    e2e = at_reference_speed(timed, wl.gauge_ms) if timed else {}
    if e2e:
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = {}
    spans = {"untraced": plain.to_json()}
    if args.trace:
        spans["traced"] = traced.to_json()
        if runs[1] and timed:
            per_layer, counts = layers.per_layer(traced, runs[1])
            for run_id, message in layers.check_exact(dict(zip(runs[1], counts))):
                bench.calls[run_id]["failures"].append(message)
            traced_steps_per_s = layers.end_to_end(traced, runs[1])["steps_per_s"]
            per_layer["trace.overhead_ratio"] = traced_steps_per_s / timed["steps_per_s"]
            per_layer["host.gauge_ms"] = timed["gauge_ms"]
    bench.gate_repeats()
    (out_dir / "spans.json").write_text(json.dumps(spans))
    return bench, timed, e2e, per_layer


def report(args, bench, env, timed, e2e, per_layer) -> dict:
    """Print the human-readable lines and return the JSON result."""
    failed = [c for c in bench.calls if c["failures"]]
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("  env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"  calls: {len(bench.calls)} gated (reference probe included), {len(failed)} failed")
    for c in failed:
        for message in c["failures"]:
            print(f"  FAILED {c['label']}: {message}")
    if timed:
        print(
            f"  step intervals: {timed['step_intervals']}; tail: p{timed['tail_percentile']:.1f}, "
            f"10 intervals beyond it, median over {timed['tail_blocks']} block(s) of "
            f"~{timed['step_intervals'] // timed['tail_blocks']} consecutive intervals"
        )
        print(
            f"  host gauge: {timed['gauge_ms']:.4g} ms (trimmed mean) against "
            f"{bench.wl.gauge_ms:g} ms at the reference speed; "
            f"as timed here: steps_per_s {timed['steps_per_s']:.4g}, "
            f"step_ms_p50 {timed['step_ms_p50']:.4g}, step_ms_tail {timed['step_ms_tail']:.4g}, "
            f"setup_s {timed['setup_s']:.4g}"
        )
    units = UNITS[args.trace]
    measured = per_layer if args.trace else e2e
    metrics = {}
    for name, unit in units.items():
        value = measured.get(name)
        if value is None or not math.isfinite(value):
            continue
        metrics[name] = {"value": value, "unit": unit}
        note = f" ({NOTES[name]})" if name in NOTES else ""
        print(f"  {name:44s} {value:14.6g} {unit}{note}")
    correct = not failed and len(metrics) == len(units)
    return {
        "correct": correct,
        "attempted": len(bench.calls),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out")
    args = parser.parse_args(argv)
    env = environment()
    bench, timed, e2e, per_layer = measure(args)
    result = report(args, bench, env, timed, e2e, per_layer)
    (Path(args.out) / args.workload / "env.json").write_text(json.dumps(env, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

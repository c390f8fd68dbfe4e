"""Where the spans go and what the metrics make of them.

The layers are lagmhd's modules. Each target rebinds the name a caller looks
up at call time: a name imported into ``lagmhd.evolution`` or
``lagmhd.runner`` is wrapped there, a method is wrapped on its class.

Per-step metrics count the spans that start inside a call's step window,
from its first force evaluation to the return of its last step, and divide
by the steps; per-run metrics divide a call's total by the number of calls.
"""

from __future__ import annotations

import os
import statistics

import lagmhd.evolution as evolution
import lagmhd.pressure as pressure
import lagmhd.runner as runner
from lagmhd.energy import EnergyEvaluator
from lagmhd.evolution import EulerianStepper, LagrangianStepper, LinearPropagator
from lagmhd.grid import Grid

import checks
from spans import self_times

STEP = "evolution.step"
FORCE = "evolution.compute_force"
CALLS = ("runner.run_simulation", "runner.compare_formulations")  # run, compare
FFT = ("grid.fft", "grid.ifft")
GAUGE = "host.gauge"

# per-layer metrics that must repeat exactly between calls of one seed
EXACT = (
    "grid.transforms",
    "evolution.forces",
    "pressure.picard_iters",
    "pressure.solves",
    "runner.samples",
    "checkpoint.bytes",
    "steps",
)


def end_to_end_targets(tracer, gauge):
    """The spans the end-to-end metrics need: step returns, the first force,
    and the host gauge, run after every step outside the step's span."""
    step = tracer.wrap(LagrangianStepper.step, STEP)

    def step_then_gauge(*args, **kwargs):
        result = step(*args, **kwargs)
        with tracer.span(GAUGE):
            gauge()
        return result

    return [
        (LagrangianStepper, "step", step_then_gauge),
        (evolution, "compute_force", tracer.wrap(evolution.compute_force, FORCE)),
    ]


def _transforms(args, result):
    grid, array = args[0], args[1]
    return {
        "transforms": array.size // grid.npoints,
        "bytes": array.nbytes + result.nbytes,  # computed from array sizes
    }


def _picard(args, result):
    return {"iters": result[1]}


def _checkpoint_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def trace_targets(tracer, gauge):
    """Every layer span, plus the end-to-end ones."""
    w = tracer.wrap
    targets = end_to_end_targets(tracer, gauge) + [
        (Grid, "fft", w(Grid.fft, "grid.fft", _transforms)),
        (Grid, "ifft", w(Grid.ifft, "grid.ifft", _transforms)),
        (LinearPropagator, "__post_init__",
         w(LinearPropagator.__post_init__, "evolution.propagator_setup")),
        (EulerianStepper, "step", w(EulerianStepper.step, "evolution.eulerian_step")),
        (EnergyEvaluator, "__init__", w(EnergyEvaluator.__init__, "energy.evaluator_setup")),
        (evolution, "cofactor_values",
         w(evolution.cofactor_values, "geometry.cofactor_values")),
        (evolution, "graded_metric_values",
         w(evolution.graded_metric_values, "geometry.graded_metric_values")),
        (evolution, "_tensor_rhs_spec", w(evolution._tensor_rhs_spec, "pressure.rhs")),
        (evolution, "solve_pressure_spec",
         w(evolution.solve_pressure_spec, "pressure.solve", _picard)),
        (runner, "determinant_values",
         w(runner.determinant_values, "geometry.determinant_values")),
        (runner, "_record_sample", w(runner._record_sample, "runner.record_sample")),
        (runner, "_postprocess", w(runner._postprocess, "runner.postprocess")),
        (runner, "write_diagnostics",
         w(runner.write_diagnostics, "runner.write_diagnostics")),
        (runner, "ledger_check", w(runner.ledger_check, "energy.ledger_check")),
        (runner, "write_checkpoint",
         w(runner.write_checkpoint, "checkpoint.write", _checkpoint_bytes)),
        (runner, "build_flow_state",
         w(runner.build_flow_state, "initial_data.build_flow_state")),
    ]
    for module in (evolution, runner):
        targets.append((module, "gradient_values",
                        w(module.gradient_values, "spectral.gradient_values")))
    for module in (evolution, pressure):
        targets.append((module, "dealias_spec",
                        w(module.dealias_spec, "spectral.dealias_spec")))
        targets.append((module, "riesz_apply_spec",
                        w(module.riesz_apply_spec, "spectral.riesz_apply_spec")))
    for name in ("energy_report", "dissipation_report", "corrected_energy",
                 "dissipation_inequality_terms", "forcing_pairings"):
        targets.append((runner, name, w(getattr(runner, name), "energy.reports")))

    make = runner.make_trig_evaluator

    def make_trig_evaluator(*args, **kwargs):
        return w(make(*args, **kwargs), "geometry.trig_eval")

    targets.append((runner, "make_trig_evaluator",
                    w(make_trig_evaluator, "geometry.trig_eval")))
    return targets


class _Calls:
    """Spans of the given run ids, with each call's step window."""

    def __init__(self, tracer, runs):
        self.t = tracer
        runs = set(runs)
        self.idx = [i for i, r in enumerate(tracer.runs) if r in runs]
        self.runs = sorted(runs)
        self.by_name = {}
        for i in self.idx:
            self.by_name.setdefault(tracer.names[i], []).append(i)
        self.window = {}
        for r in self.runs:
            forces = self.of(FORCE, r)
            steps = self.of(STEP, r)
            self.window[r] = (tracer.starts[forces[0]], tracer.ends[steps[-1]])

    def of(self, name, run=None):
        spans = self.by_name.get(name, [])
        return spans if run is None else [i for i in spans if self.t.runs[i] == run]

    def in_window(self, name, run=None):
        t = self.t
        out = []
        for i in self.of(name, run):
            lo, hi = self.window[t.runs[i]]
            if lo <= t.starts[i] <= hi:
                out.append(i)
        return out

    def dur(self, i):
        return self.t.ends[i] - self.t.starts[i]

    def total_ms(self, spans):
        return 1e3 * sum(self.dur(i) for i in spans)

    def attr(self, spans, key):
        return sum(self.t.attrs.get(i, {}).get(key, 0) for i in spans)


def end_to_end(tracer, runs) -> dict:
    """Throughput, step intervals and set-up from the call and step spans, as
    timed on this host. The gauge spans are taken out of every duration, and
    ``gauge_ms`` is their trimmed mean. ``p50_in_gauges`` and
    ``tail_in_gauges`` are the median and tail of the intervals, each measured
    in the mean of the two gauges that enclose it."""
    c = _Calls(tracer, runs)
    t = tracer
    steps = 0
    call_seconds = 0.0
    step_intervals = []
    in_gauges = []
    setups = []
    gauges = []
    for r in c.runs:
        call = (c.of(CALLS[0], r) + c.of(CALLS[1], r))[0]
        ends = [t.ends[i] for i in c.of(STEP, r)]
        gauge = [c.dur(i) for i in c.of(GAUGE, r)]  # gauge k runs after step k
        steps += len(ends)
        call_seconds += c.dur(call) - sum(gauge)
        for k, (a, b) in enumerate(zip(ends, ends[1:])):
            interval = b - a - gauge[k]
            step_intervals.append(1e3 * interval)
            in_gauges.append(interval / (0.5 * (gauge[k] + gauge[k + 1])))
        setups.append(t.starts[c.of(FORCE, r)[0]] - t.starts[call])
        gauges += gauge
    nan3 = (float("nan"),) * 3
    tail = checks.block_tail(step_intervals) or nan3
    return {
        "steps_per_s": steps / call_seconds,
        "step_ms_p50": statistics.median(step_intervals),
        "step_ms_tail": tail[1],
        "tail_percentile": tail[0],
        "tail_blocks": tail[2],
        "step_intervals": len(step_intervals),
        "setup_s": statistics.median(setups),
        "gauge_ms": 1e3 * checks.trimmed_mean(gauges),
        "p50_in_gauges": statistics.median(in_gauges),
        "tail_in_gauges": (checks.block_tail(in_gauges) or nan3)[1],
    }


def per_layer(tracer, runs):
    """Per-layer metrics of the traced calls, and each call's exact counts."""
    c = _Calls(tracer, runs)
    n_runs = len(c.runs)
    steps = len(c.of(STEP))
    samples = c.of("runner.record_sample")
    forces = c.of(FORCE)
    solves = c.of("pressure.solve")
    fft_window = c.in_window(FFT[0]) + c.in_window(FFT[1])
    own = self_times(tracer.starts, tracer.ends, tracer.parents)

    def per_step(name):
        return c.total_ms(c.in_window(name)) / steps

    def per_run(name):
        return c.total_ms(c.of(name)) / n_runs

    def p50(name):
        spans = c.of(name)
        return 1e3 * statistics.median(c.dur(i) for i in spans) if spans else 0.0

    def self_ms(name):
        spans = c.of(name)
        return 1e3 * statistics.fmean(own[i] for i in spans) if spans else 0.0

    iters = c.attr(solves, "iters")
    window_ms = sum(1e3 * (hi - lo) for lo, hi in c.window.values())
    window_ms -= c.total_ms(c.in_window(GAUGE))
    step_ms = window_ms / steps
    force_fft = [i for i in c.of(FFT[0]) + c.of(FFT[1]) if _under(tracer, i, FORCE)]
    sample_det = [
        i for i in c.of("geometry.determinant_values") if _under(tracer, i, "runner.record_sample")
    ]
    # failed calls are not in ``runs``, so count the solves that raised over all spans
    raised = [
        i for i, name in enumerate(tracer.names)
        if name == "pressure.solve" and "iters" not in tracer.attrs.get(i, {})
    ]
    samples_per_step = len(c.in_window("runner.record_sample")) / steps

    m = {
        "grid.transforms_per_step": c.attr(fft_window, "transforms") / steps,
        "grid.fft_calls_per_step": len(fft_window) / steps,
        "grid.fft_ms_per_step": c.total_ms(fft_window) / steps,
        "grid.fft_bytes_per_step": c.attr(fft_window, "bytes") / steps,
        "grid.fft_share_of_force": c.total_ms(force_fft) / c.total_ms(forces),
        "spectral.gradient_values_ms_per_step": per_step("spectral.gradient_values"),
        "spectral.dealias_spec_ms_per_step": per_step("spectral.dealias_spec"),
        "spectral.riesz_apply_spec_ms_per_step": per_step("spectral.riesz_apply_spec"),
        "geometry.cofactor_values_ms_per_step": per_step("geometry.cofactor_values"),
        "geometry.graded_metric_values_ms_per_step": per_step("geometry.graded_metric_values"),
        "geometry.determinant_values_ms_per_sample":
            c.total_ms(sample_det) / len(samples) if samples else 0.0,
        "geometry.trig_eval_ms_per_run": per_run("geometry.trig_eval"),
        "pressure.rhs_ms_per_step": per_step("pressure.rhs"),
        "pressure.solve_ms_per_step": per_step("pressure.solve"),
        "pressure.solve_share_of_step": per_step("pressure.solve") / step_ms,
        "pressure.picard_iters_per_force": iters / len(solves),
        "pressure.picard_ms_per_iter": c.total_ms(solves) / iters,
        "pressure.failed": len(raised),
        "evolution.forces_per_step": len(c.in_window(FORCE)) / steps,
        "evolution.compute_force_ms_p50": p50(FORCE),
        "evolution.compute_force_self_ms": self_ms(FORCE),
        "evolution.step_self_ms": self_ms(STEP),
        "evolution.propagator_setup_ms": per_run("evolution.propagator_setup"),
        "evolution.eulerian_step_ms_p50": p50("evolution.eulerian_step"),
        "energy.evaluator_setup_ms": per_run("energy.evaluator_setup"),
        "energy.reports_ms_per_sample":
            c.total_ms(c.of("energy.reports")) / len(samples) if samples else 0.0,
        "energy.ledger_check_ms_per_run": per_run("energy.ledger_check"),
        "runner.record_sample_ms_p50": p50("runner.record_sample"),
        "runner.record_sample_self_ms": self_ms("runner.record_sample"),
        "runner.samples_per_run": len(samples) / n_runs,
        "runner.sample_share_of_step":
            p50("runner.record_sample") * samples_per_step / step_ms,
        "runner.postprocess_ms_per_run": per_run("runner.postprocess"),
        "runner.write_diagnostics_ms_per_run": per_run("runner.write_diagnostics"),
        "checkpoint.write_ms_per_run": per_run("checkpoint.write"),
        "checkpoint.bytes_per_run": c.attr(c.of("checkpoint.write"), "bytes") / n_runs,
        "initial_data.build_flow_state_ms": per_run("initial_data.build_flow_state"),
    }

    counts = []
    for r in c.runs:
        run_solves = c.of("pressure.solve", r)
        run_fft = c.in_window(FFT[0], r) + c.in_window(FFT[1], r)
        counts.append({
            "steps": len(c.of(STEP, r)),
            "grid.transforms": c.attr(run_fft, "transforms"),
            "evolution.forces": len(c.in_window(FORCE, r)),
            "pressure.picard_iters": c.attr(run_solves, "iters"),
            "pressure.solves": len(run_solves),
            "runner.samples": len(c.of("runner.record_sample", r)),
            "checkpoint.bytes": c.attr(c.of("checkpoint.write", r), "bytes"),
        })
    return m, counts


def _under(tracer, idx, name) -> bool:
    parent = tracer.parents[idx]
    while parent >= 0:
        if tracer.names[parent] == name:
            return True
        parent = tracer.parents[parent]
    return False


def check_exact(counts_by_run: dict):
    """(run id, message) for each call whose exact counts differ from the
    first traced call's."""
    runs = sorted(counts_by_run)
    first = counts_by_run[runs[0]]
    failures = []
    for r in runs[1:]:
        for key in EXACT:
            if counts_by_run[r][key] != first[key]:
                failures.append(
                    (r, f"{key} = {counts_by_run[r][key]} but call {runs[0]} counted {first[key]}")
                )
    return failures

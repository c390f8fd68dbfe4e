"""Run orchestration: one stepping driver, diagnostics CSV, reports, comparisons."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checkpoint import read_checkpoint, read_header, replaced, write_checkpoint
from .config import RunConfig
from .energy import (
    EnergyEvaluator, corrected_energy, dissipation_inequality_terms, dissipation_report,
    energy_report, fit_decay_rate, forcing_pairings, ledger_check, lower_bound_margin,
)
from .errors import ConfigError, InitialDataError, RunAbortedError
from .evolution import EulerianStepper, EulerState, LagrangianStepper, NonlinearForce
from .geometry import FlowState, cofactor_times, determinant_values, make_trig_evaluator
from .grid import Grid
from .initial_data import _build_with_gradient, default_spec, euler_from_flow, scaled_spec
# not called here; perfbench/layers.py times the build by this name
from .initial_data import build_flow_state  # noqa: F401
from .spectral import gradient_values

NAN = float("nan")
FIT_WINDOW = (5.0, 50.0)  # t-range of a run's decay fits, clipped to its end

CSV_COLUMNS = (
    "t", "E_yt_h2", "E_d1y_h2", "E_lap_y_h2", "E_w_grad_yt_h2", "E_w_grad_d1y_h2",
    "E_w2_grad_d1yt_h1", "E_w2_grad_d11y_h1", "D_grad_yt_h2", "D_grad_d1y_h2",
    "D_w_grad_d11y_h1", "D_w_lap_yt_h2", "D_w2_lap_d1yt_h1", "E_total", "D_total",
    "script_E", "tilde_E", "ledger_lhs", "ledger_rhs", "ledger_pass", "det_drift_max",
    "pressure_iters", "contraction_est", "grad_u_linf", "grad_u_l1t",
)


@dataclass
class RunSample:
    """One diagnostics row; what a solver does not measure stays NaN."""

    t: float
    grad_u_sup: float
    energy: tuple = (NAN,) * 7
    energy_total: float = NAN
    dissipation: tuple = (NAN,) * 5
    dissipation_total: float = NAN
    corrected: float = NAN
    rhs1: float = NAN
    rhs2: float = NAN
    det_drift: float = NAN
    lower_bound_margin: float = NAN  # reported, not written to the CSV
    pressure_iters: int = 0
    contraction: float = NAN
    script_e: float = NAN
    grad_u_l1t: float = NAN
    ledger_lhs: float = NAN
    ledger_rhs: float = NAN
    ledger_pass: float = NAN


@dataclass
class RunReport:
    config: RunConfig
    aborted: bool
    abort_reason: str
    t_final: float
    script_e0: float
    script_e_final: float
    script_e_ratio: float
    det_drift_max: float
    ledger_pass_rate: float
    ledger_checked: int
    decay_fits: dict
    grad_u_l1t: float
    grad_u_tail_ratio: float
    pressure_iters_max: int
    lower_bound_margin_min: float = NAN
    rhs_integral: float = NAN
    samples: list = field(default_factory=list, repr=False)
    csv_path: str = ""
    checkpoint_path: str = ""
    final_state: object = None

    def summary(self) -> str:
        lines = [
            f"aborted          : {self.aborted}"
            + (f" ({self.abort_reason})" if self.aborted else ""),
            f"t_final          : {self.t_final:g}",
            f"script_E 0 -> end: {self.script_e0:.6e} -> {self.script_e_final:.6e}"
            f" (ratio {self.script_e_ratio:.3f})",
            f"det drift max    : {self.det_drift_max:.3e}",
            f"coercivity margin: >= {self.lower_bound_margin_min:.3e}",
            f"ledger pass rate : {self.ledger_pass_rate:.4f} over {self.ledger_checked}",
            f"grad_u L1(t)     : {self.grad_u_l1t:.6e} (tail ratio {self.grad_u_tail_ratio:.4f})",
            f"pressure iters   : <= {self.pressure_iters_max}",
        ]
        for name, fit in self.decay_fits.items():
            if fit is not None:
                lines.append(
                    f"decay fit {name}: slope {fit.slope:.4f} (r2 {fit.r_squared:.4f})"
                )
        return "\n".join(lines)


def _grad_u_sup(rows) -> float:
    """Largest pointwise Frobenius norm of a velocity gradient, given by its
    rows, (d, ...) arrays squared in place. The squares are added in (i, j)
    order, as np.sum over axes (0, 1) adds them, and sqrt is monotone and
    correctly rounded: the bits of sqrt(sum(g**2, axis=(0, 1))).max()."""
    total = 0.0  # the first add makes it an array, the rest add in place
    for row in rows:
        for row_j in np.square(row, out=row):
            total += row_j
    return float(np.sqrt(np.max(total)))


def _record_sample(ev: EnergyEvaluator, state: FlowState, force: NonlinearForce):
    table, t = ev.sample_table(state, force.f.band), state.t
    e = energy_report(table, t)
    d = dissipation_report(table, t)
    ce = corrected_energy(table, t)
    rhs1, rhs2 = forcing_pairings(table, t)
    det = determinant_values(force.grad_y)
    corrected = sum(ce)
    row = np.empty_like(force.grad_yt[0])
    return RunSample(
        t=t, energy=e, energy_total=sum(e), dissipation=d, dissipation_total=sum(d),
        corrected=corrected, rhs1=rhs1, rhs2=rhs2, det_drift=float(np.abs(det - 1.0).max()),
        lower_bound_margin=lower_bound_margin(table, t, corrected),
        grad_u_sup=_grad_u_sup(  # the rows of (grad_y Yt) A^T through one buffer
            cofactor_times(force.b_values, g, row) for g in force.grad_yt
        ),
        pressure_iters=force.pressure.iterations,
        contraction=force.pressure.contraction_estimate,
    )


class _Audit:
    """What the running audit keeps between samples, fed one sample at a time
    by _postprocess: the sup of E and the trapezoid sums of D and |grad u|_inf,
    added in np.cumsum's order so that they keep a whole-run cumsum's bits;
    the first sample spacing; the largest |tilde_E| so far; whether the
    samples carry energies (an Eulerian run's do not), and the last two
    samples. A ledger row is formed when its successor arrives; the row is
    then final and goes to out, the open CSV, when there is one."""

    def __init__(self, out=None):
        self.out, self.ledger, self.before, self.pending = out, False, None, None
        self.sup_e, self.scale, self.spacing = -np.inf, 0.0, NAN
        self.d_sum = self.gu_sum = 0.0
        self.checked = self.passed = 0

    def close(self):
        """Write the last row, which has no successor and so no ledger."""
        if self.out is not None and self.pending is not None:
            write_diagnostics(self.out, self.pending)


def _postprocess(audit: _Audit, s: RunSample) -> RunSample:
    """Audit one sample as it arrives: fill its script_E and grad-u integral,
    and the ledger columns of the pending sample, whose row is then final and
    written. Returns s, the new pending sample."""
    last = audit.pending
    audit.sup_e = float(np.maximum(audit.sup_e, s.energy_total))  # NaN stays NaN
    audit.scale = float(np.maximum(audit.scale, abs(s.corrected)))
    if last is None:
        audit.ledger = not np.isnan(s.energy_total)
    else:
        h = s.t - last.t
        audit.d_sum += 0.5 * (s.dissipation_total + last.dissipation_total) * h
        audit.gu_sum += 0.5 * (s.grad_u_sup + last.grad_u_sup) * h
        if audit.before is None:
            audit.spacing = h
        elif audit.ledger:
            if abs(h - audit.spacing) > 1e-9 * max(audit.spacing, 1e-300):
                raise ValueError("ledger samples are not uniformly spaced")
            rhs = last.rhs1 + last.rhs2
            corrected = (audit.before.corrected, s.corrected)
            diss = dissipation_inequality_terms(last.dissipation)
            lhs, ok, _ = ledger_check(audit.spacing, corrected, diss, rhs, audit.scale)
            last.ledger_lhs, last.ledger_rhs, last.ledger_pass = lhs, rhs, float(ok)
            audit.checked += 1
            audit.passed += ok
        if audit.out is not None:
            write_diagnostics(audit.out, last)
    s.script_e = audit.sup_e + audit.d_sum
    s.grad_u_l1t = audit.gu_sum
    audit.before, audit.pending = last, s
    return s


def _rhs_integral(samples) -> float:
    """The trapezoid integral of the samples' forcing pairings rhs1 + rhs2."""
    return float(np.trapezoid([s.rhs1 + s.rhs2 for s in samples], [s.t for s in samples]))


def write_diagnostics(out, s: RunSample) -> None:
    """Write the CSV row of one sample to the open file out."""
    row = (
        s.t, *s.energy, *s.dissipation, s.energy_total, s.dissipation_total, s.script_e,
        s.corrected, s.ledger_lhs, s.ledger_rhs, s.ledger_pass, s.det_drift,
        float(s.pressure_iters), s.contraction, s.grad_u_sup, s.grad_u_l1t,
    )
    out.write(",".join(f"{x:.17g}" for x in row) + "\n")


def read_diagnostics(path):
    """Read a diagnostics CSV back as {column: array}; a row that is not one
    number per column is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"a row does not hold the {len(header)} columns of the header")
    data = np.array([[float(x) for x in row] for row in rows])
    if data.size == 0:
        data = np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


DATA_DET_TOL = 1e-8  # largest |det(I + grad Y0) - 1| accepted from data


def _checked_data(grid: Grid, spec) -> FlowState:
    """The flow state built from spec, held to det(I + grad Y0) = 1 within
    DATA_DET_TOL. Every path that starts from data goes through here; a
    checkpoint does not, since a run's integrator drift may exceed it. The
    check reads the gradient of Y0 that the build formed."""
    state, grad_y0 = _build_with_gradient(grid, spec)
    det0 = determinant_values(grad_y0)
    det0_err = float(np.abs(det0 - 1.0).max())
    if det0_err > DATA_DET_TOL:
        raise InitialDataError(
            f"initial displacement violates det(I + grad Y0) = 1 by {det0_err:.3e}"
        )
    return state


class _Pair(NamedTuple):
    """The compare's state: one flow in both formulations, at time t."""

    flow: FlowState
    euler: EulerState
    t = property(lambda self: self.flow.t)


def _start_time(config: RunConfig, grid: Grid) -> float:
    """The time the configured run starts from, read before anything is
    made: 0 for data, or the header's time of a checkpoint that holds the
    solver's kind of state on the configured grid."""
    if not config.checkpoint_in:
        return 0.0
    with open(config.checkpoint_in, "rb") as fh:
        sizes, lengths, t, kind = read_header(fh)
    want = EulerState if config.solver == "eulerian" else FlowState
    if kind is not want:
        raise ConfigError(f"checkpoint holds a {kind.__name__}, not a {want.__name__}")
    if (sizes, lengths) != (grid.sizes, grid.lengths):
        raise ConfigError("checkpoint grid does not match the configured grid")
    return t


def _initial_state(config: RunConfig, grid: Grid):
    """The start of the configured solver: its checkpoint, which _start_time
    has checked, or the checked data. The compare's pair starts from the
    data."""
    solver = config.solver
    if config.checkpoint_in:
        if solver == "both":
            raise ConfigError("compare_formulations starts from the data, not a checkpoint")
        return read_checkpoint(config.checkpoint_in)
    flow = _checked_data(grid, config.initial_data_spec())
    if solver == "lagrangian":
        return flow
    euler = euler_from_flow(flow)
    return euler if solver == "eulerian" else _Pair(flow, euler)


def _schedule(config, t0, sampled):
    """The steps from t0 to t_end, and the steps between samples: every
    step's count when nothing is sampled, and the cadence is not read."""
    span = config.t_end - t0
    n_steps = round(span / config.dt)
    if n_steps < 1 or abs(n_steps * config.dt - span) > 1e-9 * max(1.0, span):
        raise ConfigError("t_end - t0 must be a positive multiple of dt")
    sample_every = round(config.cadence / config.dt) if sampled else n_steps
    if n_steps % sample_every != 0:
        raise ConfigError("t_end - t0 must be a multiple of the sample cadence")
    return n_steps, sample_every


def _drive(config, initial, force, step, record=None):
    """Step initial() to t_end: f = force(state), a sample record(state, f)
    every cadence, state = step(state, f); a last sample at t_end. Without
    record nothing is sampled and the cadence is not read. initial() runs
    here so that this frame holds the only reference to the state. Returns
    the state reached, the samples and the solver failure (RuntimeError or
    FloatingPointError) that stopped the stepping, or None; writes nothing
    itself.
    """
    state = initial()
    n_steps, sample_every = _schedule(config, state.t, record is not None)
    samples = []
    try:
        for i in range(n_steps):
            f = force(state)
            if record and i % sample_every == 0:
                samples.append(record(state, f))
            state = step(state, f)
        if record:
            samples.append(record(state, force(state)))
    except (RuntimeError, FloatingPointError) as exc:
        return state, samples, exc
    return state, samples, None


def _reason(failure) -> str:
    return f"{type(failure).__name__}: {failure}" if failure else ""


def _solver(config: RunConfig, grid: Grid):
    """The force, step and record of the configured solver, for _drive. The
    compare (solver both) steps its pair and records nothing."""
    if config.solver == "eulerian":  # only the velocity-gradient columns are live
        stepper = EulerianStepper(grid, config.dt)

        def record(state, _):
            gu = gradient_values(state.u, grid)
            return RunSample(t=state.t, grad_u_sup=_grad_u_sup(gu))

        return (lambda state: None), (lambda state, _: stepper.step(state)), record
    ev = EnergyEvaluator(grid) if config.solver == "lagrangian" else None
    lstep = LagrangianStepper(grid, config.dt)
    if ev is not None:
        return lstep.force, lstep.step, lambda state, f: _record_sample(ev, state, f)
    estep = EulerianStepper(grid, config.dt)
    return (
        lambda pair: lstep.force(pair.flow),
        lambda pair, f: _Pair(lstep.step(pair.flow, f), estep.step(pair.euler)),
        None,
    )


def run_simulation(config: RunConfig) -> RunReport:
    """Step the configured solver to t_end and write the run's outputs into
    output_dir: diagnostics.csv, each row as it becomes final, then
    state_final.ckpt, or state_abort.ckpt and abort_report.txt when a solver
    failure ends the run. A schedule or a checkpoint that the run refuses
    leaves no output_dir; it is made before the data are built. Before the
    CSV is opened, an earlier run's checkpoints and abort report go, bar
    this run's checkpoint_in, so that no exit leaves them beside its rows."""
    if config.solver == "both":
        raise ConfigError("solver=both runs through compare_formulations")
    grid = Grid(config.sizes, config.lengths)
    _schedule(config, _start_time(config, grid), sampled=True)
    out_dir = config.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    kept = config.checkpoint_in and os.path.realpath(config.checkpoint_in)
    for name in ("state_final.ckpt", "state_abort.ckpt", "abort_report.txt"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path) and os.path.realpath(path) != kept:
            os.remove(path)
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    force, step, record = _solver(config, grid)
    with open(csv_path, "w", encoding="utf-8", buffering=1) as out:  # flushed per line
        out.write(",".join(CSV_COLUMNS) + "\n")
        audit = _Audit(out)
        try:
            state, samples, failure = _drive(
                config, lambda: _initial_state(config, grid), force, step,
                lambda state, f: _postprocess(audit, record(state, f)),
            )
        finally:  # an interrupt too leaves the pending row
            audit.close()
    ckpt_path = os.path.join(out_dir, f"state_{'abort' if failure else 'final'}.ckpt")
    write_checkpoint(ckpt_path, state)
    if failure:
        with replaced(os.path.join(out_dir, "abort_report.txt"), "w") as fh:
            fh.write(f"aborted at t = {state.t:.12g}\nreason: {_reason(failure)}\n")

    fits = {}
    times = np.array([s.t for s in samples])
    lo, hi = FIT_WINDOW
    hi = min(hi, float(times[-1]) if len(times) else hi)
    for name, values in (  # sqrt D_grad_yt_h2; sqrt E_w2_grad_d1yt_h1 over t+1
        ("grad_yt_h2", np.sqrt([s.dissipation[0] for s in samples])),
        ("grad_d1yt_h1", np.sqrt([s.energy[5] for s in samples]) / (times + 1.0)),
    ):
        try:
            fits[name] = fit_decay_rate(times, values, (lo, hi))
        except ValueError:
            fits[name] = None

    script_e0 = samples[0].script_e if samples else NAN
    script_e_final = samples[-1].script_e if samples else NAN
    gul1 = samples[-1].grad_u_l1t if samples else NAN
    tail_ratio = NAN
    if len(samples) >= 2 and gul1 > 0:
        # the share of the integral after the first sample of the last 20%;
        # none when only the last sample lies there
        t_tail = times[0] + 0.8 * (times[-1] - times[0])
        idx = int(np.searchsorted(times, t_tail))
        if idx < len(samples) - 1:
            tail_ratio = (gul1 - samples[idx].grad_u_l1t) / gul1
    return RunReport(
        config=config,
        aborted=failure is not None,
        abort_reason=_reason(failure),
        t_final=state.t,
        script_e0=script_e0,
        script_e_final=script_e_final,
        script_e_ratio=script_e_final / script_e0 if script_e0 > 0 else NAN,
        det_drift_max=max((s.det_drift for s in samples), default=NAN),
        ledger_pass_rate=audit.passed / audit.checked if audit.checked else NAN,
        ledger_checked=audit.checked,
        decay_fits=fits,
        grad_u_l1t=gul1,
        grad_u_tail_ratio=tail_ratio,
        pressure_iters_max=max((s.pressure_iters for s in samples), default=0),
        lower_bound_margin_min=min((s.lower_bound_margin for s in samples), default=NAN),
        rhs_integral=_rhs_integral(samples),
        samples=samples,
        csv_path=csv_path,
        checkpoint_path=ckpt_path,
        final_state=state,
    )


@dataclass
class CompareReport:
    t_end: float
    dt: float
    max_u_discrepancy: float
    max_b_discrepancy: float
    det_drift: float

    def summary(self) -> str:
        return (
            f"t_end={self.t_end:g} dt={self.dt:g}: "
            f"max|u(X) - Yt| = {self.max_u_discrepancy:.6e}, "
            f"max|b(X) - (e1 + d1Y)| = {self.max_b_discrepancy:.6e}, "
            f"det drift {self.det_drift:.3e}"
        )


def compare_formulations(config: RunConfig) -> CompareReport:
    """Advance the flow-map and primitive solvers from identical data to
    t_end, and measure the pushforward discrepancy there. Writes nothing; a
    solver failure raises RunAbortedError."""
    if config.solver != "both":
        raise ConfigError("compare_formulations requires solver = both")
    grid = Grid(config.sizes, config.lengths)
    # the pair is built before the steppers, and the steppers are _drive's
    # arguments, freed before the pushforward evaluation: the inverse map's
    # and the pushforward's evaluator chunks then set a compare's peak
    # memory. _drive pops the pair, so that its frame holds the only reference.
    start = [_initial_state(config, grid)]
    (flow, euler), _, failure = _drive(config, start.pop, *_solver(config, grid))
    if failure:
        raise RunAbortedError(_reason(failure)) from failure

    stride = tuple(max(1, n // 8) for n in grid.sizes)
    sel = tuple(slice(None, None, st) for st in stride)
    coords = np.stack(np.broadcast_arrays(*grid.coords))
    y_vals = np.empty_like(coords)
    grad_y = gradient_values(flow.Y, grid, values=y_vals)
    x_pts = (coords + y_vals)[(slice(None),) + sel].reshape(grid.dim, -1).T
    u_eval = make_trig_evaluator(euler.u, grid)
    b_eval = make_trig_evaluator(euler.b, grid)
    u_at_x = u_eval(x_pts)
    b_at_x = b_eval(x_pts)
    yt_samples = grid.irfft(flow.Yt)[(slice(None),) + sel].reshape(grid.dim, -1)
    b_lagr = grad_y[:, 0][(slice(None),) + sel].reshape(grid.dim, -1)
    b_lagr = b_lagr.copy()
    b_lagr[0] += 1.0
    det = determinant_values(grad_y)
    return CompareReport(
        t_end=config.t_end,
        dt=config.dt,
        max_u_discrepancy=float(np.abs(u_at_x - yt_samples).max()),
        max_b_discrepancy=float(np.abs(b_at_x - b_lagr).max()),
        det_drift=float(np.abs(det - 1.0).max()),
    )


def scaling_run(config: RunConfig, amplitude: float):
    """One run of the nonlinear-bound scaling study at a raw data amplitude.

    Returns (script_e_final, integrated forcing pairings); used with
    energy.nonlinear_scaling_study. Writes nothing; a solver failure raises
    RunAbortedError.
    """
    spec = scaled_spec(default_spec(config.dimension, epsilon0=None), amplitude)
    grid = Grid(config.sizes, config.lengths)
    force, step, record = _solver(config, grid)
    audit = _Audit()
    _, samples, failure = _drive(
        config, lambda: _checked_data(grid, spec), force, step,
        lambda state, f: _postprocess(audit, record(state, f)),
    )
    if failure:
        raise RunAbortedError(_reason(failure)) from failure
    return samples[-1].script_e, _rhs_integral(samples)

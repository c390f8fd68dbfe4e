"""Run orchestration: one stepping driver, diagnostics CSV, reports, comparisons."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .config import RunConfig
from .energy import (
    EnergyEvaluator,
    corrected_energy,
    dissipation_inequality_terms,
    dissipation_report,
    energy_report,
    fit_decay_rate,
    forcing_pairings,
    ledger_check,
    lower_bound_margin,
    running_trapezoid,
)
from .errors import ConfigError, InitialDataError, RunAbortedError
from .evolution import (
    EulerianStepper,
    EulerState,
    LagrangianStepper,
    NonlinearForce,
)
from .geometry import FlowState, determinant_values, make_trig_evaluator
from .grid import Grid
from .initial_data import _build_with_gradient, default_spec, euler_from_flow, scaled_spec
# not called here; perfbench/layers.py times the build by this name
from .initial_data import build_flow_state  # noqa: F401
from .spectral import gradient_values

NAN = float("nan")
FIT_WINDOW = (5.0, 50.0)  # t-range of a run's decay fits, clipped to its end

CSV_COLUMNS = (
    "t",
    "E_yt_h2",
    "E_d1y_h2",
    "E_lap_y_h2",
    "E_w_grad_yt_h2",
    "E_w_grad_d1y_h2",
    "E_w2_grad_d1yt_h1",
    "E_w2_grad_d11y_h1",
    "D_grad_yt_h2",
    "D_grad_d1y_h2",
    "D_w_grad_d11y_h1",
    "D_w_lap_yt_h2",
    "D_w2_lap_d1yt_h1",
    "E_total",
    "D_total",
    "script_E",
    "tilde_E",
    "ledger_lhs",
    "ledger_rhs",
    "ledger_pass",
    "det_drift_max",
    "pressure_iters",
    "contraction_est",
    "grad_u_linf",
    "grad_u_l1t",
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
    diss_terms: tuple = (NAN,) * 5
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
    table = ev.sample_table(state, force.f.band)
    e = energy_report(ev, state, table)
    d = dissipation_report(ev, state, table)
    ce = corrected_energy(ev, state, table)
    diss_terms = dissipation_inequality_terms(ev, state, table)
    rhs1, rhs2 = forcing_pairings(ev, state, force.f.band, table)
    det = determinant_values(force.grad_y)
    corrected = sum(ce)
    row = np.empty_like(force.grad_yt[0])
    return RunSample(
        t=state.t,
        energy=e,
        energy_total=sum(e),
        dissipation=d,
        dissipation_total=sum(d),
        corrected=corrected,
        diss_terms=diss_terms,
        rhs1=rhs1,
        rhs2=rhs2,
        det_drift=float(np.abs(det - 1.0).max()),
        lower_bound_margin=lower_bound_margin(ev, state, table, corrected),
        grad_u_sup=_grad_u_sup(  # the rows of (grad_y Yt) A^T through one buffer
            np.einsum("m...,jm...->j...", g, force.a_values, out=row)
            for g in force.grad_yt
        ),
        pressure_iters=force.pressure.iterations,
        contraction=force.pressure.contraction_estimate,
    )


def _postprocess(samples):
    """Fill running script-E, the grad-u integral, and the ledger columns.
    Returns the ledger's pass flags and the time integral of rhs1 + rhs2."""
    e_tot = np.array([s.energy_total for s in samples])
    d_tot = np.array([s.dissipation_total for s in samples])
    times = np.array([s.t for s in samples])
    script_e = np.maximum.accumulate(e_tot) + running_trapezoid(times, d_tot)
    gul1 = running_trapezoid(times, [s.grad_u_sup for s in samples])
    for s, se, g in zip(samples, script_e, gul1):
        s.script_e = float(se)
        s.grad_u_l1t = float(g)
    if samples and np.isnan(e_tot).all():  # no energies measured, no ledger
        return (), NAN
    if len(samples) < 3:
        return (), 0.0
    rhs = [s.rhs1 + s.rhs2 for s in samples]
    lhs, passed, _ = ledger_check(
        times, [s.corrected for s in samples], [s.diss_terms for s in samples], rhs
    )
    interior = zip(samples[1:-1], lhs.tolist(), rhs[1:-1], passed.tolist())
    for s, lhs_i, rhs_i, ok in interior:
        s.ledger_lhs = lhs_i
        s.ledger_rhs = rhs_i
        s.ledger_pass = float(ok)
    return passed, float(np.trapezoid(rhs, times))


def write_diagnostics(path, samples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for s in samples:
            row = (
                (s.t,)
                + s.energy
                + s.dissipation
                + (
                    s.energy_total,
                    s.dissipation_total,
                    s.script_e,
                    s.corrected,
                    s.ledger_lhs,
                    s.ledger_rhs,
                    s.ledger_pass,
                    s.det_drift,
                    float(s.pressure_iters),
                    s.contraction,
                    s.grad_u_sup,
                    s.grad_u_l1t,
                )
            )
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


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


def _initial_state(config: RunConfig, grid: Grid):
    """The start of the configured solver: its checkpoint, or the checked
    data. The compare's pair starts from the data."""
    solver = config.solver
    if config.checkpoint_in:
        if solver == "both":
            raise ConfigError("compare_formulations starts from the data, not a checkpoint")
        kind = EulerState if solver == "eulerian" else FlowState
        state = read_checkpoint(config.checkpoint_in)
        if not isinstance(state, kind):
            raise ConfigError(
                f"checkpoint holds a {type(state).__name__}, not a {kind.__name__}"
            )
        if state.grid != grid:
            raise ConfigError("checkpoint grid does not match the configured grid")
        return state
    flow = _checked_data(grid, config.initial_data_spec())
    if solver == "lagrangian":
        return flow
    euler = euler_from_flow(flow)
    return euler if solver == "eulerian" else _Pair(flow, euler)


def _drive(config, initial, force, step, record=None, write_outputs=True):
    """Step initial() to t_end: f = force(state), a sample record(state, f)
    every cadence, state = step(state, f); a last sample at t_end. Without
    record nothing is sampled and the cadence is not read. initial() runs
    here so that this frame holds the only reference to the state. With
    outputs, a solver failure ends the run as an abort; without, it raises
    RunAbortedError. A finished run removes an earlier run's abort report
    and checkpoint, unless that checkpoint is its checkpoint_in.
    """
    state = initial()
    t0 = state.t
    span = config.t_end - t0
    n_steps = round(span / config.dt)
    if n_steps < 1 or abs(n_steps * config.dt - span) > 1e-9 * max(1.0, span):
        raise ConfigError("t_end - t0 must be a positive multiple of dt")
    sample_every = round(config.cadence / config.dt) if record else n_steps
    if n_steps % sample_every != 0:
        raise ConfigError("t_end - t0 must be a multiple of the sample cadence")

    samples = []
    aborted = False
    abort_reason = ""
    out_dir = config.output_dir or "."
    if write_outputs:
        os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "state_final.ckpt")

    try:
        for i in range(n_steps):
            f = force(state)
            if record and i % sample_every == 0:
                samples.append(record(state, f))
            state = step(state, f)
        if record:
            samples.append(record(state, force(state)))
    except (RuntimeError, FloatingPointError) as exc:
        abort_reason = f"{type(exc).__name__}: {exc}"
        if not write_outputs:
            raise RunAbortedError(abort_reason) from exc
        aborted = True
        ckpt_path = os.path.join(out_dir, "state_abort.ckpt")

    ledger_passed, rhs_integral = _postprocess(samples)

    csv_path = ""
    if write_outputs:
        write_checkpoint(ckpt_path, state)
        csv_path = os.path.join(out_dir, "diagnostics.csv")
        write_diagnostics(csv_path, samples)
        report_path = os.path.join(out_dir, "abort_report.txt")
        if aborted:
            with open(report_path, "w") as fh:
                fh.write(f"aborted at t = {state.t:.12g}\nreason: {abort_reason}\n")
        else:  # an earlier run's abort outputs are stale now, bar this run's input
            kept = config.checkpoint_in and os.path.realpath(config.checkpoint_in)
            for path in (report_path, os.path.join(out_dir, "state_abort.ckpt")):
                if os.path.exists(path) and os.path.realpath(path) != kept:
                    os.remove(path)

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
        t_tail = t0 + 0.8 * (times[-1] - t0)
        idx = int(np.searchsorted(times, t_tail))
        if idx < len(samples) - 1:
            tail_ratio = (gul1 - samples[idx].grad_u_l1t) / gul1
    return RunReport(
        config=config,
        aborted=aborted,
        abort_reason=abort_reason,
        t_final=state.t,
        script_e0=script_e0,
        script_e_final=script_e_final,
        script_e_ratio=script_e_final / script_e0 if script_e0 > 0 else NAN,
        det_drift_max=max((s.det_drift for s in samples), default=NAN),
        ledger_pass_rate=float(np.mean(ledger_passed)) if len(ledger_passed) else NAN,
        ledger_checked=len(ledger_passed),
        decay_fits=fits,
        grad_u_l1t=gul1,
        grad_u_tail_ratio=tail_ratio,
        pressure_iters_max=max((s.pressure_iters for s in samples), default=0),
        lower_bound_margin_min=min((s.lower_bound_margin for s in samples), default=NAN),
        rhs_integral=rhs_integral,
        samples=samples,
        csv_path=csv_path,
        checkpoint_path=ckpt_path if write_outputs else "",
        final_state=state,
    )


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
    """Step the configured solver to t_end, emitting diagnostics per cadence."""
    if config.solver == "both":
        raise ConfigError("solver=both runs through compare_formulations")
    grid = Grid(config.sizes, config.lengths)
    return _drive(config, lambda: _initial_state(config, grid), *_solver(config, grid))


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
    flow, euler = _drive(
        config, start.pop, *_solver(config, grid), write_outputs=False
    ).final_state

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
    report = _drive(
        config, lambda: _checked_data(grid, spec), *_solver(config, grid),
        write_outputs=False,
    )
    return report.script_e_final, report.rhs_integral

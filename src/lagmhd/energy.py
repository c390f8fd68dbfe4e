"""Temporal-weighted energy functionals and the runtime inequality ledger.

Every norm here is the literal multi-index H^s sum evaluated через Parseval,
so the coefficients of the corrected (cross-term) energy, its coercivity lower
bound, and the dissipation inequality are reproduced digit for digit. The
ledger re-checks the differential inequality along computed trajectories from
stored samples: the time derivative comes from centered differences, never
from re-derived algebra, so it audits the run rather than the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import FlowState
from .grid import Grid
from .spectral import weighted_inner, weighted_norm_sq


class EnergyEvaluator:
    """Precomputed spectral weights for all energy components on one grid."""

    def __init__(self, grid: Grid):
        self.grid = grid
        w1 = grid.hs_weight(1)
        w2 = grid.hs_weight(2)
        w3 = grid.hs_weight(3)
        k2 = grid.k2
        k1sq = np.broadcast_to(grid.k1sq, grid.shape)
        self.w_h2 = w2
        self.w_d1_h2 = k1sq * w2
        self.w_lap_h2 = k2 * k2 * w2
        self.w_grad_h2 = k2 * w2
        self.w_grad_d1_h2 = k2 * k1sq * w2
        self.w_grad_d1_h1 = k2 * k1sq * w1
        self.w_grad_d11_h1 = k2 * k1sq * k1sq * w1
        self.w_lap_d1_h1 = k2 * k2 * k1sq * w1
        self.w_cross_h2 = k2 * w2  # (f | lap g)_{H^2} carries -k2 inside
        self.w_h3 = w3
        self.w_d1_h3 = k1sq * w3

    def nsq(self, spec, w) -> float:
        return weighted_norm_sq(spec, w, self.grid)

    def ip(self, a, b, w) -> float:
        return weighted_inner(a, b, w, self.grid)

    def initial_norm(self, state: FlowState) -> float:
        """Smallness functional of the data: |Yt|_{H^3}^2 + |d1 Y|_{H^3}^2 + |lap Y|_{H^2}^2."""
        yh, yth = state.Y.spec, state.Yt.spec
        return (
            self.nsq(yth, self.w_h3)
            + self.nsq(yh, self.w_d1_h3)
            + self.nsq(yh, self.w_lap_h2)
        )


@dataclass
class EnergyReport:
    """Seven weighted energy components; weights are (t+1) and (t+1)^2 literally."""

    t: float
    yt_h2: float
    d1y_h2: float
    lap_y_h2: float
    w_grad_yt_h2: float
    w_grad_d1y_h2: float
    w2_grad_d1yt_h1: float
    w2_grad_d11y_h1: float

    @property
    def total(self) -> float:
        return (
            self.yt_h2
            + self.d1y_h2
            + self.lap_y_h2
            + self.w_grad_yt_h2
            + self.w_grad_d1y_h2
            + self.w2_grad_d1yt_h1
            + self.w2_grad_d11y_h1
        )

    def astuple(self):
        return (
            self.yt_h2,
            self.d1y_h2,
            self.lap_y_h2,
            self.w_grad_yt_h2,
            self.w_grad_d1y_h2,
            self.w2_grad_d1yt_h1,
            self.w2_grad_d11y_h1,
        )


@dataclass
class DissipationReport:
    """Five dissipation components with their temporal weights."""

    t: float
    grad_yt_h2: float
    grad_d1y_h2: float
    w_grad_d11y_h1: float
    w_lap_yt_h2: float
    w2_lap_d1yt_h1: float

    @property
    def total(self) -> float:
        return (
            self.grad_yt_h2
            + self.grad_d1y_h2
            + self.w_grad_d11y_h1
            + self.w_lap_yt_h2
            + self.w2_lap_d1yt_h1
        )

    def astuple(self):
        return (
            self.grad_yt_h2,
            self.grad_d1y_h2,
            self.w_grad_d11y_h1,
            self.w_lap_yt_h2,
            self.w2_lap_d1yt_h1,
        )


def energy_report(ev: EnergyEvaluator, state: FlowState) -> EnergyReport:
    yh, yth = state.Y.spec, state.Yt.spec
    w = state.t + 1.0
    return EnergyReport(
        t=state.t,
        yt_h2=ev.nsq(yth, ev.w_h2),
        d1y_h2=ev.nsq(yh, ev.w_d1_h2),
        lap_y_h2=ev.nsq(yh, ev.w_lap_h2),
        w_grad_yt_h2=w * ev.nsq(yth, ev.w_grad_h2),
        w_grad_d1y_h2=w * ev.nsq(yh, ev.w_grad_d1_h2),
        w2_grad_d1yt_h1=w * w * ev.nsq(yth, ev.w_grad_d1_h1),
        w2_grad_d11y_h1=w * w * ev.nsq(yh, ev.w_grad_d11_h1),
    )


def dissipation_report(ev: EnergyEvaluator, state: FlowState) -> DissipationReport:
    yh, yth = state.Y.spec, state.Yt.spec
    w = state.t + 1.0
    return DissipationReport(
        t=state.t,
        grad_yt_h2=ev.nsq(yth, ev.w_grad_h2),
        grad_d1y_h2=ev.nsq(yh, ev.w_grad_d1_h2),
        w_grad_d11y_h1=w * ev.nsq(yh, ev.w_grad_d11_h1),
        w_lap_yt_h2=w * ev.nsq(yth, ev.w_lap_h2),
        w2_lap_d1yt_h1=w * w * ev.nsq(yth, ev.w_lap_d1_h1),
    )


CORRECTED_COEFFS = (
    0.5,
    0.5,
    1.0 / 8.0,
    -1.0 / 4.0,
    1.0 / 8.0,
    1.0 / 8.0,
    1.0 / 32.0,
    -1.0 / 16.0,
    -1.0 / 32.0,
    1.0 / 64.0,
    1.0 / 64.0,
)

LOWER_BOUND_COEFFS = (
    1.0 / 4.0,
    1.0 / 2.0,
    1.0 / 32.0,
    1.0 / 16.0,
    1.0 / 16.0,
    1.0 / 64.0,
    1.0 / 64.0,
    1.0 / 64.0,
)

DISSIPATION_COEFFS = (5.0 / 8.0, 3.0 / 32.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 32.0)


@dataclass
class CorrectedEnergy:
    """Cross-term energy functional: eleven signed terms, coefficients fixed."""

    t: float
    terms: tuple  # signed, in display order

    @property
    def total(self) -> float:
        return float(sum(self.terms))


def corrected_energy(ev: EnergyEvaluator, state: FlowState) -> CorrectedEnergy:
    yh, yth = state.Y.spec, state.Yt.spec
    w = state.t + 1.0
    c = CORRECTED_COEFFS
    # (Yt | lap Y)_{H^2} and (lap d1 Y | d1 Yt)_{H^1} carry one -k2 factor
    cross_yt_lapy = -ev.ip(yth, yh, ev.w_cross_h2)
    cross_lapd1y_d1yt = -ev.ip(yh, yth, ev.w_grad_d1_h1)
    terms = (
        c[0] * ev.nsq(yth, ev.w_h2),
        c[1] * ev.nsq(yh, ev.w_d1_h2),
        c[2] * ev.nsq(yh, ev.w_lap_h2),
        c[3] * cross_yt_lapy,
        c[4] * w * ev.nsq(yth, ev.w_grad_h2),
        c[5] * w * ev.nsq(yh, ev.w_grad_d1_h2),
        c[6] * w * ev.nsq(yh, ev.w_lap_d1_h1),
        c[7] * w * cross_lapd1y_d1yt,
        c[8] * ev.nsq(yh, ev.w_grad_d1_h1),
        c[9] * w * w * ev.nsq(yth, ev.w_grad_d1_h1),
        c[10] * w * w * ev.nsq(yh, ev.w_grad_d11_h1),
    )
    return CorrectedEnergy(t=state.t, terms=terms)


def lower_bound_value(ev: EnergyEvaluator, state: FlowState) -> float:
    """Coercivity lower bound for the corrected energy (Young absorption)."""
    yh, yth = state.Y.spec, state.Yt.spec
    w = state.t + 1.0
    c = LOWER_BOUND_COEFFS
    return (
        c[0] * ev.nsq(yth, ev.w_h2)
        + c[1] * ev.nsq(yh, ev.w_d1_h2)
        + c[2] * ev.nsq(yh, ev.w_lap_h2)
        + c[3] * w * ev.nsq(yth, ev.w_grad_h2)
        + c[4] * w * ev.nsq(yh, ev.w_grad_d1_h2)
        + c[5] * w * ev.nsq(yh, ev.w_lap_d1_h1)
        + c[6] * w * w * ev.nsq(yth, ev.w_grad_d1_h1)
        + c[7] * w * w * ev.nsq(yh, ev.w_grad_d11_h1)
    )


@dataclass
class LowerBoundCheck:
    passed: bool
    margin: float
    corrected: float
    bound: float


def check_lower_bound(
    ev: EnergyEvaluator, state: FlowState, rel_tol: float = 1e-12
) -> LowerBoundCheck:
    ce = corrected_energy(ev, state).total
    lb = lower_bound_value(ev, state)
    margin = ce - lb
    scale = max(abs(ce), abs(lb), 1e-300)
    return LowerBoundCheck(margin >= -rel_tol * scale, margin, ce, lb)


def dissipation_inequality_terms(ev: EnergyEvaluator, state: FlowState):
    """The five dissipative terms of the differential inequality, weighted."""
    yh, yth = state.Y.spec, state.Yt.spec
    w = state.t + 1.0
    c = DISSIPATION_COEFFS
    return (
        c[0] * ev.nsq(yth, ev.w_grad_h2),
        c[1] * ev.nsq(yh, ev.w_grad_d1_h2),
        c[2] * w * ev.nsq(yth, ev.w_lap_h2),
        c[3] * w * ev.nsq(yh, ev.w_grad_d11_h1),
        c[4] * w * w * ev.nsq(yth, ev.w_lap_d1_h1),
    )


def forcing_pairings(ev: EnergyEvaluator, state: FlowState, f_spec) -> tuple:
    """|(f | Yt - lap Y/4 - (t+1) lap Yt/4)_{H^2}| and the H^1 pairing."""
    yh, yth = state.Y.spec, state.Yt.spec
    grid = ev.grid
    w = state.t + 1.0
    k2 = grid.k2
    k1sq = np.broadcast_to(grid.k1sq, grid.shape)
    test1 = yth + 0.25 * k2 * yh + 0.25 * w * k2 * yth
    rhs1 = abs(ev.ip(f_spec, test1, ev.w_h2))
    test2 = (w / 16.0) * k2 * k1sq * yh + (w * w / 32.0) * k2 * k1sq * yth
    rhs2 = abs(ev.ip(f_spec, test2, grid.hs_weight(1)))
    return rhs1, rhs2


# -- trajectory ledger ---------------------------------------------------------


@dataclass
class LedgerSample:
    """One stored time slice of everything the inequality audit needs."""

    t: float
    corrected: float
    dissipation_terms: tuple
    rhs1: float
    rhs2: float
    energy_total: float
    dissipation_total: float

    @property
    def rhs_total(self) -> float:
        return self.rhs1 + self.rhs2


@dataclass
class LedgerRecord:
    """Inequality check at one interior sample: lhs <= rhs within the band."""

    t: float
    lhs: float
    rhs: float
    band: float
    passed: bool
    slack: float


def ledger_check(samples, band_factor: float = 10.0):
    """Centered-difference audit of the dissipation inequality.

    The tolerance band is band_factor * cadence^2 * (global scale of the
    corrected energy), matching the O(cadence^2) truncation of the derivative.
    """
    if len(samples) < 3:
        raise ValueError("ledger needs at least 3 uniformly spaced samples")
    times = np.array([s.t for s in samples])
    steps = np.diff(times)
    if np.abs(steps - steps[0]).max() > 1e-9 * max(steps[0], 1e-300):
        raise ValueError("ledger samples are not uniformly spaced")
    dt = steps[0]
    corrected = np.array([s.corrected for s in samples])
    scale = np.abs(corrected).max()
    band = band_factor * dt * dt * scale
    records = []
    for i in range(1, len(samples) - 1):
        d_corr = (corrected[i + 1] - corrected[i - 1]) / (2.0 * dt)
        lhs = d_corr + sum(samples[i].dissipation_terms)
        rhs = samples[i].rhs_total
        records.append(
            LedgerRecord(
                t=samples[i].t,
                lhs=lhs,
                rhs=rhs,
                band=band,
                passed=bool(lhs <= rhs + band),
                slack=rhs + band - lhs,
            )
        )
    return records


def integrated_rhs(samples) -> float:
    """Trapezoid time integral of the forcing pairings (global-bound budget)."""
    times = np.array([s.t for s in samples])
    vals = np.array([s.rhs_total for s in samples])
    return float(np.trapezoid(vals, times))


def grad_u_linf_time_integral(times, sup_values):
    """Running trapezoid integral of a sampled sup-norm series."""
    times = np.asarray(times, dtype=float)
    vals = np.asarray(sup_values, dtype=float)
    if times.shape != vals.shape:
        raise ValueError("times and values must align")
    out = np.zeros_like(vals)
    if len(vals) > 1:
        increments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(times)
        out[1:] = np.cumsum(increments)
    return out


def quadratic_force_rate_monitors(ev: EnergyEvaluator, state: FlowState, f1, f2):
    """Reported-only ratios of the quadratic force norms to sqrt(E D).

    The expected temporal rates are (t+1)^(-7/12) for the H^2 norms and
    (t+1)^(-1) for the d1 H^1 norms; the constants are not pinned down, so
    these are monitors, never assertions. Returns nan entries at rest.
    """
    grid = ev.grid
    e = energy_report(ev, state).total
    d = dissipation_report(ev, state).total
    denom = np.sqrt(e * d)
    w = state.t + 1.0
    k1sq = np.broadcast_to(grid.k1sq, grid.shape)
    out = {}
    for name, field, weight, rate in (
        ("f1_h2", f1, ev.w_h2, w ** (7.0 / 12.0)),
        ("d1f1_h1", f1, k1sq * grid.hs_weight(1), w),
        ("f2_h2", f2, ev.w_h2, w ** (7.0 / 12.0)),
        ("d1f2_h1", f2, k1sq * grid.hs_weight(1), w),
    ):
        norm = np.sqrt(ev.nsq(field.spec, weight))
        out[name] = float(norm * rate / denom) if denom > 0 else float("nan")
    return out


# -- fits and studies ----------------------------------------------------------


@dataclass
class DecayFit:
    quantity: str
    window: tuple
    slope: float
    intercept: float
    r_squared: float


def fit_decay_rate(times, values, window, quantity: str = "") -> DecayFit:
    """Least-squares slope of log(value) against log(t+1) inside the window."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    if not hi > lo:
        raise ValueError("empty fit window")
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 10:
        raise ValueError(f"need at least 10 samples in window, got {int(mask.sum())}")
    v = values[mask]
    if not np.all(v > 0.0):  # NaN too: a column the solver does not measure
        raise ValueError("decay fit requires positive values in the window")
    x = np.log(times[mask] + 1.0)
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(quantity, (float(lo), float(hi)), float(slope), float(intercept), r2)


@dataclass
class ScalingStudy:
    amplitudes: tuple
    script_e: tuple
    nonlinear_integrals: tuple
    slope: float
    monotone: bool


def nonlinear_scaling_study(amplitudes, run_fn) -> ScalingStudy:
    """Fit the exponent of the time-integrated forcing pairings against script-E.

    run_fn(amplitude) must return (script_e, integrated_rhs) from a completed
    run; aborted runs surface as a RuntimeError naming the amplitude. Zero
    amplitudes are excluded from the fit (they contribute nothing).
    """
    amps = [float(a) for a in amplitudes if a != 0.0]
    if len(amps) < 3:
        raise ValueError("need at least 3 nonzero amplitudes")
    ratios = [amps[i] / amps[i + 1] for i in range(len(amps) - 1)]
    if max(ratios) / min(ratios) > 1.2:
        raise ValueError("amplitudes must form (approximately) a geometric progression")
    script_e = []
    integrals = []
    for a in amps:
        try:
            se, nn = run_fn(a)
        except Exception as exc:  # noqa: BLE001 - annotate and re-raise
            raise RuntimeError(f"scaling run at amplitude {a:g} failed: {exc}") from exc
        script_e.append(se)
        integrals.append(nn)
    x = np.log(np.array(script_e))
    y = np.log(np.array(integrals))
    slope = float(np.polyfit(x, y, 1)[0])
    monotone = bool(np.all(np.diff(script_e[::-1]) > 0)) if amps[0] > amps[-1] else bool(
        np.all(np.diff(script_e) > 0)
    )
    return ScalingStudy(tuple(amps), tuple(script_e), tuple(integrals), slope, monotone)

"""Temporal-weighted energy functionals and the runtime inequality ledger.

Every norm here is the literal multi-index H^s sum evaluated through Parseval,
so the coefficients of the corrected (cross-term) energy, its coercivity lower
bound, and the dissipation inequality are exactly the paper's. Only the order
of summation differs from the term-by-term formulas: each functional is
diagonal in Fourier space, so a sample forms one table of eight weights
against five per-mode spectra, and every term is a fixed coefficient times a
power of (t+1) times one entry of that table.

The ledger re-checks the differential inequality along computed trajectories
from per-sample sequences of the stored values (times, corrected energy,
dissipative terms, forcing pairings): the time derivative comes from centered
differences, never from re-derived algebra, so it audits the run rather than
the arithmetic. One running trapezoid integrates the sampled series in time:
the dissipation of script_E and the sup-norm of the velocity gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .geometry import FlowState
from .grid import Grid
from .spectral import weighted_norm_sq

# rows of EnergyEvaluator.weights
H2, D1_H2, LAP_H2, GRAD_H2, GRAD_D1_H2, GRAD_D1_H1, GRAD_D11_H1, LAP_D1_H1 = range(8)
# columns of a sample table: |Y|^2, |Yt|^2, Re Yt.conj Y, Re f.conj Yt, Re f.conj Y
YY, TT, TY, FT, FY = range(5)


def _real_pairs(spec):
    """(components, 2N) float view of a spectrum: Re and Im side by side."""
    spec = np.ascontiguousarray(spec)
    return spec.view(float).reshape(spec.shape[0], -1)


class EnergyEvaluator:
    """Precomputed spectral weights for all energy components on one grid.

    The eight weights of a sample are the rows of one (8, *grid.band_shape)
    array on the band, with the Hermitian multiplicity folded in, so a sum
    over the band equals the sum over the full spectrum. The named weight
    attributes are views of its rows.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        w1 = grid.hs_weight(1) * grid.multiplicity
        w2 = grid.hs_weight(2) * grid.multiplicity
        k2 = grid.k2
        k1sq = np.broadcast_to(grid.k1sq, grid.band_shape)
        w = self.weights = np.empty((8,) + grid.band_shape)
        w[H2] = w2
        w[D1_H2] = k1sq * w2
        w[LAP_H2] = k2 * k2 * w2
        w[GRAD_H2] = k2 * w2
        w[GRAD_D1_H2] = k2 * k1sq * w2
        w[GRAD_D1_H1] = k2 * k1sq * w1
        w[GRAD_D11_H1] = k2 * k1sq * k1sq * w1
        w[LAP_D1_H1] = k2 * k2 * k1sq * w1
        (self.w_h2, self.w_d1_h2, self.w_lap_h2, self.w_grad_h2, self.w_grad_d1_h2,
         self.w_grad_d1_h1, self.w_grad_d11_h1, self.w_lap_d1_h1) = w

    def sample_table(self, state: FlowState, f_band=None):
        """volume * W @ S: the (8, 5) table every sample functional reads.

        The columns of S are five per-mode spectra over the band, each summed
        over components: |Y|^2, |Yt|^2, Re Yt.conj(Y), Re f.conj(Yt) and
        Re f.conj(Y); the last two are zero without f, the band of the
        force. The table does not depend on t: the (t+1) powers are applied
        by the functionals.
        """
        n = self.weights[0].size
        y, yt = _real_pairs(state.Y), _real_pairs(state.Yt)
        pairs = [(y, y), (yt, yt), (yt, y)]
        if f_band is not None:
            f = _real_pairs(f_band)
            pairs += [(f, yt), (f, y)]
        spectra = np.zeros((5, n))
        acc, tmp = np.empty(2 * n), np.empty(2 * n)
        for out, (a, b) in zip(spectra, pairs):
            np.multiply(a[0], b[0], out=acc)
            for j in range(1, len(a)):
                acc += np.multiply(a[j], b[j], out=tmp)
            np.add(acc[0::2], acc[1::2], out=out)  # Re.Re + Im.Im
        return self.grid.volume * (self.weights.reshape(8, n) @ spectra.T)

    @staticmethod
    def initial_norm(state: FlowState) -> float:
        """Smallness functional of the data: |Yt|_{H^3}^2 + |d1 Y|_{H^3}^2 + |lap Y|_{H^2}^2.

        Reads the bands of the state and only the grid's cached H^s weights,
        so initial data can be scaled with it before any evaluator is built.
        """
        grid = state.grid
        w_h3 = grid.hs_weight(3) * grid.multiplicity
        w_h2 = grid.hs_weight(2) * grid.multiplicity
        k1sq = np.broadcast_to(grid.k1sq, grid.band_shape)
        yh, yth = state.Y, state.Yt
        return (
            weighted_norm_sq(yth, w_h3, grid)
            + weighted_norm_sq(yh, k1sq * w_h3, grid)
            + weighted_norm_sq(yh, grid.k2 * grid.k2 * w_h2, grid)
        )


def _terms(ev, state, table, coeffs, terms):
    """coeff * (t+1)^p * table[row, col] for each coefficient and (row, col, p).

    Without a table, one is built from the state.
    """
    if table is None:
        table = ev.sample_table(state)
    w = state.t + 1.0
    powers = (1.0, w, w * w)
    rows = table.tolist()
    return tuple(c * powers[p] * rows[r][s] for c, (r, s, p) in zip(coeffs, terms))


class _Components:
    """The components are the fields after t; their total is their sum."""

    def astuple(self):
        return tuple(getattr(self, f.name) for f in fields(self)[1:])

    @property
    def total(self) -> float:
        return sum(self.astuple())


@dataclass
class EnergyReport(_Components):
    """Seven weighted energy components; weights are (t+1) and (t+1)^2 literally."""

    t: float
    yt_h2: float
    d1y_h2: float
    lap_y_h2: float
    w_grad_yt_h2: float
    w_grad_d1y_h2: float
    w2_grad_d1yt_h1: float
    w2_grad_d11y_h1: float


@dataclass
class DissipationReport(_Components):
    """Five dissipation components with their temporal weights."""

    t: float
    grad_yt_h2: float
    grad_d1y_h2: float
    w_grad_d11y_h1: float
    w_lap_yt_h2: float
    w2_lap_d1yt_h1: float


# Every term below is (weight row, spectrum column, power of t+1), in the
# order of the components or coefficients it goes with.
ENERGY_TERMS = (
    (H2, TT, 0), (D1_H2, YY, 0), (LAP_H2, YY, 0), (GRAD_H2, TT, 1),
    (GRAD_D1_H2, YY, 1), (GRAD_D1_H1, TT, 2), (GRAD_D11_H1, YY, 2),
)
DISSIPATION_TERMS = (
    (GRAD_H2, TT, 0), (GRAD_D1_H2, YY, 0), (GRAD_D11_H1, YY, 1), (LAP_H2, TT, 1),
    (LAP_D1_H1, TT, 2),
)
INEQUALITY_TERMS = (  # the dissipation terms in DISSIPATION_COEFFS order
    (GRAD_H2, TT, 0), (GRAD_D1_H2, YY, 0), (LAP_H2, TT, 1), (GRAD_D11_H1, YY, 1),
    (LAP_D1_H1, TT, 2),
)
# The two TY terms are (Yt | lap Y)_{H^2} and (lap d1 Y | d1 Yt)_{H^1}: the
# Laplacian inside each is a factor -k2 on the table entry.
CORRECTED_TERMS = (
    (H2, TT, 0), (D1_H2, YY, 0), (LAP_H2, YY, 0), (GRAD_H2, TY, 0), (GRAD_H2, TT, 1),
    (GRAD_D1_H2, YY, 1), (LAP_D1_H1, YY, 1), (GRAD_D1_H1, TY, 1), (GRAD_D1_H1, YY, 0),
    (GRAD_D1_H1, TT, 2), (GRAD_D11_H1, YY, 2),
)
LOWER_BOUND_TERMS = (
    (H2, TT, 0), (D1_H2, YY, 0), (LAP_H2, YY, 0), (GRAD_H2, TT, 1),
    (GRAD_D1_H2, YY, 1), (LAP_D1_H1, YY, 1), (GRAD_D1_H1, TT, 2), (GRAD_D11_H1, YY, 2),
)
# rhs1 = |(f | Yt - lap Y/4 - (t+1) lap Yt/4)_{H^2}| and
# rhs2 = |(f | (t+1) lap d1^2 Y/16 + (t+1)^2 lap d1^2 Yt/32)_{H^1}|
RHS1_TERMS = ((H2, FT, 0), (GRAD_H2, FY, 0), (GRAD_H2, FT, 1))
RHS2_TERMS = ((GRAD_D1_H1, FY, 1), (GRAD_D1_H1, FT, 2))

CORRECTED_COEFFS = (
    0.5, 0.5, 1.0 / 8.0, -1.0 / 4.0, 1.0 / 8.0, 1.0 / 8.0,
    1.0 / 32.0, -1.0 / 16.0, -1.0 / 32.0, 1.0 / 64.0, 1.0 / 64.0,
)
LOWER_BOUND_COEFFS = (
    1.0 / 4.0, 1.0 / 2.0, 1.0 / 32.0, 1.0 / 16.0,
    1.0 / 16.0, 1.0 / 64.0, 1.0 / 64.0, 1.0 / 64.0,
)
DISSIPATION_COEFFS = (5.0 / 8.0, 3.0 / 32.0, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 32.0)
RHS1_COEFFS = (1.0, 0.25, 0.25)
RHS2_COEFFS = (1.0 / 16.0, 1.0 / 32.0)

_ONES = (1.0,) * 7
_CORRECTED_ON_TABLE = tuple(  # the -k2 of the two cross terms
    -c if s == TY else c for c, (_, s, _) in zip(CORRECTED_COEFFS, CORRECTED_TERMS)
)


def energy_report(ev: EnergyEvaluator, state: FlowState, table=None) -> EnergyReport:
    return EnergyReport(state.t, *_terms(ev, state, table, _ONES, ENERGY_TERMS))


def dissipation_report(
    ev: EnergyEvaluator, state: FlowState, table=None
) -> DissipationReport:
    terms = _terms(ev, state, table, _ONES, DISSIPATION_TERMS)
    return DissipationReport(state.t, *terms)


@dataclass
class CorrectedEnergy:
    """Cross-term energy functional: eleven signed terms, coefficients fixed."""

    t: float
    terms: tuple  # signed, in display order

    @property
    def total(self) -> float:
        return float(sum(self.terms))


def corrected_energy(
    ev: EnergyEvaluator, state: FlowState, table=None
) -> CorrectedEnergy:
    terms = _terms(ev, state, table, _CORRECTED_ON_TABLE, CORRECTED_TERMS)
    return CorrectedEnergy(state.t, terms)


def lower_bound_value(ev: EnergyEvaluator, state: FlowState, table=None) -> float:
    """Coercivity lower bound for the corrected energy (Young absorption)."""
    return sum(_terms(ev, state, table, LOWER_BOUND_COEFFS, LOWER_BOUND_TERMS))


@dataclass
class LowerBoundCheck:
    passed: bool
    margin: float
    corrected: float
    bound: float


def check_lower_bound(
    ev: EnergyEvaluator, state: FlowState, rel_tol: float = 1e-12
) -> LowerBoundCheck:
    table = ev.sample_table(state)
    ce = corrected_energy(ev, state, table).total
    lb = lower_bound_value(ev, state, table)
    margin = ce - lb
    scale = max(abs(ce), abs(lb), 1e-300)
    return LowerBoundCheck(margin >= -rel_tol * scale, margin, ce, lb)


def dissipation_inequality_terms(ev: EnergyEvaluator, state: FlowState, table=None):
    """The five dissipative terms of the differential inequality, weighted."""
    return _terms(ev, state, table, DISSIPATION_COEFFS, INEQUALITY_TERMS)


def forcing_pairings(ev: EnergyEvaluator, state: FlowState, f_band, table=None) -> tuple:
    """(rhs1, rhs2), the absolute forcing pairings above, of the force band
    f_band. A given table must have been built with f_band."""
    if table is None:
        table = ev.sample_table(state, f_band)
    rhs1 = sum(_terms(ev, state, table, RHS1_COEFFS, RHS1_TERMS))
    rhs2 = sum(_terms(ev, state, table, RHS2_COEFFS, RHS2_TERMS))
    return abs(rhs1), abs(rhs2)


# -- trajectory ledger ---------------------------------------------------------


@dataclass
class LedgerRecord:
    """Inequality check at one interior sample: lhs <= rhs within the band."""

    t: float
    lhs: float
    rhs: float
    band: float
    passed: bool


def ledger_check(times, corrected, dissipation, rhs, band_factor: float = 10.0):
    """Centered-difference audit of the dissipation inequality.

    The arguments are per-sample sequences: the sample times, the corrected
    energy, the five dissipative terms and the forcing pairings rhs1 + rhs2.
    The tolerance band is band_factor * cadence^2 * (global scale of the
    corrected energy), matching the O(cadence^2) truncation of the derivative.
    """
    if len(times) < 3:
        raise ValueError("ledger needs at least 3 uniformly spaced samples")
    times = np.asarray(times, dtype=float)
    steps = np.diff(times)
    if np.abs(steps - steps[0]).max() > 1e-9 * max(steps[0], 1e-300):
        raise ValueError("ledger samples are not uniformly spaced")
    dt = steps[0]
    corrected = np.asarray(corrected, dtype=float)
    scale = np.abs(corrected).max()
    band = band_factor * dt * dt * scale
    records = []
    for i in range(1, len(times) - 1):
        d_corr = (corrected[i + 1] - corrected[i - 1]) / (2.0 * dt)
        lhs = d_corr + sum(dissipation[i])
        records.append(
            LedgerRecord(
                t=times[i],
                lhs=lhs,
                rhs=rhs[i],
                band=band,
                passed=bool(lhs <= rhs[i] + band),
            )
        )
    return records


def running_trapezoid(times, values):
    """Trapezoid integral of a sampled series from times[0] to each sample."""
    times = np.asarray(times, dtype=float)
    vals = np.asarray(values, dtype=float)
    if times.shape != vals.shape:
        raise ValueError("times and values must align")
    out = np.zeros_like(vals)
    if len(vals) > 1:
        increments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(times)
        out[1:] = np.cumsum(increments)
    return out


# -- fits and studies ----------------------------------------------------------


@dataclass
class DecayFit:
    window: tuple
    slope: float
    intercept: float
    r_squared: float


def fit_decay_rate(times, values, window) -> DecayFit:
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
    return DecayFit((float(lo), float(hi)), float(slope), float(intercept), r2)


@dataclass
class ScalingStudy:
    amplitudes: tuple
    script_e: tuple
    nonlinear_integrals: tuple
    slope: float
    monotone: bool


def nonlinear_scaling_study(amplitudes, run_fn) -> ScalingStudy:
    """Fit the exponent of the time-integrated forcing pairings against script-E.

    run_fn(amplitude) must return (script_e, time integral of rhs1 + rhs2)
    from a completed run; aborted runs surface as a RuntimeError naming the
    amplitude. Zero amplitudes are excluded from the fit (they contribute
    nothing).
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

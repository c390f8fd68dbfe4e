"""Temporal-weighted energy functionals and the runtime inequality ledger.

Every norm here is the literal multi-index H^s sum evaluated through Parseval,
so the coefficients of the corrected (cross-term) energy, its coercivity lower
bound, and the dissipation inequality are exactly the paper's. Only the order
of summation differs from the term-by-term formulas: each functional is
diagonal in Fourier space, so a sample forms one table of eight weights
against five per-mode spectra, and every term is a fixed coefficient times a
power of (t+1) times one entry of that table: each functional takes the
table and the time t of its state.

The ledger re-checks the differential inequality at one interior sample from
the stored values of the sample and its neighbours (corrected energy,
dissipation components, forcing pairings): the time derivative comes from a
centered difference, never from re-derived algebra, so it audits the run
rather than the arithmetic. The runner's running audit forms each row as its
successor arrives, and adds the time integrals of the sampled series itself.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    over the band equals the sum over the full spectrum.
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


def _terms(table, t, coeffs, terms):
    """coeff * (t+1)^p * table[row, col] for each coefficient and (row, col, p)."""
    w = t + 1.0
    powers = (1.0, w, w * w)
    rows = table.tolist()
    return tuple(c * powers[p] * rows[r][s] for c, (r, s, p) in zip(coeffs, terms))


# Every term below is (weight row, spectrum column, power of t+1), in the
# order of the components or coefficients it goes with. The energy and
# dissipation components are the E_ and D_ columns of runner.CSV_COLUMNS.
ENERGY_TERMS = (
    (H2, TT, 0), (D1_H2, YY, 0), (LAP_H2, YY, 0), (GRAD_H2, TT, 1),
    (GRAD_D1_H2, YY, 1), (GRAD_D1_H1, TT, 2), (GRAD_D11_H1, YY, 2),
)
DISSIPATION_TERMS = (
    (GRAD_H2, TT, 0), (GRAD_D1_H2, YY, 0), (GRAD_D11_H1, YY, 1), (LAP_H2, TT, 1),
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


def energy_report(table, t) -> tuple:
    """The seven weighted energy components; weights are (t+1) and (t+1)^2."""
    return _terms(table, t, _ONES, ENERGY_TERMS)


def dissipation_report(table, t) -> tuple:
    """The five dissipation components with their temporal weights."""
    return _terms(table, t, _ONES, DISSIPATION_TERMS)


def corrected_energy(table, t) -> tuple:
    """The eleven signed terms of the cross-term energy tilde_E."""
    return _terms(table, t, _CORRECTED_ON_TABLE, CORRECTED_TERMS)


def lower_bound_value(table, t) -> float:
    """Coercivity lower bound for the corrected energy (Young absorption)."""
    return sum(_terms(table, t, LOWER_BOUND_COEFFS, LOWER_BOUND_TERMS))


LOWER_BOUND_TOL = 1e-12  # a margin at or above -LOWER_BOUND_TOL passes


def lower_bound_margin(table, t, corrected) -> float:
    """Coercivity margin (tilde_E - lb) / max(|tilde_E|, |lb|, 1e-300), with
    tilde_E = corrected = sum(corrected_energy(table, t)) and lb its bound."""
    lb = lower_bound_value(table, t)
    return (corrected - lb) / max(abs(corrected), abs(lb), 1e-300)


def dissipation_inequality_terms(dissipation):
    """The five dissipative terms of the differential inequality: the
    components of dissipation_report weighted by DISSIPATION_COEFFS, in
    the paper's order, which swaps the third and fourth."""
    return tuple(c * dissipation[j] for c, j in zip(DISSIPATION_COEFFS, (0, 1, 3, 2, 4)))


def forcing_pairings(table, t) -> tuple:
    """(rhs1, rhs2), the absolute forcing pairings above, of the table's force."""
    rhs1 = sum(_terms(table, t, RHS1_COEFFS, RHS1_TERMS))
    rhs2 = sum(_terms(table, t, RHS2_COEFFS, RHS2_TERMS))
    return abs(rhs1), abs(rhs2)


# -- trajectory ledger ---------------------------------------------------------


LEDGER_BAND_FACTOR = 10.0


def ledger_check(spacing, corrected, dissipation, rhs, scale):
    """Centered-difference audit of the dissipation inequality at one
    interior sample.

    spacing is the sample spacing, corrected the corrected energies of the
    samples before and after, dissipation the five dissipative terms at the
    sample and rhs its forcing pairings rhs1 + rhs2; scale is the largest
    |corrected energy| the audit has seen. Returns the lhs, its pass flag
    (lhs <= rhs + band) and the band: LEDGER_BAND_FACTOR * spacing^2 *
    scale, matching the O(spacing^2) truncation of the derivative.
    """
    before, after = corrected
    lhs = (after - before) / (2.0 * spacing) + sum(dissipation)
    band = LEDGER_BAND_FACTOR * spacing * spacing * scale
    return lhs, lhs <= rhs + band, band


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

"""Time integration: exact per-mode linear propagation plus nonlinear forcing.

Per Fourier mode the linear part of the displacement equation
Y_tt - lap(Y_t) - d1^2 Y = f reduces to y'' + a y' + b y = f_k with a = |k|^2
and b = k1^2, whose characteristic roots lambda^2 + a lambda + b = 0 always
have nonpositive real part. The stepper propagates that part exactly and
treats f with a two-stage exponential predictor-corrector, so stiffness never
restricts the step size, only accuracy does. A pseudo-spectral Eulerian
solver of the primitive velocity/magnetic system provides the reference for
cross-formulation checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import ScalarField, VectorField
# graded_metric_values is not called here; perfbench/layers.py times it by this name
from .geometry import FlowState, cofactor_values, graded_metric_values  # noqa: F401
from .grid import ForceWorkspace, Grid
from .pressure import PressureSolution, _tensor_rhs_spec, solve_pressure_spec
from .spectral import (
    dealias_spec,
    divergence_spec,
    gradient_values,
    riesz_apply_spec,
)

DEGENERATE_REL_TOL = 1e-12  # |disc| <= tol * |k|^4 switches to the double-root limit


# -- characteristic roots ----------------------------------------------------


def characteristic_roots(a, b):
    """Roots of lambda^2 + a*lambda + b = 0, cancellation-free for b << a^2.

    Returns (lam_plus, lam_minus) sorted by real part descending; complex pairs
    put the +imag root first.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    disc = a * a - 4.0 * b
    disc = np.where(np.abs(disc) <= DEGENERATE_REL_TOL * a * a, 0.0, disc)
    s = np.sqrt(disc.astype(complex))
    lam_minus = -0.5 * (a + s)
    denom = a + s
    safe = np.where(np.abs(denom) > 0, denom, 1.0)
    lam_plus = np.where(np.abs(denom) > 0, -2.0 * b / safe, 0.0)
    return lam_plus, lam_minus


def dispersion_eigenvalues(k):
    """Characteristic roots for one wavevector k (any dimension)."""
    k = np.asarray(k, dtype=float)
    a = float(np.sum(k * k))
    b = float(k[0] ** 2)
    lp, lm = characteristic_roots(a, b)
    return complex(lp), complex(lm)


def _phi_entries(a, b, t, roots=None):
    """Fundamental-solution entries (phi0, phi1, dphi1) of y'' + a y' + b y = 0.

    y(t) = phi0*y0 + phi1*y1, y'(t) = -b*phi1*y0 + dphi1*y1. Written through
    cosh/sinch of s*t/2 so the degenerate double-root locus is crossed smoothly;
    the large branch uses the root exponentials directly (|e^{lam t}| <= 1).
    """
    lp, lm = characteristic_roots(a, b) if roots is None else roots
    mu = 0.5 * (lp + lm)  # real: -a/2
    sig = 0.5 * (lp - lm)
    z = sig * t
    small = np.abs(z) <= 1e-3

    z2 = np.where(small, z * z, 0.0)
    sinch = 1.0 + z2 / 6.0 + z2 * z2 / 120.0 + z2 * z2 * z2 / 5040.0
    cosh = 1.0 + z2 / 2.0 + z2 * z2 / 24.0 + z2 * z2 * z2 / 720.0
    e_mu = np.exp(mu * t)
    phi1_s = t * e_mu * sinch
    phi0_s = e_mu * (cosh - mu * t * sinch)
    dphi1_s = e_mu * (cosh + mu * t * sinch)

    s_full = lp - lm
    s_safe = np.where(small, 1.0, s_full)
    ep = np.exp(lp * t)
    em = np.exp(lm * t)
    phi1_l = (ep - em) / s_safe
    phi0_l = (lp * em - lm * ep) / s_safe
    dphi1_l = (lp * ep - lm * em) / s_safe

    phi0 = np.where(small, phi0_s, phi0_l)
    phi1 = np.where(small, phi1_s, phi1_l)
    dphi1 = np.where(small, dphi1_s, dphi1_l)
    return phi0.real, phi1.real, dphi1.real


def _exprel1(z):
    small = np.abs(z) <= 1e-4
    zs = np.where(small, z, 0.0)
    series = 1.0 + zs / 2.0 + zs * zs / 6.0 + zs**3 / 24.0
    z_safe = np.where(small, 1.0, z)
    return np.where(small, series, (np.exp(z) - 1.0) / z_safe)


def _exprel1_prime(z):
    small = np.abs(z) <= 1e-2
    zs = np.where(small, z, 0.0)
    series = 0.5 + zs / 3.0 + zs * zs / 8.0 + zs**3 / 30.0
    z_safe = np.where(small, 1.0, z)
    return np.where(small, series, (np.exp(z) * (z - 1.0) + 1.0) / z_safe**2)


def _exprel2(z):
    small = np.abs(z) <= 1e-4
    zs = np.where(small, z, 0.0)
    series = 0.5 + zs / 6.0 + zs * zs / 24.0 + zs**3 / 120.0
    z_safe = np.where(small, 1.0, z)
    return np.where(small, series, (np.exp(z) - 1.0 - z) / z_safe**2)


def _exprel2_prime(z):
    small = np.abs(z) <= 1e-2
    zs = np.where(small, z, 0.0)
    series = 1.0 / 6.0 + zs / 12.0 + zs * zs / 40.0 + zs**3 / 180.0
    z_safe = np.where(small, 1.0, z)
    return np.where(
        small, series, (np.exp(z) * (z - 2.0) + z + 2.0) / z_safe**3
    )


def _integral_entries(a, b, dt, roots=None):
    """(I0, K1) = (int_0^dt phi1, int_0^dt (1 - tau/dt) phi1) for the Duhamel blocks."""
    lp, lm = characteristic_roots(a, b) if roots is None else roots
    s = lp - lm
    small = np.abs(s * dt) <= 1e-3
    s_safe = np.where(small, 1.0, s)
    f_p = dt * _exprel1(lp * dt)
    f_m = dt * _exprel1(lm * dt)
    g_p = dt * _exprel2(lp * dt)
    g_m = dt * _exprel2(lm * dt)
    zbar = 0.5 * (lp + lm) * dt
    i0 = np.where(small, dt * dt * _exprel1_prime(zbar), (f_p - f_m) / s_safe)
    k1 = np.where(small, dt * dt * _exprel2_prime(zbar), (g_p - g_m) / s_safe)
    return i0.real, k1.real


def propagator_matrix(k, dt: float):
    """Exact 2x2 block mapping (Y_k, Yt_k)(t) -> (t + dt) for one mode."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k = np.asarray(k, dtype=float)
    a = float(np.sum(k * k))
    b = float(k[0] ** 2)
    phi0, phi1, dphi1 = _phi_entries(a, b, dt)
    return np.array([[phi0, phi1], [-b * phi1, dphi1]])


@dataclass
class LinearPropagator:
    """Per-mode exact propagation blocks for a fixed grid and time step.

    Everything lives on the band: the stability check of the characteristic
    roots and the stepping blocks; ``apply`` acts on bands.
    """

    grid: Grid
    dt: float

    def __post_init__(self):
        grid, dt = self.grid, self.dt
        if dt <= 0:
            raise ValueError("dt must be positive")
        a = grid.k2
        b = np.broadcast_to(grid.k1sq, grid.band_shape)
        lp, lm = roots = characteristic_roots(a, b)
        if lp.real.max() > 1e-13 or lm.real.max() > 1e-13:
            raise AssertionError("unstable characteristic root on the lattice")

        self.phi0, self.phi1, self.dphi1 = _phi_entries(a, b, dt, roots)
        self.dphi0 = -b * self.phi1
        self.i0, self.k1 = _integral_entries(a, b, dt, roots)
        # corrector weights: Y gains y_f0 f0 + k1 f1, Yt gains yt_f0 f0 + yt_f1 f1
        self.y_f0 = self.i0 - self.k1
        self.yt_f0 = self.phi1 - self.i0 / dt
        self.yt_f1 = self.i0 / dt

    def apply(self, y_band, yt_band):
        return (
            self.phi0 * y_band + self.phi1 * yt_band,
            self.dphi0 * y_band + self.dphi1 * yt_band,
        )


# -- nonlinear force ---------------------------------------------------------


@dataclass
class NonlinearForce:
    """Forcing f of the displacement equation with the pieces it was built from.

    f is the viscous flux div((A^T A - I) grad Yt) plus pressure_force = -A grad_p.
    f, pressure_force and grad_p are band fields of their own. a_values,
    grad_y and grad_yt are arrays of the ``ForceWorkspace`` the force was
    computed in: a force of a ``LagrangianStepper`` holds them until that
    stepper computes its next force, which overwrites them.
    """

    f: VectorField
    pressure_force: VectorField  # -A grad_p
    pressure: PressureSolution
    a_values: np.ndarray
    grad_y: np.ndarray
    grad_yt: np.ndarray


def _bands(state: FlowState, work=None):
    """The bands of Y and Yt with the 2/3 mask applied: what the state holds
    outside the retained modes is dropped. With a ``ForceWorkspace`` they go
    into its ``y_band`` and ``yt_band``."""
    grid = state.grid
    y_out, yt_out = (None, None) if work is None else (work.y_band, work.yt_band)
    return (
        dealias_spec(state.Y.band, grid, out=y_out),
        dealias_spec(state.Yt.band, grid, out=yt_out),
    )


def compute_force(
    state: FlowState,
    pressure_tol: float = 1e-10,
    pressure_max_iter: int = 50,
    q0=None,
    work=None,
) -> NonlinearForce:
    """Assemble f = div(D grad Yt) - A grad_p with dealiased products, D = A^T A - I.

    D is formed from B = A - I = B1 + B2 as B + B^T + B^T B, the same algebra
    as the sum of the graded pieces G_d, in one product; I is never added and
    removed, so small deformations do not cancel. The same D drives the
    pressure fixed point, and the viscous flux costs a single transform
    whatever the dimension. It reads the bands of Y and Yt, every spectrum
    in between lives on the band, and f, the pressure force and grad_p are
    returned as band fields.

    The 2/3 mask zeroes the Nyquist hyperplanes of the leading axes, where
    an odd multiplier leaves a real field's spectrum non-Hermitian and a
    band could not hold what the full spectrum does. What the state holds
    outside the 2/3-retained modes is ignored.

    q0, a pressure potential band, is where the Picard solve starts
    (``solve_pressure_spec``); without it the solve starts cold, and the
    force depends on the state alone.

    Every intermediate goes into ``work``, a ``ForceWorkspace`` of the grid;
    without one the force builds a fresh one and is pure. The returned
    ``grad_y``, ``grad_yt`` and ``a_values`` are the workspace's arrays.
    """
    grid = state.grid
    if work is None:
        work = ForceWorkspace(grid)
    y_band, yt_band = _bands(state, work)
    grad_y = gradient_values(y_band, grid, out=work.grad_y, work=work)
    b1, b2, a_vals = cofactor_values(grad_y, out=(work.b, work.flux, work.a))
    grad_yt = gradient_values(yt_band, grid, out=work.grad_yt, work=work)

    b = np.add(b1, b2, out=b1)
    defect = np.einsum("mi...,mj...->ij...", b, b, out=work.defect)
    defect += b
    defect += np.swapaxes(b, 0, 1)
    flux = np.einsum("jm...,im...->ij...", defect, grad_yt, out=work.flux)
    flux_band = grid.rfft(flux, out=work.mat_band, pad=work.pad)
    visc_band = divergence_spec(
        np.swapaxes(flux_band, 0, 1), grid, out=work.vec_band[0]
    )
    visc_band = dealias_spec(visc_band, grid, out=visc_band)

    d1y = grad_y[:, 0]
    yt_vals = grid.irfft(yt_band, out=work.vec[0], pad=work.pad[0])
    rhs_band = _tensor_rhs_spec(
        grid, a_vals, d1y, yt_vals, out=work.vec_band[1], work=work
    )
    gp_band, iters, residuals, contraction, potential = solve_pressure_spec(
        grid, defect, rhs_band, pressure_tol, pressure_max_iter, q0=q0, work=work
    )
    gp_real = grid.irfft(gp_band, out=work.vec[0], pad=work.pad[0])
    a_gp = np.einsum("im...,m...->i...", a_vals, gp_real, out=work.vec[1])
    fp_band = grid.rfft(a_gp, pad=work.pad[0])
    fp_band *= -grid.dealias_mask

    return NonlinearForce(
        f=VectorField.from_band(grid, fp_band + visc_band),
        pressure_force=VectorField.from_band(grid, fp_band),
        pressure=PressureSolution(
            grad_p=VectorField.from_band(grid, gp_band),
            iterations=iters,
            residuals=residuals,
            contraction_estimate=contraction,
            potential=potential,
        ),
        a_values=a_vals,
        grad_y=grad_y,
        grad_yt=grad_yt,
    )


# -- Lagrangian stepper ------------------------------------------------------

# weights of the pressure starts by the history held (see LagrangianStepper):
# the predictor's on (q0_n, q0_{n-1}, ...), the first stage's on
# (q*_{n+1}, q0_n, q*_n, q0_{n-1}, q*_{n-1})
_PREDICTOR_WEIGHTS = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))
_FIRST_STAGE_WEIGHTS = ((1.0,), (1.0, 1.0, -1.0), (1.0, 2.0, -2.0, -1.0, 1.0))


def _combine(weights, potentials):
    """sum_i weights[i] * potentials[i], a fresh band."""
    start = weights[0] * potentials[0]
    for w, q in zip(weights[1:], potentials[1:]):
        start += w * q
    return start


class LagrangianStepper:
    """Exponential predictor-corrector for the displacement system.

    The linear part is advanced by the exact per-mode blocks; the forcing is
    interpolated linearly across the step (Duhamel weights I0, K1), which is
    second order in dt and preserves the equilibrium exactly.

    Each pressure solve starts from an extrapolation of the stepper's recent
    potentials (Fischer, CMAME 163, 1998): q0_m of the first-stage solve and
    q*_m of the predictor solve at t_m. The predictor solve at t_{n+1}
    starts from 4 q0_n - 6 q0_{n-1} + 4 q0_{n-2} - q0_{n-3}, or the
    quadratic, linear or constant extrapolation when fewer first-stage
    potentials are held. The first-stage solve at t_{n+1} starts from
    q*_{n+1}, at the same time, plus the extrapolated corrector offset
    2 d_n - d_{n-1}, d_m = q0_m - q*_m; with less history, plus d_n or
    nothing. So the stepper holds 7 potential bands, the last four
    first-stage and the last three predictor solves, each with the time of
    its solve. Solves are paired by those stored times, never by t - dt: a
    state continues the history when its time is that of the last
    predictor solve, and otherwise starts it afresh from a cold solve.

    Reset rule: a solve that started cold and took a single iteration
    clears the history, so the next one starts cold too. One iteration
    cannot get cheaper, and under the absolute stopping rule its result
    depends on its start, so on one-iteration data every solve starts cold.
    A warm solve that takes one iteration keeps the history.

    One stepper serves one run: a run on a stepper that another run used
    may start its solves elsewhere, and a fresh stepper on a mid-run state
    starts cold; either output differs from the uninterrupted run by up to
    the tolerance.

    Every force of the stepper is computed in one ``ForceWorkspace``, built
    from the grid at the first force, so a warm step allocates no array of
    grid size. A force's a_values, grad_y and grad_yt are that workspace's
    arrays: they hold until the stepper's next force, the predictor force of
    the next ``step`` included, so read them before stepping.
    """

    def __init__(
        self,
        grid: Grid,
        dt: float,
        pressure_tol: float = 1e-10,
        pressure_max_iter: int = 50,
    ):
        self.grid = grid
        self.dt = dt
        self.pressure_tol = pressure_tol
        self.pressure_max_iter = pressure_max_iter
        self.propagator = LinearPropagator(grid, dt)
        # built at the first force: the set-up of a run (initial data,
        # tables) then reuses the memory the last run freed before the
        # workspace takes its share, and does not fault in fresh pages
        self._work = None
        # (t, potential) of the last first-stage and predictor solves,
        # newest first
        self._first = []
        self._star = []

    def _force(self, state: FlowState, q0) -> NonlinearForce:
        if self._work is None:
            self._work = ForceWorkspace(self.grid)
        return compute_force(
            state,
            pressure_tol=self.pressure_tol,
            pressure_max_iter=self.pressure_max_iter,
            q0=q0,
            work=self._work,
        )

    def _continues(self, t) -> bool:
        """Whether a state at t continues the history: its time is the
        stored time of the last predictor solve."""
        return bool(self._star) and self._star[0][0] == t

    def force(self, state: FlowState) -> NonlinearForce:
        """The first-stage force at state.t, started from the predictor
        solve at that time plus the extrapolated corrector offset."""
        if not self._continues(state.t):
            return self._force(state, None)
        potentials = [self._star[0][1]]
        for (t_first, q_first), (t_star, q_star) in zip(self._first, self._star[1:]):
            if t_first != t_star:
                break
            potentials += [q_first, q_star]
        weights = _FIRST_STAGE_WEIGHTS[len(potentials) // 2]
        return self._force(state, _combine(weights, potentials))

    def _keep(self, history, size, t, pressure, cold):
        """Put a solve's potential at the head of history. A cold solve
        starts the history afresh, and leaves it empty when it took a
        single iteration (the reset rule)."""
        if cold:
            self._first.clear()
            self._star.clear()
            if pressure.iterations <= 1:
                return
        history.insert(0, (t, pressure.potential))
        del history[size:]

    def step(self, state: FlowState, force: NonlinearForce = None) -> FlowState:
        """Advance one dt; force, when given, is self.force(state).

        Works on bands: what the state holds outside the 2/3-retained modes
        is dropped.
        """
        grid, dt, prop = self.grid, self.dt, self.propagator
        py, pyt = prop.apply(*_bands(state))

        f0 = force if force is not None else self.force(state)
        f0h = f0.f.band
        y_star = py + prop.i0 * f0h
        yt_star = pyt + prop.phi1 * f0h
        star = FlowState(
            VectorField.from_band(grid, y_star),
            VectorField.from_band(grid, yt_star),
            state.t + dt,
        )
        # f0 started cold unless state continues the history
        cold = not self._continues(state.t)
        self._keep(self._first, len(_PREDICTOR_WEIGHTS), state.t, f0.pressure, cold)
        first = [q for _, q in self._first]
        start = _combine(_PREDICTOR_WEIGHTS[len(first) - 1], first) if first else None
        f1 = self._force(star, start)
        f1h = f1.f.band
        self._keep(
            self._star, len(_FIRST_STAGE_WEIGHTS), star.t, f1.pressure, start is None
        )

        y_new = py + prop.y_f0 * f0h + prop.k1 * f1h
        yt_new = pyt + prop.yt_f0 * f0h + prop.yt_f1 * f1h
        if not (np.isfinite(np.abs(y_new).max()) and np.isfinite(np.abs(yt_new).max())):
            raise FloatingPointError("non-finite spectral coefficients after step")
        return FlowState(
            VectorField.from_band(grid, y_new),
            VectorField.from_band(grid, yt_new),
            state.t + dt,
        )

    def step_linear(self, state: FlowState) -> FlowState:
        """Propagate with the forcing forced to zero (linear system)."""
        y, yt = self.propagator.apply(*_bands(state))
        return FlowState(
            VectorField.from_band(self.grid, y),
            VectorField.from_band(self.grid, yt),
            state.t + self.dt,
        )


# -- Eulerian reference solver -------------------------------------------------


@dataclass
class EulerState:
    """Primitive variables on the grid; p is zero-mean and diagnostic."""

    u: VectorField
    b: VectorField
    t: float = 0.0
    p: Optional[ScalarField] = None

    def __post_init__(self):
        self.u.check_same_grid(self.b)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @classmethod
    def equilibrium(cls, grid: Grid, t: float = 0.0) -> "EulerState":
        """u = 0 and b = e1, built as a band (1 on the mean mode of b^1), so
        it is exact whatever the transforms round."""
        b = np.zeros((grid.dim,) + grid.band_shape, dtype=complex)
        b[(0,) * (grid.dim + 1)] = 1.0
        return cls(VectorField.zeros(grid), VectorField.from_band(grid, b), t)


def _magnetic_filter(grid: Grid, exponent: int = 36):
    """High-order exponential filter pinned to the 2/3-mask boundary.

    exp(-36 r^36) with r the per-axis-normalized mode fraction: ~1 up to
    two thirds of the retained band, machine-zero at the boundary. Stands in
    for the missing resistivity of the induction equation. Built on the band.
    """
    r = np.zeros(grid.band_shape)
    for i, n in enumerate(grid.sizes):
        ncut = int(np.ceil(n / 3.0)) - 1
        frac = np.abs(np.fft.fftfreq(n) * n)[: grid.band_shape[i]] / max(ncut, 1)
        r = np.maximum(r, frac.reshape([-1 if j == i else 1 for j in range(grid.dim)]))
    return np.exp(-36.0 * np.minimum(r, 1.0) ** exponent)


class EulerianStepper:
    """Integrating-factor Heun scheme for the primitive system.

    Viscosity is treated exactly per mode; advection and the Lorentz force are
    dealiased pseudo-spectral products under Leray projection; the magnetic
    field advances in the conservative curl(u x b) form so its divergence stays
    zero to round-off, with a spectral filter replacing the absent diffusion.
    The state and every spectrum live on the band: data that starts inside
    the 2/3 mask stays there.
    """

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
        self.heat = np.exp(-grid.k2 * dt)
        self.filter = _magnetic_filter(grid)

    def _rhs(self, u_band, b_band):
        grid = self.grid
        u = grid.irfft(u_band)
        b = grid.irfft(b_band)
        grad_u = gradient_values(u_band, grid)
        grad_b = gradient_values(b_band, grid)
        conv = np.einsum("j...,ij...->i...", u, grad_u) - np.einsum(
            "j...,ij...->i...", b, grad_b
        )
        n_band = dealias_spec(grid.rfft(conv), grid)
        rhs_u = -(n_band - riesz_apply_spec(n_band, grid))
        k = grid.k_axes
        if grid.dim == 2:
            w = u[0] * b[1] - u[1] * b[0]
            w_band = dealias_spec(grid.rfft(w), grid)
            h_band = np.stack([1j * k[1] * w_band, -1j * k[0] * w_band])
        else:
            w = np.cross(u, b, axis=0)
            w_band = dealias_spec(grid.rfft(w), grid)
            h_band = np.stack(
                [
                    1j * (k[1] * w_band[2] - k[2] * w_band[1]),
                    1j * (k[2] * w_band[0] - k[0] * w_band[2]),
                    1j * (k[0] * w_band[1] - k[1] * w_band[0]),
                ]
            )
        return rhs_u, h_band, n_band

    def pressure_of(self, state: EulerState) -> ScalarField:
        """Zero-mean pressure recovered from the instantaneous Leray constraint."""
        grid = self.grid
        _, _, n_band = self._rhs(state.u.band, state.b.band)
        p_band = divergence_spec(n_band, grid)
        p_band *= grid.inv_k2
        return ScalarField.from_band(self.grid, p_band)

    def step(self, state: EulerState) -> EulerState:
        grid, dt = self.grid, self.dt
        u0, b0 = state.u.band, state.b.band
        ru0, h0, _ = self._rhs(u0, b0)
        u_star = self.heat * (u0 + dt * ru0)
        b_star = b0 + dt * h0
        ru1, h1, _ = self._rhs(u_star, b_star)
        u_new = self.heat * u0 + 0.5 * dt * (self.heat * ru0 + ru1)
        b_new = (b0 + 0.5 * dt * (h0 + h1)) * self.filter
        if not np.isfinite(np.abs(u_new).max()):
            raise FloatingPointError("non-finite Eulerian state after step")
        return EulerState(
            VectorField.from_band(grid, u_new),
            VectorField.from_band(grid, b_new),
            state.t + dt,
        )

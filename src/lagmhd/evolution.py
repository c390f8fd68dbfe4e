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

import contextlib
import itertools
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields import VectorField
from .geometry import FlowState, check_bands, cofactor_times, cofactor_values
# graded_metric_values is not called here; perfbench/layers.py times it by this name
from .geometry import graded_metric_values  # noqa: F401
from .grid import ForceWorkspace, Grid
from .pressure import PICARD_ABS_TOL, PICARD_REL_TOL, PressureSolution
from .pressure import _tensor_rhs_spec, solve_pressure_spec
from . import spectral
from .spectral import _k_contract, divergence_finish, divergence_start, gradient_values
from .spectral import riesz_apply_spec, weighted_norm_sq
# dealias_spec is not called here; perfbench/layers.py times it by this name
from .spectral import dealias_spec  # noqa: F401

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


def _exprel(z, cut, c, closed):
    """c[0] + z/c[1] + z^2/c[2] + z^3/c[3] where |z| <= cut, and elsewhere
    closed(z, z_safe), with z_safe = z there and 1 where the series holds."""
    small = np.abs(z) <= cut
    zs = np.where(small, z, 0.0)
    series = c[0] + zs / c[1] + zs * zs / c[2] + zs**3 / c[3]
    z_safe = np.where(small, 1.0, z)
    return np.where(small, series, closed(z, z_safe))


# (e^z - 1)/z and (e^z - 1 - z)/z^2, and their derivatives in z
_exprel1 = partial(
    _exprel, cut=1e-4, c=(1.0, 2.0, 6.0, 24.0),
    closed=lambda z, s: (np.exp(z) - 1.0) / s,
)
_exprel1_prime = partial(
    _exprel, cut=1e-2, c=(0.5, 3.0, 8.0, 30.0),
    closed=lambda z, s: (np.exp(z) * (z - 1.0) + 1.0) / s**2,
)
_exprel2 = partial(
    _exprel, cut=1e-4, c=(0.5, 6.0, 24.0, 120.0),
    closed=lambda z, s: (np.exp(z) - 1.0 - z) / s**2,
)
_exprel2_prime = partial(
    _exprel, cut=1e-2, c=(1.0 / 6.0, 12.0, 40.0, 180.0),
    closed=lambda z, s: (np.exp(z) * (z - 2.0) + z + 2.0) / s**3,
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
    roots and the stepping blocks; ``apply`` acts on bands. The blocks are
    elementwise in (|k|^2, k1^2), which is even in every leading wavenumber,
    so they are evaluated on n_i in {0, ..., c_i}, the first c_i + 1 modes
    of each leading axis of the band, and gathered through |n_i|
    (``grid.modes``); k(-n) = -k(n) holds exactly, so that is the
    evaluation on the whole band bit for bit.
    """

    grid: Grid
    dt: float

    def __post_init__(self):
        grid, dt = self.grid, self.dt
        if dt <= 0:
            raise ValueError("dt must be positive")
        lead = grid.modes[:-1]
        half = tuple(slice(0, len(n) // 2 + 1) for n in lead)
        a = grid.k2[half]
        b = np.broadcast_to(grid.k1sq[half[:1]], a.shape)
        lp, lm = roots = characteristic_roots(a, b)
        if lp.real.max() > 1e-13 or lm.real.max() > 1e-13:
            raise AssertionError("unstable characteristic root on the lattice")

        fold = np.ix_(*(np.abs(n) for n in lead), grid.modes[-1])
        phi0, phi1, dphi1 = (e[fold] for e in _phi_entries(a, b, dt, roots))
        i0, k1 = (e[fold] for e in _integral_entries(a, b, dt, roots))
        # corrector weights: Y gains y_f0 f0 + k1 f1, Yt gains yt_f0 f0 + yt_f1 f1;
        # every block complex, x + 0j, as numpy casts it for a product with a band
        (
            self.phi0, self.phi1, self.dphi0, self.dphi1, self.i0, self.k1,
            self.y_f0, self.yt_f0, self.yt_f1,
        ) = (
            block.astype(complex)
            for block in (
                phi0, phi1, -grid.k1sq * phi1, dphi1, i0, k1,
                i0 - k1, phi1 - i0 / dt, i0 / dt,
            )
        )

    def apply(self, y_band, yt_band, tmp=None):
        """Fresh (phi0 y + phi1 yt, dphi0 y + dphi1 yt); ``tmp`` takes phi1 yt."""
        y = self.phi0 * y_band
        y += np.multiply(self.phi1, yt_band, out=tmp)
        yt = self.dphi0 * y_band
        yt += np.multiply(self.dphi1, yt_band, out=tmp)
        return y, yt


# -- nonlinear force ---------------------------------------------------------


@dataclass
class NonlinearForce:
    """Forcing f of the displacement equation with the pieces it was built from.

    f = div((A^T A - I) grad Yt) - A grad_p, the viscous flux less the
    pressure force, is a band field of its own; ``pressure`` is the
    ``PressureSolution`` of the solve, passed through as returned, so
    grad_p is a band. f is the last ``VectorField`` of the package, for
    perfbench's scaled-force gate (see ``fields``). f's band, grad_p, the
    potential, b_values (B = A - I), grad_y and grad_yt are arrays of the
    ``ForceWorkspace`` the force was computed in: a force of a
    ``LagrangianStepper`` holds them until that stepper's next force.
    """

    f: VectorField
    pressure: PressureSolution
    b_values: np.ndarray
    grad_y: np.ndarray
    grad_yt: np.ndarray


# the helper thread of this process, (pid, task queue), started by the
# first force that runs a task on it, under the lock: a forked child starts
# its own
_helper = None
_helper_lock = threading.Lock()


def _usable_cpus() -> int:
    """The CPUs this process may run on, all of the machine's where the
    system cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(tasks):
    """The helper thread's loop: run each task, drop it, then put the
    exception it raised, or None, on the queue that came with it. A task
    held until the next one would keep its arrays, a workspace's, alive
    past the run that made them."""
    while True:
        task, done = tasks.get()
        error = None
        try:
            task()
        except BaseException as exc:  # raised again by the thread that waits
            error = exc
        del task
        done.put(error)


def _after(first, formed, task):
    """Run first, put the exception it raised, or None, on formed, then run
    task unless first raised."""
    try:
        first()
    except BaseException as exc:
        formed.put(exc)
        raise
    formed.put(None)
    task()


@contextlib.contextmanager
def _alongside(task, threaded, first=None):
    """Run task beside the block: on the helper thread when threaded, which
    the block's exit waits for, finally, before an exception of the block
    propagates; otherwise after the block, which runs the stages in
    sequence. An exception of the task is raised at the exit.

    ``first`` is a task whose output the block reads after calling the
    function the block is given. Threaded, the helper runs first ahead of
    task, and that call waits for first and raises its exception, in which
    case task does not run and the exit raises the same; otherwise first
    runs ahead of the block and the call returns at once."""
    if not threaded:
        if first is not None:
            first()
        yield lambda: None
        task()
        return
    import queue

    global _helper
    with _helper_lock:
        if _helper is None or _helper[0] != os.getpid():
            tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(tasks,), name="lagmhd-force", daemon=True).start()
            _helper = (os.getpid(), tasks)
        tasks = _helper[1]
    formed, done = queue.SimpleQueue(), queue.SimpleQueue()
    if first is None:
        formed.put(None)
    else:
        task = partial(_after, first, formed, task)

    def ready():
        error = formed.get()
        if error is not None:
            raise error

    tasks.put((task, done))
    try:
        yield ready
    finally:
        error = done.get()
    if error is not None:
        raise error


def _metric_defect(b, out):
    """D = B^T B + B + B^T into out, B^T B on its entries i <= j."""
    for i, j in itertools.combinations_with_replacement(range(len(b)), 2):
        np.einsum("m...,m...->...", b[:, i], b[:, j], out=out[i, j])
        out[j, i] = out[i, j]  # numpy skips the copy for i == j
    out += b
    out += np.swapaxes(b, 0, 1)
    return out


def _viscous_planes(grid, defect, grad_yt, rows, slots, pad, start):
    """The last-axis planes of the viscous flux D grad Yt in slots, the
    flux formed in blocks of len(rows) rows into rows (pad for numpy's
    r2c), then, with start, ``divergence_start`` of them."""
    for i in range(0, grid.dim, len(rows)):
        block = slice(i, i + len(rows))
        flux = np.einsum("jm...,im...->ij...", defect, grad_yt[block], out=rows)
        grid.last_forward(flux, out=slots[block], pad=pad)
    return divergence_start(slots, grid) if start else slots


def compute_force(
    state: FlowState, pressure_tol: float = PICARD_ABS_TOL, q0=None, work=None
) -> NonlinearForce:
    """Assemble f = div(D grad Yt) - A grad_p with dealiased products, D = A^T A - I.

    The cofactor is held as B = A - I = B1 + B2 alone: D is B^T B + B + B^T,
    the same algebra as the sum of the graded pieces G_d, B^T B on its
    entries i <= j, and each product with A adds I where it reads A
    (``cofactor_times``), so small deformations do not cancel. The same D
    drives the pressure fixed point. It reads the state's bands of Y and
    Yt, every spectrum in between lives on the band, and f and grad_p are
    returned on the band. grad Yt comes with the samples of Yt into the
    workspace's ``vec[0]``, and the pair [d1 Y, Yt] of the pressure
    right-hand side is read where it lies, d1 Y in ``grad_y[:, 0]``: it may
    live anywhere but ``za`` and ``vec[1:]``.

    The force runs in three phases. (1) The gradient of Yt, beside the
    gradient of Y and the cofactor. (2) D, then the viscous stages (the
    flux D grad Yt, its last-axis planes and their ``divergence_start``),
    beside the pressure right-hand side, then the solve, which waits for D
    alone, and A grad_p. (3) f, the band of div(D grad Yt) - A grad_p, is
    ``divergence_finish`` of the flux's planes less A grad_p. On a
    workspace with the helper's arrays (``grid.OVERLAP_MIN_POINTS``) in a
    process with at least 2 usable CPUs, the first stages of phases 1 and 2
    run on a helper thread: the gradient of Yt with its slots in
    ``flux_slots``, the flux row by row into ``flux_row`` and its planes
    in ``flux_slots``. Past ``MATMUL_MAX_LAST`` the gradient of Y runs its
    c2r through the plane rows ``pad[:d]``, and the helper its c2r's and
    r2c's through its own row ``pad[-1:]``, one vector row at a time.
    Otherwise the stages run in sequence: the gradient
    of Yt after the cofactor, its slots in ``mat_band``; D ahead of the
    right-hand side; the flux, into ``za`` and its planes in ``mat_band``,
    after A grad_p, and f takes the calls of ``divergence_band``. Either
    way the right-hand side forms Z A whole in ``za``. Every line of
    every transform gets the same call on both paths, so the force has the
    same bits. The helper calls numpy, ``Grid`` methods and
    ``spectral.gradient_values`` only, no name that perfbench's tracer
    rebinds (its spans keep one stack per process), and the force waits for
    it before it returns or raises; an exception of D is raised as itself,
    before the solve.

    The band holds no mode on the Nyquist hyperplanes of the leading axes,
    where an odd multiplier leaves a real field's spectrum non-Hermitian and
    a band could not hold what the full spectrum does.

    q0, a pressure potential band, is where the Picard solve starts
    (``solve_pressure_spec``); without it the solve starts cold, and the
    force depends on the state alone. The solve stops at the residual
    pressure_tol, by default the floor ``PICARD_ABS_TOL``; a stepper passes
    its per-solve value.

    Every intermediate goes into ``work``, a ``ForceWorkspace`` of the grid;
    without one the force builds a fresh one and is pure. Every array it
    returns is the workspace's: f is ``vec_band[0]`` and grad_p ``vec_band[1]``.
    """
    grid = state.grid
    if work is None:
        work = ForceWorkspace(grid)
    threaded = hasattr(work, "flux_row") and _usable_cpus() >= 2
    if threaded:
        viscous = work.flux_row, work.flux_slots, work.pad[-1:]
    else:
        viscous = work.za, work.mat_band, work.pad[: grid.dim]
    grad_yt, yt, defect = work.grad_yt, work.vec[0], work.defect
    task = partial(
        spectral.gradient_values, state.Yt, grid, out=grad_yt, values=yt, slots=viscous[1],
        pad=viscous[2],
    )
    with _alongside(task, threaded):
        grad_y = gradient_values(
            state.Y, grid, out=work.grad_y, slots=work.mat_band, pad=work.pad[: grid.dim]
        )
        b = cofactor_values(grad_y, out=work.b, scratch=work.za[0])

    task = partial(_viscous_planes, grid, defect, grad_yt, *viscous, start=threaded)
    with _alongside(task, threaded, first=partial(_metric_defect, b, defect)) as formed:
        # the pair [d1 Y, Yt] read in place
        rhs_band = _tensor_rhs_spec(
            grid, b, (grad_y[:, 0], yt), out=work.vec_band[0], work=work
        )
        formed()
        pressure = solve_pressure_spec(
            grid, defect, rhs_band, pressure_tol, q0=q0, work=work
        )
        gp_real = grid.irfft(pressure.grad_p, out=work.vec[0], pad=work.pad[0])
        a_gp = cofactor_times(b, gp_real, work.vec[1])
    f_band = divergence_finish(
        viscous[1], grid, out=work.vec_band[0], pad=work.pad, minus=a_gp, started=threaded
    )

    return NonlinearForce(
        f=VectorField(grid, f_band),
        pressure=pressure,
        b_values=b,
        grad_y=grad_y,
        grad_yt=grad_yt,
    )


# -- Lagrangian stepper ------------------------------------------------------

# weights of the pressure starts by the history held (see LagrangianStepper):
# _EXTRAPOLATION[m - 1] extrapolates m potentials at consecutive times,
# newest first, one step on; _FIRST_STAGE_WEIGHTS[k], with k offsets held,
# act on (q*_{n+1}, q0_n, q*_n, q0_{n-1}, q*_{n-1}, q0_{n-2}, q*_{n-2}):
# q*_{n+1} plus the extrapolated offsets d_m = q0_m - q*_m, (1, e1, -e1,
# e2, -e2, ...) with e = _EXTRAPOLATION[k - 1]
_EXTRAPOLATION = (
    (1.0,),
    (2.0, -1.0),
    (3.0, -3.0, 1.0),
    (4.0, -6.0, 4.0, -1.0),
    (5.0, -10.0, 10.0, -5.0, 1.0),
    (6.0, -15.0, 20.0, -15.0, 6.0, -1.0),
)
_FIRST_STAGE_WEIGHTS = tuple(  # offsets extrapolated up to the quadratic
    (1.0,) + tuple(w for e in weights for w in (e, -e))
    for weights in ((),) + _EXTRAPOLATION[:3]
)
_FIRST_HELD = 4  # first-stage potentials: the cubic predictor start of a young history
_STAR_HELD = len(_EXTRAPOLATION)  # predictor potentials
_STAR_MIN = 4  # predictor potentials the predictor start needs of its own


def _combine(weights, potentials, work):
    """sum_i weights[i] * potentials[i] into work.q[0], work.q[3] the scratch."""
    start = np.multiply(weights[0], potentials[0], out=work.q[0])
    for w, q in zip(weights[1:], potentials[1:]):
        start += np.multiply(w, q, out=work.q[3])
    return start


class LagrangianStepper:
    """Exponential predictor-corrector for the displacement system.

    The linear part is advanced by the exact per-mode blocks; the forcing is
    interpolated linearly across the step (Duhamel weights I0, K1), which is
    second order in dt and preserves the equilibrium exactly.

    Each pressure solve starts from an extrapolation of the stepper's recent
    potentials (Fischer, CMAME 163, 1998): q0_m of the first-stage solve and
    q*_m of the predictor solve at t_m. The predictor state lies off the
    trajectory by the predictor's O(dt^2) local error, so the first-stage
    potentials extrapolate poorly to it; its own do well. Once at least
    four predictor potentials are held, the predictor solve at t_{n+1}
    starts from the polynomial extrapolation of the last m <= 6 of them,
    6 q*_n - 15 q*_{n-1} + 20 q*_{n-2} - 15 q*_{n-3} + 6 q*_{n-4} - q*_{n-5}
    for m = 6; with fewer, from 4 q0_n - 6 q0_{n-1} + 4 q0_{n-2} - q0_{n-3},
    or the quadratic, linear or constant extrapolation when fewer
    first-stage potentials are held. The first-stage solve at t_{n+1}
    starts from q*_{n+1}, at the same time, plus the extrapolated corrector
    offset 3 d_n - 3 d_{n-1} + d_{n-2}, d_m = q0_m - q*_m; with less
    history, plus 2 d_n - d_{n-1}, d_n or nothing. So the stepper holds 10
    potential bands, the last four first-stage and the last six predictor
    solves, each with the time of its solve, and a fresh history takes six
    steps to fill. Solves are paired by those stored times, never by t - dt:
    a state continues the history when its time is that of the last
    predictor solve, and otherwise starts it afresh from a cold solve, so
    the predictor potentials held are those of consecutive steps.

    Stopping rule: a solve stops at the residual max(PICARD_ABS_TOL,
    PICARD_REL_TOL |grad p|), with |grad p| the L2 norm of the grad_p of the
    stepper's previous solve, the norm the residual |k dq| is measured in;
    both are constants of ``pressure.py``. So the accuracy of the solve is
    relative to the pressure it solves for, and the floor binds on weak
    data. A state that does not continue the history has no previous solve:
    its force stops at the floor alone.

    Reset rule: a solve that started cold and took a single iteration
    clears the history, so the next one starts cold too. One iteration
    cannot get cheaper, and where a single step meets the stopping rule its
    result depends on its start, so on one-iteration data every solve starts
    cold. A warm solve that takes one iteration keeps the history.

    One stepper serves one run: a run on a stepper that another run used
    may start its solves elsewhere, and a fresh stepper on a mid-run state
    starts cold with the floor alone; either output differs from the
    uninterrupted run by up to the tolerance.

    Every force of the stepper is computed in one ``ForceWorkspace``, built
    from the grid at the first force, so a warm step allocates only the
    state it returns. The arrays of a force are that workspace's: they hold
    until the stepper's next force, the predictor force of the next ``step``
    included, so read them before stepping. Between its forces a step works
    in the workspace's bands; the history copies potentials into its own.
    """

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
        self.propagator = LinearPropagator(grid, dt)
        # built at the first force: the set-up of a run (initial data,
        # tables) then reuses the memory the last run freed before the
        # workspace takes its share, and does not fault in fresh pages
        self._work = None
        # (t, potential) of the last first-stage and predictor solves,
        # newest first
        self._first = []
        self._star = []
        # |grad p| of the last solve, None when the next force starts afresh
        self._grad_p_norm = None

    def _force(self, state: FlowState, q0) -> NonlinearForce:
        work = self._work = self._work or ForceWorkspace(self.grid)
        tol = PICARD_ABS_TOL
        if self._grad_p_norm is not None:
            tol = max(tol, PICARD_REL_TOL * self._grad_p_norm)
        force = compute_force(state, pressure_tol=tol, q0=q0, work=work)
        grid, gp, out = self.grid, force.pressure.grad_p, work.vec_band[2]
        self._grad_p_norm = np.sqrt(weighted_norm_sq(gp, grid.multiplicity, grid, out))
        return force

    def _continues(self, t) -> bool:
        """Whether a state at t continues the history: its time is the
        stored time of the last predictor solve."""
        return bool(self._star) and self._star[0][0] == t

    def force(self, state: FlowState) -> NonlinearForce:
        """The first-stage force at state.t, started from the predictor
        solve at that time plus the extrapolated corrector offset."""
        if not self._continues(state.t):
            self._grad_p_norm = None
            return self._force(state, None)
        potentials = [self._star[0][1]]
        pairs = zip(self._first[: len(_FIRST_STAGE_WEIGHTS) - 1], self._star[1:])
        for (t_first, q_first), (t_star, q_star) in pairs:
            if t_first != t_star:
                break
            potentials += [q_first, q_star]
        weights = _FIRST_STAGE_WEIGHTS[len(potentials) // 2]
        return self._force(state, _combine(weights, potentials, self._work))

    def _keep(self, history, size, t, pressure, cold):
        """Put a copy of a solve's potential at the head of history, in the
        band it drops once full. A cold solve starts the history afresh, and
        leaves it empty when it took a single iteration (the reset rule)."""
        if cold:
            self._first.clear()
            self._star.clear()
            if pressure.iterations <= 1:
                return
        q = history.pop()[1] if len(history) == size else np.empty_like(pressure.potential)
        np.copyto(q, pressure.potential)
        history.insert(0, (t, q))

    def step(self, state: FlowState, force: NonlinearForce = None) -> FlowState:
        """Advance one dt; force, when given, is self.force(state).

        Works on the state's bands. The predictor state py + i0 f0 goes into
        the workspace's ``y_band`` and ``yt_band``, and (py + y_f0 f0) + k1
        f1 into the bands of the state returned, the f0 terms before f1
        takes f0's band in the workspace.
        """
        grid, dt, prop = self.grid, self.dt, self.propagator
        f0 = force if force is not None else self.force(state)
        f0h = f0.f.band
        work = self._work = self._work or ForceWorkspace(grid)
        tmp = work.vec_band[2]
        # into the state the step returns
        y_new, yt_new = prop.apply(state.Y, state.Yt, tmp)
        y_star = np.multiply(prop.i0, f0h, out=work.y_band)
        y_star += y_new
        yt_star = np.multiply(prop.phi1, f0h, out=work.yt_band)
        yt_star += yt_new
        y_new += np.multiply(prop.y_f0, f0h, out=tmp)
        yt_new += np.multiply(prop.yt_f0, f0h, out=tmp)
        star = FlowState(grid, y_star, yt_star, state.t + dt)
        # f0 started cold unless state continues the history
        cold = not self._continues(state.t)
        self._keep(self._first, _FIRST_HELD, state.t, f0.pressure, cold)
        history = self._star if len(self._star) >= _STAR_MIN else self._first
        held = [q for _, q in history]
        start = _combine(_EXTRAPOLATION[len(held) - 1], held, work) if held else None
        f1 = self._force(star, start)
        f1h = f1.f.band
        self._keep(self._star, _STAR_HELD, star.t, f1.pressure, start is None)

        y_new += np.multiply(prop.k1, f1h, out=tmp)
        yt_new += np.multiply(prop.yt_f1, f1h, out=tmp)
        if not (np.isfinite(y_new).all() and np.isfinite(yt_new).all()):
            raise FloatingPointError("non-finite spectral coefficients after step")
        return FlowState(grid, y_new, yt_new, state.t + dt)

    def step_linear(self, state: FlowState) -> FlowState:
        """Propagate with the forcing forced to zero (linear system)."""
        y, yt = self.propagator.apply(state.Y, state.Yt)
        return FlowState(self.grid, y, yt, state.t + self.dt)


# -- Eulerian reference solver -------------------------------------------------


@dataclass
class EulerState:
    """Primitive variables at time t: the bands of the velocity u and the
    magnetic field b, complex (d, *grid.band_shape) arrays, immutable by the
    rule of ``FlowState``."""

    grid: Grid
    u: np.ndarray
    b: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        check_bands(self, ("u", "b"))

    @classmethod
    def equilibrium(cls, grid: Grid) -> "EulerState":
        """u = 0 and b = e1, built as bands (1 on the mean mode of b^1), so
        it is exact whatever the transforms round."""
        u = np.zeros((grid.dim,) + grid.band_shape, dtype=complex)
        b = np.zeros((grid.dim,) + grid.band_shape, dtype=complex)
        b[(0,) * (grid.dim + 1)] = 1.0
        return cls(grid, u, b)


class EulerianStepper:
    """Integrating-factor Heun scheme for the primitive system.

    Viscosity is treated exactly per mode; the magnetic field advances in the
    conservative curl(u x b) form so its divergence stays zero to round-off,
    and takes no dissipation beyond the system's own: the system is
    non-resistive, and b decays only through its coupling to u under the
    mean field. The state and every spectrum live on the band, the modes the
    2/3 mask keeps, and the rfft of every product lands there.

    The momentum nonlinearity is taken in stress form, n = div(u u^T - b b^T),
    under Leray projection (Zang, Appl. Numer. Math. 7, 1991). For solenoidal
    fields it equals the advective form u.grad u - b.grad b:
    d_j(u_i u_j) = u_j d_j u_i + u_i div u. Both forms take a dealiased
    product of band-limited fields, which the 2/3 mask makes exact on the
    retained modes, so they agree there to round-off. The mean field B0 of b
    is split off, b = B0 + b': the stress is formed from b' and the linear
    term B0.grad b' is applied on the band, so the transforms never carry
    the constant B0 B0^T and the equilibrium b = e1 stays exact.

    A right-hand side then takes two transform calls: one inverse of the
    stacked (u, b') band (2d components) and one forward of the d(d+1)/2
    distinct stress entries stacked with the d(d-1)/2 entries
    E_ij = u_i b_j - u_j b_i, i < j, of u x b (9 components in 3D, 4 in
    2D). One loop over those entries forms curl(u x b)_i = sum_j ik_j E_ij
    in either dimension. Every array a right-hand side and a step write is
    allocated once, in ``__init__``; a step allocates only the bands of the
    state it returns. A product of a band-shaped table or field with a (d,)
    band or stack of samples runs per component or per stress entry: numpy
    would buffer the operand it broadcasts.
    """

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
        # complex, x + 0j, as numpy casts it for a product with a band
        self.heat = np.exp(-grid.k2 * dt).astype(complex)
        d, band = grid.dim, grid.band_shape
        # row of stress entry (i, j) in the forward transform: the i <= j
        # entries in row order, then the entries E_ij = u_i b_j - u_j b_i,
        # i < j, of u x b
        self._entry = np.zeros((d, d), dtype=int)
        pairs = itertools.combinations_with_replacement(range(d), 2)
        for e, (i, j) in enumerate(pairs):
            self._entry[i, j] = self._entry[j, i] = e
        self._nstress = d * (d + 1) // 2
        self._pairs = tuple(itertools.combinations(range(d), 2))
        nprod = self._nstress + len(self._pairs)
        self._mean = (slice(None),) + (0,) * d  # the mean mode of a vector band
        self._ub_band = np.empty((2 * d,) + band, dtype=complex)
        self._ub = np.empty((2 * d,) + grid.shape)
        self._tmp = np.empty(grid.shape)
        self._prod = np.empty((nprod,) + grid.shape)
        self._prod_band = np.empty((nprod,) + band, dtype=complex)
        self._band_tmp = np.empty(band, dtype=complex)
        self._pad = np.empty((max(2 * d, nprod),) + grid.pad_shape, dtype=complex)
        # (rhs_u, h) of the two stages of a step, the nonlinearity n they
        # share, and the predictor state
        self._stages = tuple(
            tuple(np.empty((d,) + band, dtype=complex) for _ in range(2))
            for _ in range(2)
        )
        self._n = np.empty((d,) + band, dtype=complex)
        self._u_star = np.empty((d,) + band, dtype=complex)
        self._b_star = np.empty((d,) + band, dtype=complex)

    def _rhs(self, u_band, b_band, out=None):
        """(rhs_u, h): the projected momentum right-hand side and the
        induction term curl(u x b), bands of the bands u and b. They are
        written into ``out``, two (d,) bands, by default the first stage's
        buffers, which the next call overwrites."""
        grid, d, ik, tmp = self.grid, self.grid.dim, self.grid.ik, self._band_tmp
        rhs_u, h = self._stages[0] if out is None else out
        n = self._n
        ub_band = self._ub_band
        ub_band[:d] = u_band
        ub_band[d:] = b_band
        b_mean = b_band[self._mean].real
        ub_band[d:][self._mean] = 0.0
        ub = grid.irfft(ub_band, out=self._ub, pad=self._pad[: 2 * d])
        u, b = ub[:d], ub[d:]

        # stress u_i u_j - b'_i b'_j for j >= i, then E_ij with b = B0 + b'
        prod, w = self._prod, self._tmp
        for i, j in itertools.combinations_with_replacement(range(d), 2):
            entry = prod[self._entry[i, j]]
            np.multiply(u[i], u[j], out=entry)
            entry -= np.multiply(b[i], b[j], out=w)
        for i in range(d):
            b[i] += b_mean[i]
        for entry, (i, j) in zip(prod[self._nstress :], self._pairs):
            np.multiply(u[i], b[j], out=entry)
            entry -= np.multiply(u[j], b[i], out=w)
        prod_band = grid.rfft(prod, out=self._prod_band, pad=self._pad[: len(prod)])
        stress, cross = prod_band[: self._nstress], prod_band[self._nstress :]

        # n_i = sum_j i k_j T_ij - i (k . B0) b_i; rhs_u[0] is free until
        # (k . B0) b is formed
        for i in range(d):
            _k_contract([stress[e] for e in self._entry[i]], ik, out=n[i], tmp=tmp)
        _k_contract(b_mean, ik, out=tmp, tmp=rhs_u[0])
        for i in range(d):
            n[i] -= np.multiply(tmp, b_band[i], out=rhs_u[i])
        riesz_apply_spec(n, grid, out=rhs_u)
        rhs_u -= n

        # curl(u x b)_i = sum_j ik_j E_ij, E antisymmetric
        h[...] = 0.0
        for e_band, (i, j) in zip(cross, self._pairs):
            h[i] += np.multiply(ik[j], e_band, out=tmp)
            h[j] -= np.multiply(ik[i], e_band, out=tmp)
        return rhs_u, h

    def step(self, state: EulerState) -> EulerState:
        """Advance one dt. Raises FloatingPointError, and returns no state,
        when u or b has a non-finite coefficient after the step."""
        grid, dt, heat = self.grid, self.dt, self.heat
        u0, b0 = state.u, state.b
        ru0, h0 = self._rhs(u0, b0, self._stages[0])
        u_star = np.multiply(ru0, dt, out=self._u_star)
        u_star += u0
        for u_i in u_star:
            u_i *= heat
        b_star = np.multiply(h0, dt, out=self._b_star)
        b_star += b0
        ru1, h1 = self._rhs(u_star, b_star, self._stages[1])
        for ru_i in ru0:
            ru_i *= heat
        ru0 += ru1
        ru0 *= 0.5 * dt
        u_new = np.empty_like(u0)
        for u_i, u0_i in zip(u_new, u0):
            np.multiply(heat, u0_i, out=u_i)
        u_new += ru0
        h0 += h1
        h0 *= 0.5 * dt
        b_new = b0 + h0
        if not (np.isfinite(u_new).all() and np.isfinite(b_new).all()):
            raise FloatingPointError("non-finite Eulerian state after step")
        return EulerState(grid, u_new, b_new, state.t + dt)

"""Initial data synthesis: mode lists -> admissible small Lagrangian states.

The displacement is built as a composition of two transversal shears, which is
volume preserving exactly (not just to leading order); the initial velocity is
(I + grad Y0) v with v solenoidal, which makes the velocity compatible with
the volume constraint exactly, so the measured determinant drift of a run is
pure integrator error. Both pieces are rescaled together to put the data
smallness functional exactly at the requested epsilon0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .energy import EnergyEvaluator
from .errors import ConfigError, NotConvergedError
from .evolution import EulerState
from .geometry import FlowState, make_trig_evaluator
from .grid import Grid
from .spectral import gradient_values, riesz_apply_spec


@dataclass(frozen=True)
class ShearMode:
    """One cosine mode of a shear profile over two coordinates (one in 2D)."""

    n: tuple
    amp: float
    phase: float = 0.0


@dataclass(frozen=True)
class VelocityMode:
    """One cosine mode of the pre-projection velocity field."""

    n: tuple
    axis: int
    amp: float
    phase: float = 0.0


@dataclass(frozen=True)
class InitialDataSpec:
    shear_a: tuple = ()  # displaces y2 by a(y1, y3); k1 content lives here
    shear_c: tuple = ()  # displaces y1 by c(y2, y3); transverse structure
    velocity: tuple = ()  # v modes, Leray-projected, then lifted by I + grad Y0
    epsilon0: float = None  # rescale target for the data smallness functional


def default_spec(dim: int, epsilon0: float = 1e-4) -> InitialDataSpec:
    """Slab-spectrum profile: a few slow k1 modes under a borderline envelope
    plus transverse heat-sector velocity content (fast, k1 = 0)."""
    if dim == 3:
        shear_a = tuple(
            ShearMode((n, 1), amp=n ** (-1.5), phase=0.4 * n)
            for n in range(1, 5)
        ) + tuple(
            ShearMode((n, -1), amp=0.6 * n ** (-1.5), phase=1.1 + 0.7 * n)
            for n in range(1, 4)
        )
        shear_c = (ShearMode((1, 1), amp=0.2, phase=0.3),)
        # heat-sector velocity content (k1 = 0) front-loads the sup-norm
        # integral so it converges visibly within desk-scale horizons
        velocity = (
            VelocityMode((0, 1, 0), axis=2, amp=2.0, phase=0.2),
            VelocityMode((0, 0, 1), axis=1, amp=1.6, phase=1.3),
            VelocityMode((1, 1, 0), axis=2, amp=0.6, phase=2.1),
        )
    else:
        shear_a = tuple(
            ShearMode((n,), amp=n ** (-1.5), phase=0.4 * n) for n in range(1, 5)
        )
        shear_c = (ShearMode((1,), amp=0.2, phase=0.3),)
        velocity = (
            VelocityMode((0, 1), axis=0, amp=2.0, phase=0.2),
            VelocityMode((1, 1), axis=1, amp=0.6, phase=2.1),
        )
    return InitialDataSpec(shear_a, shear_c, velocity, epsilon0)


def _phase(grid: Grid, n, coords, axes):
    """sum_i n_i (2 pi / L_axes[i]) coords[i], in the broadcast shape of coords."""
    phase = 0.0
    for n_i, c, ax in zip(n, coords, axes):
        phase = phase + n_i * (2.0 * np.pi / grid.lengths[ax]) * c
    return phase


def _shear_profile(grid: Grid, modes, axes, coords=None, scale=1.0):
    """scale times the sum of cosine modes over the given axes, at coords (one
    broadcastable array per axis). By default, the grid coordinates of the
    axes: the profile is on their plane and broadcasts over every other axis."""
    if coords is None:
        coords = [grid.coords[ax] for ax in axes]
    out = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in coords)))
    for m in modes:
        if len(m.n) != len(axes):
            raise ConfigError(f"shear mode {m.n} must index {len(axes)} profile axes")
        out += scale * m.amp * np.cos(_phase(grid, m.n, coords, axes) + m.phase)
    return out


def _solenoidal_velocity(grid: Grid, modes):
    """The Leray-projected velocity modes at unit scale; the projection is
    linear, so a build projects once and scales the result."""
    v = np.zeros((grid.dim,) + grid.shape)
    for m in modes:
        if len(m.n) != grid.dim:
            raise ConfigError(f"velocity mode {m.n} must have {grid.dim} indices")
        if not 0 <= m.axis < grid.dim:
            raise ConfigError(f"velocity mode axis {m.axis} out of range")
        phase = _phase(grid, m.n, grid.coords, range(grid.dim))
        v[m.axis] += m.amp * np.cos(phase + m.phase)
    band = grid.rfft(v)
    return grid.irfft(band - riesz_apply_spec(band, grid))


def build_flow_state(grid: Grid, spec: InitialDataSpec) -> FlowState:
    """Assemble (Y0, Y1), rescaled so the smallness functional hits epsilon0;
    what does not depend on the scale is evaluated once per build."""
    return _build_with_gradient(grid, spec)[0]


def _build_with_gradient(grid: Grid, spec: InitialDataSpec):
    """``build_flow_state`` and the samples of grad Y0 its last assembly
    formed, (d, d) + grid.shape, for the data check to read."""
    if spec.epsilon0 is not None and spec.epsilon0 <= 0:
        raise ConfigError("epsilon0 must be positive")
    d = grid.dim
    # Y0 = (c, scale * a[, 0]); the a-shear and the projected velocity are
    # linear in the scale, so their transforms are taken once per build
    a_profile = _shear_profile(grid, spec.shear_a, axes=(0, 2)[: d - 1])
    a_band = grid.rfft(np.broadcast_to(a_profile, (1,) + grid.shape))
    grad_a = gradient_values(a_band, grid)
    v_unit = _solenoidal_velocity(grid, spec.velocity)

    def assemble(scale: float) -> FlowState:
        # composition tails above the 2/3-mask ball are machine-small at these
        # amplitudes; rfft drops them, as every band holds the kept modes only
        # the y1 displacement c(y2 + a[, y3]), volume preserving with a
        c_coords = (grid.coords[1] + scale * a_profile,) + grid.coords[2:]
        c_vals = _shear_profile(grid, spec.shear_c, range(1, d), c_coords, scale)
        y0_band = np.zeros((d,) + grid.band_shape, dtype=complex)
        grid.rfft(c_vals[None], out=y0_band[:1])
        np.multiply(scale, a_band, out=y0_band[1:2])
        grad = np.zeros((d, d) + grid.shape)
        gradient_values(y0_band[:1], grid, out=grad[:1])
        np.multiply(scale, grad_a, out=grad[1:2])
        v = scale * v_unit
        y1_vals = v + np.einsum("im...,m...->i...", grad, v)
        y1_band = grid.rfft(y1_vals)
        return FlowState(grid, y0_band, y1_band, 0.0), grad

    built = assemble(1.0)
    if spec.epsilon0 is None:
        return built
    base = EnergyEvaluator.initial_norm(built[0])
    if base == 0.0:
        return built
    s = float(np.sqrt(spec.epsilon0 / base))
    for _ in range(8):
        built = assemble(s)
        norm = EnergyEvaluator.initial_norm(built[0])
        if abs(norm - spec.epsilon0) <= 1e-9 * spec.epsilon0:
            break
        s *= float(np.sqrt(spec.epsilon0 / norm))
    return built


INVERSE_MAP_TOL = 1e-13  # |delta| at which the inverse map is converged
INVERSE_MAP_MAX_ITER = 1000  # safety cap; a non-contracting map stalls first


def _invert_flow_map(y0_eval, x_pts):
    """The points y with x = y + Y0(y), by Picard iteration y <- x - Y0(y).

    y0_eval evaluates Y0 at (m, dim) points (``make_trig_evaluator``). Stops
    when the step |delta| falls below INVERSE_MAP_TOL, and raises
    NotConvergedError when |delta| fails to shrink for 3 consecutive
    iterations, the rule of the pressure solve, or at INVERSE_MAP_MAX_ITER.
    """
    y = x_pts.copy()
    residual = np.inf
    stalls = 0
    for _ in range(INVERSE_MAP_MAX_ITER):
        delta = x_pts - y0_eval(y).T - y
        y += delta
        previous, residual = residual, float(np.abs(delta).max())
        if residual < INVERSE_MAP_TOL:
            return y
        stalls = stalls + 1 if residual >= previous else 0
        if stalls >= 3:
            break
    raise NotConvergedError(
        f"inverse map x = y + Y0(y) stalled at |delta| = {residual:.3e} "
        f"(tol {INVERSE_MAP_TOL:.0e})",
        residual=residual,
    )


def euler_from_flow(state: FlowState) -> EulerState:
    """Pushforward initial data to the Eulerian grid.

    Inverts x = y + Y0(y) pointwise (``_invert_flow_map``), then samples
    u0 = Y1(y(x)) and b0 = e1 + d1Y0(y(x)). Sampling tails are cleaned up
    with one Leray projection each of u0 and d1Y0, so both start divergence
    free to round-off. b0 is built as a band: only d1Y0 is transformed. The
    mean modes, which no projection touches, are those of the exact
    pushforward: det(I + grad Y0) = 1 gives mean(u0) = mean(Y1), and d1Y0
    has no mean, so mean(b0) = e1, set on the mean mode of b0^1 exactly as
    in ``EulerState.equilibrium``. A zero displacement band maps to u0 = Y1:
    the returned u is the flow's Yt array itself. Raises NotConvergedError
    if the inversion stalls before |delta| < 1e-13.
    """
    grid = state.grid
    coords = np.stack(np.broadcast_arrays(*grid.coords))
    x_pts = np.moveaxis(coords, 0, -1).reshape(-1, grid.dim)
    if not state.Y.any():
        return EulerState(grid, state.Yt, EulerState.equilibrium(grid).b, state.t)

    y = _invert_flow_map(make_trig_evaluator(state.Y, grid), x_pts)
    y1_eval = make_trig_evaluator(state.Yt, grid)
    d1y_eval = make_trig_evaluator(state.Y * grid.ik[0], grid)
    u_vals = y1_eval(y).reshape((grid.dim,) + grid.shape)
    b_vals = d1y_eval(y).reshape((grid.dim,) + grid.shape)
    u_band, b_band = (
        s - riesz_apply_spec(s, grid) for s in (grid.rfft(u_vals), grid.rfft(b_vals))
    )
    mean = (slice(None),) + (0,) * grid.dim
    u_band[mean] = state.Yt[mean]
    b_band[mean] = 0.0
    b_band[(0,) * (grid.dim + 1)] = 1.0
    return EulerState(grid, u_band, b_band, state.t)


def scaled_spec(spec: InitialDataSpec, factor: float) -> InitialDataSpec:
    """Same mode content with all raw amplitudes multiplied by factor."""
    return replace(
        spec,
        shear_a=tuple(replace(m, amp=m.amp * factor) for m in spec.shear_a),
        shear_c=tuple(replace(m, amp=m.amp * factor) for m in spec.shear_c),
        velocity=tuple(replace(m, amp=m.amp * factor) for m in spec.velocity),
        epsilon0=None,
    )

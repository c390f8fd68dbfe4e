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
from .errors import ConfigError
from .evolution import EulerState
from .fields import VectorField
from .geometry import FlowState, make_trig_evaluator
from .grid import Grid
from .spectral import dealias_spec, gradient_values, riesz_apply_spec


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


def _shear_profile(grid: Grid, modes, coords, axes):
    """Sum of cosine modes over the given coordinate axes."""
    out = np.zeros(grid.shape)
    for m in modes:
        if len(m.n) != len(axes):
            raise ConfigError(
                f"shear mode {m.n} must index the {len(axes)} profile axes"
            )
        phase = np.zeros(grid.shape)
        for n_i, ax in zip(m.n, axes):
            kappa = 2.0 * np.pi / grid.lengths[ax]
            phase = phase + n_i * kappa * coords[ax]
        out = out + m.amp * np.cos(phase + m.phase)
    return out


def _shear_displacement(grid: Grid, spec: InitialDataSpec, scale: float):
    """Y0 from the two-shear composition; volume preserving by construction."""
    coords = [np.broadcast_to(c, grid.shape) for c in grid.coords]
    if grid.dim == 3:
        a = scale * _shear_profile(grid, spec.shear_a, coords, axes=(0, 2))
        y0 = np.zeros((3,) + grid.shape)
        y0[1] = a
        if spec.shear_c:
            c_modes = spec.shear_c
            shifted = coords[1] + a
            c_val = np.zeros(grid.shape)
            for m in c_modes:
                k2 = 2.0 * np.pi / grid.lengths[1]
                k3 = 2.0 * np.pi / grid.lengths[2]
                c_val += scale * m.amp * np.cos(
                    m.n[0] * k2 * shifted + m.n[1] * k3 * coords[2] + m.phase
                )
            y0[0] = c_val
    else:
        a = scale * _shear_profile(grid, spec.shear_a, coords, axes=(0,))
        y0 = np.zeros((2,) + grid.shape)
        y0[1] = a
        if spec.shear_c:
            shifted = coords[1] + a
            c_val = np.zeros(grid.shape)
            for m in spec.shear_c:
                k2 = 2.0 * np.pi / grid.lengths[1]
                c_val += scale * m.amp * np.cos(m.n[0] * k2 * shifted + m.phase)
            y0[0] = c_val
    return y0


def _solenoidal_velocity(grid: Grid, modes, scale: float):
    v = np.zeros((grid.dim,) + grid.shape)
    coords = [np.broadcast_to(c, grid.shape) for c in grid.coords]
    for m in modes:
        if len(m.n) != grid.dim:
            raise ConfigError(f"velocity mode {m.n} must have {grid.dim} indices")
        if not 0 <= m.axis < grid.dim:
            raise ConfigError(f"velocity mode axis {m.axis} out of range")
        phase = np.zeros(grid.shape)
        for i, n_i in enumerate(m.n):
            phase += n_i * (2.0 * np.pi / grid.lengths[i]) * coords[i]
        v[m.axis] += scale * m.amp * np.cos(phase + m.phase)
    spec = grid.fft(v)
    spec = dealias_spec(spec - riesz_apply_spec(spec, grid), grid)
    return grid.ifft(spec)


def build_flow_state(grid: Grid, spec: InitialDataSpec) -> FlowState:
    """Assemble (Y0, Y1), rescaled so the smallness functional hits epsilon0."""

    def assemble(scale: float) -> FlowState:
        y0_vals = _shear_displacement(grid, spec, scale)
        # composition tails above the 2/3-mask ball are machine-small at these
        # amplitudes; masking keeps the evolved state band-limited
        y0 = VectorField.from_spec(grid, dealias_spec(grid.fft(y0_vals), grid))
        v = _solenoidal_velocity(grid, spec.velocity, scale)
        grad = gradient_values(y0.spec, grid)
        y1_vals = v + np.einsum("im...,m...->i...", grad, v)
        y1 = VectorField.from_spec(grid, dealias_spec(grid.fft(y1_vals), grid))
        return FlowState(y0, y1, 0.0)

    if spec.epsilon0 is None:
        return assemble(1.0)
    if spec.epsilon0 <= 0:
        raise ConfigError("epsilon0 must be positive")
    state = assemble(1.0)
    base = EnergyEvaluator.initial_norm(state)
    if base == 0.0:
        return state
    s = float(np.sqrt(spec.epsilon0 / base))
    for _ in range(8):
        state = assemble(s)
        norm = EnergyEvaluator.initial_norm(state)
        if abs(norm - spec.epsilon0) <= 1e-9 * spec.epsilon0:
            break
        s *= float(np.sqrt(spec.epsilon0 / norm))
    return state


def euler_from_flow(state: FlowState) -> EulerState:
    """Pushforward initial data to the Eulerian grid.

    Inverts x = y + Y0(y) pointwise by Picard iteration (small displacement),
    then samples u0 = Y1(y(x)) and b0 = e1 + d1Y0(y(x)). Sampling tails are
    cleaned up with one Leray projection of u0.
    """
    grid = state.grid
    coords = np.stack(np.broadcast_arrays(*grid.coords))
    x_pts = np.moveaxis(coords, 0, -1).reshape(-1, grid.dim)
    if np.abs(state.Y.values).max() == 0.0:
        b = np.zeros((grid.dim,) + grid.shape)
        b[0] = 1.0
        return EulerState(state.Yt, VectorField.from_values(grid, b), state.t)

    y0_eval = make_trig_evaluator(state.Y)
    y = x_pts.copy()
    for _ in range(60):
        delta = x_pts - y0_eval(y).T - y
        y += delta
        if np.abs(delta).max() < 1e-13:
            break
    y1_eval = make_trig_evaluator(state.Yt)
    d1y = VectorField.from_spec(grid, state.Y.spec * (1j * grid.k_axes[0]))
    d1y_eval = make_trig_evaluator(d1y)
    u_vals = y1_eval(y).reshape((grid.dim,) + grid.shape)
    b_vals = d1y_eval(y).reshape((grid.dim,) + grid.shape)
    b_vals[0] += 1.0
    u_spec = grid.fft(u_vals)
    u_spec = dealias_spec(u_spec - riesz_apply_spec(u_spec, grid), grid)
    b_spec = dealias_spec(grid.fft(b_vals), grid)
    return EulerState(
        VectorField.from_spec(grid, u_spec),
        VectorField.from_spec(grid, b_spec),
        state.t,
    )


def scaled_spec(spec: InitialDataSpec, factor: float) -> InitialDataSpec:
    """Same mode content with all raw amplitudes multiplied by factor."""
    return replace(
        spec,
        shear_a=tuple(replace(m, amp=m.amp * factor) for m in spec.shear_a),
        shear_c=tuple(replace(m, amp=m.amp * factor) for m in spec.shear_c),
        velocity=tuple(replace(m, amp=m.amp * factor) for m in spec.velocity),
        epsilon0=None,
    )

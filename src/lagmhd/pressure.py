"""Implicit pressure-gradient solve by contraction fixed point.

The pressure gradient satisfies

    grad_p = -R[(A^T A - I) grad_p] + R[A^T div(A^T (d1Y x d1Y - Yt x Yt))]

with R = grad Delta^-1 div the Riesz projector. For small deformations the
bracketed metric defect makes the map a contraction, so Picard iteration from
the one-term truncation converges geometrically; the measured ratio is part of
the solution object because it doubles as a smallness monitor. R maps into
gradients, so every iterate is rhs - ik phi for one scalar potential
phi = Delta^-1 div(D grad_p), and the iteration runs on phi: one contraction
and one residual per step.

A solve starts from a given potential q0 when there is one, and returns the
potential it converged to, so a time stepper can start the next solve from
the nearest one in time; the stopping rule does not depend on the start.

Near equilibrium the map contracts (by about 0.1 per step on the
criterion-6 data), so the stopping rule is made of constants of the method,
not of the problem: a solve stops at the floor PICARD_ABS_TOL, or inside a
run at max(PICARD_ABS_TOL, PICARD_REL_TOL |grad p|), and fails after
PICARD_MAX_ITER iterations.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .errors import NotConvergedError, PressureDivergenceError
from .geometry import cofactor_times
from .grid import Grid
from .spectral import _riesz, divergence_finish, riesz_apply_spec, weighted_norm_sq
# dealias_spec is not called here; perfbench/layers.py times it by this name
from .spectral import dealias_spec  # noqa: F401

# the stopping rule (see above); the cap is read at call time
PICARD_ABS_TOL = 1e-10
PICARD_REL_TOL = 3e-8
PICARD_MAX_ITER = 50


class PressureSolution(NamedTuple):
    """grad_p = rhs - ik phi on the band, with the band of its potential phi.

    ``potential`` is what ``solve_pressure_spec`` takes as ``q0`` to start a
    later solve there; it and grad_p are bands of the solve's workspace,
    which the next solve overwrites. ``iterations``, ``residuals`` and
    ``contraction_estimate`` describe the Picard iteration that produced it.
    A tuple in this order: ``[1]`` is the iteration count.
    """

    grad_p: np.ndarray
    iterations: int
    residuals: list
    contraction_estimate: float
    potential: np.ndarray


def _tensor_rhs_spec(grid: Grid, b_vals, pair, out=None, *, work):
    """R[A^T div2((v x v - w x w) A)] with div2 acting on the second index,
    A = I + B from B's samples b_vals.

    Returns the band. The divergence-free rows of the cofactor matrix let the
    nested operator collapse to this conservative form. ``pair`` holds the
    samples (v, w), two (d,) arrays that may live anywhere but ``za`` and
    the workspace's ``vec[1:]`` (``compute_force`` passes d1 Y as
    ``grad_y[:, 0]`` and Yt in ``vec[0]``). (v x v - w x w) A is formed
    into ``za`` from A^T v and A^T w, one mat-vec and one add each:
    v x A^T v less, entry by entry, w_i (A^T w)_l. Its last-axis planes
    go into ``mat_band``, and ``divergence_finish`` of them is the
    divergence, with the calls of one ``divergence_band`` of the tensor.

    out receives the band when given. ``work`` is the ``ForceWorkspace`` of
    the grid; the call overwrites ``za``, ``vec[1:]``, ``mat_band`` (whose
    last row's memory takes the entry products first), ``vec_band[1]``
    and ``pad``'s first d rows, and reads the pair and b_vals only.
    """
    vec, band, pad, slots = work.vec, work.vec_band[1], work.pad, work.mat_band
    v, w = pair
    at_v = cofactor_times(b_vals, v, vec[1], transpose=True)
    at_w = cofactor_times(b_vals, w, vec[2], transpose=True)
    tmp = slots[-1].reshape(-1).view(float)[: grid.npoints].reshape(grid.shape)
    za = np.einsum("i...,l...->il...", v, at_v, out=work.za)
    for i, l in itertools.product(range(grid.dim), repeat=2):
        za[i, l] -= np.multiply(w[i], at_w[l], out=tmp)
    grid.last_forward(za, out=slots, pad=pad[: grid.dim])
    w_band = divergence_finish(slots, grid, out=band, pad=pad, started=False)
    w_real = grid.irfft(w_band, out=vec[1], pad=pad[0])
    atw = cofactor_times(b_vals, w_real, vec[2], transpose=True)
    return riesz_apply_spec(grid.rfft(atw, out=band, pad=pad[0]), grid, out=out)


def solve_pressure_spec(grid: Grid, defect_vals, rhs_band, tol, q0=None, *, work):
    """Picard iteration grad_p <- -R[defect . grad_p] + rhs from grad_p = rhs - ik q0.

    Works on bands: rhs_band, q0 and the returned grad_p and potential.
    The iterate is phi = Delta^-1 div(defect . grad_p) = inv_lap (ik .
    rfft(defect . grad_p)), the potential of R[v] = ik phi on rfft's band,
    and grad_p = rhs - ik phi. The residual of a step is |grad_p_new -
    grad_p| = |ik (phi_new - phi)|, summed over the band with the Hermitian
    multiplicity carried by ``grid.norm_k2``.

    q0 is a starting potential, typically the ``potential`` of a solve nearby
    in time; None starts cold from phi = 0, grad_p = rhs. The first residual is
    measured from q0, so a start at the fixed point stops after one step. The
    iteration stops at the residual tol and fails after PICARD_MAX_ITER
    iterations (``NotConvergedError``) or 3 consecutive expanding ones
    (``PressureDivergenceError``). The rule is absolute, so where one step
    meets it the result depends on q0. Returns the ``PressureSolution``.
    ``work`` is the ``ForceWorkspace`` of the grid: the iteration overwrites
    its ``vec[:2]``, ``vec_band[1]`` (grad_p), ``q[1:]`` (the potential in
    [1] or [2]) and ``pad``; q0 is read first.
    """
    gp_real, mgp, pad = work.vec[0], work.vec[1], work.pad[0]
    gp, (q_prev, q, tmp) = work.vec_band[1], work.q[1:]
    np.copyto(gp, rhs_band)
    if q0 is None:
        q_prev.fill(0.0)
    else:
        np.copyto(q_prev, q0)
        for i, ik in enumerate(grid.ik):
            gp[i] -= np.multiply(ik, q_prev, out=tmp)
    residuals = []
    ratios = []
    bad_streak = 0
    for it in range(1, PICARD_MAX_ITER + 1):
        grid.irfft(gp, out=gp_real, pad=pad)
        np.einsum("jm...,m...->j...", defect_vals, gp_real, out=mgp)
        # grad_p's samples are taken: its band holds the spectra, then R of them
        _riesz(grid.rfft(mgp, out=gp, pad=pad), grid, gp, q, tmp)
        np.subtract(rhs_band, gp, out=gp)
        q_prev -= q  # minus the step of the potential
        res = float(np.sqrt(weighted_norm_sq(q_prev, grid.norm_k2, grid, out=tmp)))
        q_prev, q = q, q_prev  # the next potential goes where the step was
        residuals.append(res)
        if len(residuals) >= 2 and residuals[-2] > 0:
            ratio = res / residuals[-2]
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
            if bad_streak >= 3:
                raise PressureDivergenceError(
                    f"pressure iteration expanding (ratio {ratio:.3f} for 3 "
                    "consecutive steps); deformation outside the smallness regime",
                    residuals=residuals,
                )
        if res <= tol:
            contraction = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
            return PressureSolution(gp, it, residuals, contraction, q_prev)
    raise NotConvergedError(
        f"pressure fixed point not converged after {PICARD_MAX_ITER} iterations "
        f"(last residual {residuals[-1]:.3e})",
        residual=residuals[-1],
    )

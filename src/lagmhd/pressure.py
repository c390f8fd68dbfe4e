"""Implicit pressure-gradient solve by contraction fixed point.

The pressure gradient satisfies

    grad_p = -R[(A^T A - I) grad_p] + R[A^T div(A^T (d1Y x d1Y - Yt x Yt))]

with R the inverse-Laplacian grad-div operator. For small deformations the
bracketed metric defect makes the map a contraction, so Picard iteration from
the one-term truncation converges geometrically; the measured ratio is part of
the solution object because it doubles as a smallness monitor. R maps into
gradients, so every iterate is rhs - k q for one scalar potential q, and the
iteration runs on q: one masked contraction and one residual per step.

A solve starts from a given potential q0 when there is one, and returns the
potential it converged to, so a time stepper can start the next solve from
the nearest one in time; the stopping rule does not depend on the start.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotConvergedError, PressureDivergenceError
from .grid import ForceWorkspace, Grid
from .spectral import (
    _k_contract,
    dealias_spec,
    divergence_band,
    riesz_apply_spec,
    weighted_norm_sq,
)


class PressureSolution(NamedTuple):
    """grad_p = rhs - k q on the band, with the band of its potential q.

    ``potential`` is what ``solve_pressure_spec`` takes as ``q0`` to start a
    later solve there; ``iterations``, ``residuals`` and
    ``contraction_estimate`` describe the Picard iteration that produced it.
    A tuple in this order: ``[1]`` is the iteration count.
    """

    grad_p: np.ndarray
    iterations: int
    residuals: list
    contraction_estimate: float
    potential: np.ndarray


def _tensor_rhs_spec(grid: Grid, a_vals, v_vals, w_vals, out=None, work=None):
    """R[A^T div2((v x v - w x w) A)] with div2 acting on the second index.

    Returns the band of the spectrum. The divergence-free rows of the cofactor matrix let the nested operator
    collapse to this conservative form. The product (v x v - w x w) A takes
    two mat-vecs and two outer products: v_i (A^T v)_l - w_i (A^T w)_l, and
    its divergence is one ``divergence_band``.

    out receives the band when given. ``work`` is the ``ForceWorkspace`` of
    the grid (a fresh one when None); the call overwrites its ``flux``,
    ``b``, ``vec[1:]``, ``mat_band``, ``vec_band[1]`` and ``pad``, so v and
    w must not live there.
    """
    if work is None:
        work = ForceWorkspace(grid)
    vec, band, pad = work.vec, work.vec_band[1], work.pad
    at_v = np.einsum("ml...,m...->l...", a_vals, v_vals, out=vec[1])
    at_w = np.einsum("ml...,m...->l...", a_vals, w_vals, out=vec[2])
    za = np.einsum("i...,l...->il...", v_vals, at_v, out=work.flux)
    za -= np.einsum("i...,l...->il...", w_vals, at_w, out=work.b)
    w_band = divergence_band(za, grid, out=band, work=work)
    w_band = dealias_spec(w_band, grid, out=w_band)
    w_real = grid.irfft(w_band, out=vec[1], pad=pad[0])
    atw = np.einsum("jm...,j...->m...", a_vals, w_real, out=vec[2])
    atw_band = dealias_spec(grid.rfft(atw, out=band, pad=pad[0]), grid, out=band)
    return riesz_apply_spec(atw_band, grid, out=out)


def solve_pressure_spec(
    grid: Grid, defect_vals, rhs_band, tol, max_iter, q0=None, work=None
):
    """Picard iteration grad_p <- -R[defect . grad_p] + rhs from grad_p = rhs - k q0.

    Works on bands: rhs_band, q0 and the returned grad_p and potential.
    The iterate is the scalar potential q of grad_p = rhs - k q,
    with q = (mask inv_k2) (k . rfft(defect . grad_p)): R[v] = k inv_k2 (k . v),
    and the 2/3 mask acts after the contraction, on one component. The
    residual of a step is |grad_p_new - grad_p| = |k (q_new - q)|, summed over
    the band with the Hermitian multiplicity carried by ``grid.norm_k2``.

    q0 is a starting potential, typically the ``potential`` of a solve nearby
    in time; None starts cold from q = 0, grad_p = rhs. The first residual is
    measured from q0, so a start at the fixed point stops after one step. The
    stopping rule is absolute, so where one step meets it the result depends
    on q0. Returns the ``PressureSolution``, with fresh arrays. ``work`` is
    the ``ForceWorkspace`` of the grid (a fresh one when None); the
    iteration overwrites its ``vec[:2]``, ``vec_band[1]`` and ``pad``.
    """
    if work is None:
        work = ForceWorkspace(grid)
    gp_real, mgp, pad = work.vec[0], work.vec[1], work.pad[0]
    k = grid.k_axes
    gp = rhs_band.copy()
    if q0 is None:
        q_prev = np.zeros(grid.band_shape, dtype=complex)
    else:
        q_prev = np.array(q0, dtype=complex)
        for i in range(grid.dim):
            gp[i] -= k[i] * q_prev
    residuals = []
    ratios = []
    bad_streak = 0
    for it in range(1, max_iter + 1):
        grid.irfft(gp, out=gp_real, pad=pad)
        np.einsum("jm...,m...->j...", defect_vals, gp_real, out=mgp)
        q = _k_contract(grid.rfft(mgp, out=work.vec_band[1], pad=pad), k)
        q *= grid.masked_inv_k2
        for i in range(grid.dim):
            np.multiply(k[i], q, out=gp[i])
        np.subtract(rhs_band, gp, out=gp)
        q_prev -= q  # minus the step of the potential
        res = float(np.sqrt(weighted_norm_sq(q_prev, grid.norm_k2, grid)))
        q_prev = q
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
            return PressureSolution(gp, it, residuals, contraction, q)
    raise NotConvergedError(
        f"pressure fixed point not converged after {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})",
        residual=residuals[-1],
    )

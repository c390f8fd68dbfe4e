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

from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError, PressureDivergenceError
from .fields import VectorField
from .grid import Grid
from .spectral import (
    _k_contract,
    dealias_spec,
    divergence_spec,
    riesz_apply_spec,
    weighted_norm_sq,
)


@dataclass
class PressureSolution:
    """grad_p = rhs - k q on the band, with the band of its potential q.

    ``potential`` is what ``solve_pressure_spec`` takes as ``q0`` to start a
    later solve there; ``iterations``, ``residuals`` and
    ``contraction_estimate`` describe the Picard iteration that produced it.
    """

    grad_p: VectorField
    iterations: int
    residuals: list
    contraction_estimate: float
    potential: np.ndarray


def _tensor_rhs_spec(grid: Grid, a_vals, v_vals, w_vals):
    """R[A^T div2((v x v - w x w) A)] with div2 acting on the second index.

    Returns the band (``grid.half``) of the spectrum. The
    divergence-free rows of the cofactor matrix let the nested operator
    collapse to this conservative form. The product (v x v - w x w) A takes
    two mat-vecs and two outer products: v_i (A^T v)_l - w_i (A^T w)_l.
    """
    half = grid.half
    at_v = np.einsum("ml...,m...->l...", a_vals, v_vals)
    at_w = np.einsum("ml...,m...->l...", a_vals, w_vals)
    za = np.einsum("i...,l...->il...", v_vals, at_v)
    za -= np.einsum("i...,l...->il...", w_vals, at_w)
    za_half = grid.rfft(za)
    w_half = dealias_spec(divergence_spec(np.swapaxes(za_half, 0, 1), half), half)
    w_real = grid.irfft(w_half)
    atw = np.einsum("jm...,j...->m...", a_vals, w_real)
    atw_half = dealias_spec(grid.rfft(atw), half)
    return riesz_apply_spec(atw_half, half)


def solve_pressure_spec(grid: Grid, defect_vals, rhs_half, tol, max_iter, q0=None):
    """Picard iteration grad_p <- -R[defect . grad_p] + rhs from grad_p = rhs - k q0.

    Works on bands (``grid.half``): rhs_half, q0 and the returned grad_p and
    potential. The iterate is the scalar potential q of grad_p = rhs - k q,
    with q = (mask inv_k2) (k . rfft(defect . grad_p)): R[v] = k inv_k2 (k . v),
    and the 2/3 mask acts after the contraction, on one component. The
    residual of a step is |grad_p_new - grad_p| = |k (q_new - q)|, summed over
    the band with the Hermitian multiplicity carried by ``half.norm_k2``.

    q0 is a starting potential, typically the ``potential`` of a solve nearby
    in time; None starts cold from q = 0, grad_p = rhs. The first residual is
    measured from q0, so a start at the fixed point stops after one step. The
    stopping rule is absolute, so where one step meets it the result depends
    on q0. Returns (grad_p, iterations, residuals, contraction, potential).
    """
    half = grid.half
    k = half.k_axes
    gp = rhs_half.copy()
    if q0 is None:
        q_prev = np.zeros(half.shape, dtype=complex)
    else:
        q_prev = np.array(q0, dtype=complex)
        for i in range(grid.dim):
            gp[i] -= k[i] * q_prev
    residuals = []
    ratios = []
    bad_streak = 0
    for it in range(1, max_iter + 1):
        gp_real = grid.irfft(gp)
        mgp = np.einsum("jm...,m...->j...", defect_vals, gp_real)
        q = _k_contract(grid.rfft(mgp), k)
        q *= half.masked_inv_k2
        for i in range(grid.dim):
            np.multiply(k[i], q, out=gp[i])
        np.subtract(rhs_half, gp, out=gp)
        q_prev -= q  # minus the step of the potential
        res = float(np.sqrt(weighted_norm_sq(q_prev, half.norm_k2, half)))
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
            return gp, it, residuals, contraction, q
    raise NotConvergedError(
        f"pressure fixed point not converged after {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})",
        residual=residuals[-1],
    )

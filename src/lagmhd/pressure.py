"""Implicit pressure-gradient solve by contraction fixed point.

The pressure gradient satisfies

    grad_p = -R[(A^T A - I) grad_p] + R[A^T div(A^T (d1Y x d1Y - Yt x Yt))]

with R the inverse-Laplacian grad-div operator. For small deformations the
bracketed metric defect makes the map a contraction, so Picard iteration from
the one-term truncation converges geometrically; the measured ratio is part of
the solution object because it doubles as a smallness monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError, PressureDivergenceError
from .fields import VectorField
from .grid import Grid
from .spectral import dealias_spec, divergence_spec, riesz_apply_spec, weighted_norm_sq


@dataclass
class PressureSolution:
    grad_p: VectorField
    iterations: int
    residuals: list
    contraction_estimate: float


def _tensor_rhs_spec(grid: Grid, a_vals, v_vals, w_vals):
    """R[A^T div2((v x v - w x w) A)] with div2 acting on the second index.

    The divergence-free rows of the cofactor matrix let the nested operator
    collapse to this conservative form. The product (v x v - w x w) A takes
    two mat-vecs and two outer products: v_i (A^T v)_l - w_i (A^T w)_l.
    """
    at_v = np.einsum("ml...,m...->l...", a_vals, v_vals)
    at_w = np.einsum("ml...,m...->l...", a_vals, w_vals)
    za = np.einsum("i...,l...->il...", v_vals, at_v)
    za -= np.einsum("i...,l...->il...", w_vals, at_w)
    za_spec = dealias_spec(grid.fft(za), grid)
    w_real = grid.ifft(divergence_spec(np.swapaxes(za_spec, 0, 1), grid))
    atw = np.einsum("jm...,j...->m...", a_vals, w_real)
    atw_spec = dealias_spec(grid.fft(atw), grid)
    return riesz_apply_spec(atw_spec, grid)


def solve_pressure_spec(grid: Grid, a_vals, defect_vals, rhs_spec, tol, max_iter):
    """Picard iteration grad_p <- -R[defect . grad_p] + rhs from grad_p = rhs."""
    gp = rhs_spec.copy()
    residuals = []
    ratios = []
    bad_streak = 0
    for it in range(1, max_iter + 1):
        gp_real = grid.ifft(gp)
        mgp = np.einsum("jm...,m...->j...", defect_vals, gp_real)
        mgp_spec = dealias_spec(grid.fft(mgp), grid)
        gp_new = rhs_spec - riesz_apply_spec(mgp_spec, grid)
        res = float(np.sqrt(weighted_norm_sq(gp_new - gp, 1.0, grid)))
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
        gp = gp_new
        if res <= tol:
            contraction = float(np.exp(np.mean(np.log(ratios)))) if ratios else 0.0
            return gp, it, residuals, contraction
    raise NotConvergedError(
        f"pressure fixed point not converged after {max_iter} iterations "
        f"(last residual {residuals[-1]:.3e})",
        residual=residuals[-1],
    )

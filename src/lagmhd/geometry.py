"""Flow-map algebra: cofactor matrices, volume constraint, initial map.

Displacement convention: the map is X(t,y) = y + Y(t,y), and gradients are
stored as grad[i, j] = d_j Y^i. The cofactor matrix A = (grad X)^{-T} equals
the transposed adjugate of I + grad Y whenever det(I + grad Y) = 1, and that
adjugate expands exactly as A = I + B1 + B2 with B1 linear and B2 quadratic
in grad Y (B2 = 0 in two dimensions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionFailedError, NotConvergedError
from .fields import MatrixField, VectorField
from .grid import Grid
from .spectral import divergence_norm, gradient_values


@dataclass
class FlowState:
    """Lagrangian unknowns: displacement Y and trajectory velocity Yt at time t."""

    Y: VectorField
    Yt: VectorField
    t: float = 0.0

    def __post_init__(self):
        self.Y.check_same_grid(self.Yt)

    @property
    def grid(self) -> Grid:
        return self.Y.grid

    @classmethod
    def zeros(cls, grid: Grid, t: float = 0.0) -> "FlowState":
        return cls(VectorField.zeros(grid), VectorField.zeros(grid), t)


# -- raw-array kernels -------------------------------------------------------


def _transpose(m):
    return np.swapaxes(m, 0, 1)


def _matmul(a, b):
    return np.einsum("im...,mj...->ij...", a, b)


def _identity(dim, shape):
    out = np.zeros((dim, dim) + shape)
    for i in range(dim):
        out[i, i] = 1.0
    return out


def quadratic_cofactor_values(grad):
    """Quadratic adjugate part: entry (i,j) is the (i,j) cofactor of grad Y."""
    g = grad
    dim = g.shape[0]
    if dim == 2:
        return np.zeros_like(g)
    out = np.empty_like(g)
    out[0, 0] = g[1, 1] * g[2, 2] - g[2, 1] * g[1, 2]
    out[0, 1] = g[2, 0] * g[1, 2] - g[1, 0] * g[2, 2]
    out[0, 2] = g[1, 0] * g[2, 1] - g[2, 0] * g[1, 1]
    out[1, 0] = g[2, 1] * g[0, 2] - g[0, 1] * g[2, 2]
    out[1, 1] = g[0, 0] * g[2, 2] - g[2, 0] * g[0, 2]
    out[1, 2] = g[2, 0] * g[0, 1] - g[2, 1] * g[0, 0]
    out[2, 0] = g[0, 1] * g[1, 2] - g[1, 1] * g[0, 2]
    out[2, 1] = g[1, 0] * g[0, 2] - g[0, 0] * g[1, 2]
    out[2, 2] = g[0, 0] * g[1, 1] - g[1, 0] * g[0, 1]
    return out


def cofactor_values(grad):
    """Return (B1, B2, A) raw arrays from grad Y values; A = (I + B1) + B2."""
    dim = grad.shape[0]
    div = np.trace(grad, axis1=0, axis2=1)
    b1 = -_transpose(grad).copy()
    for i in range(dim):
        b1[i, i] += div
    b2 = quadratic_cofactor_values(grad)
    a = b1.copy()
    for i in range(dim):
        a[i, i] += 1.0
    a += b2
    return b1, b2, a


def graded_metric_values(b1, b2):
    """Degree-homogeneous pieces of A^T A - I = (B1^T+B2^T) + (B1+B2) + (B1^T+B2^T)(B1+B2)."""
    b1t, b2t = _transpose(b1), _transpose(b2)
    g1 = b1 + b1t
    g2 = b2 + b2t + _matmul(b1t, b1)
    if b2.shape[0] == 2:
        return (g1, g2)
    g3 = _matmul(b1t, b2) + _matmul(b2t, b1)
    g4 = _matmul(b2t, b2)
    return (g1, g2, g3, g4)


def determinant_values(grad):
    """Pointwise det(I + grad Y)."""
    g = grad
    if g.shape[0] == 2:
        return (1.0 + g[0, 0]) * (1.0 + g[1, 1]) - g[0, 1] * g[1, 0]
    m00, m01, m02 = 1.0 + g[0, 0], g[0, 1], g[0, 2]
    m10, m11, m12 = g[1, 0], 1.0 + g[1, 1], g[1, 2]
    m20, m21, m22 = g[2, 0], g[2, 1], 1.0 + g[2, 2]
    return (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )


def inverse_transpose_values(mat):
    """Pointwise (M)^{-T} for 2x2 or 3x3 matrix values."""
    dim = mat.shape[0]
    if dim == 2:
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        out = np.empty_like(mat)
        out[0, 0] = mat[1, 1] / det
        out[0, 1] = -mat[1, 0] / det
        out[1, 0] = -mat[0, 1] / det
        out[1, 1] = mat[0, 0] / det
        return out
    # cofactor matrix over det; the (i,j) entry of M^{-T} is cof_ij(M)/det
    cof = quadratic_cofactor_values(mat)  # valid for any 3x3 values
    det = (
        mat[0, 0] * cof[0, 0] + mat[0, 1] * cof[0, 1] + mat[0, 2] * cof[0, 2]
    )
    return cof / det


# -- trajectory evaluation ----------------------------------------------------


def make_trig_evaluator(field, chunk_entries: int = 1 << 22):
    """Exact trigonometric-sum evaluator of a band-limited field at points.

    Direct summation over all modes: O(npoints * nmodes), intended for the
    small grids used in cross-validation and trajectory work.
    """
    grid = field.grid
    spec = field.spec
    comp_shape = spec.shape[: -grid.dim]
    kmat = np.stack(
        [np.broadcast_to(grid.k_axes[i], grid.shape).ravel() for i in range(grid.dim)]
    )  # (d, nmodes)
    flat = spec.reshape(comp_shape + (-1,))

    def evaluate(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m = pts.shape[0]
        if m == 0:
            return np.empty(comp_shape + (0,))
        out = np.empty(comp_shape + (m,))
        chunk = max(1, chunk_entries // kmat.shape[1])
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            phases = np.exp(1j * (pts[lo:hi] @ kmat))  # (chunk, nmodes)
            out[..., lo:hi] = (flat @ phases.T).real
        return out

    return evaluate


# -- initial map from a transversal magnetic field ---------------------------


@dataclass
class InitialMap:
    """Volume-preserving map straightening b0: A0^T b0(X0) = e1, det grad X0 = 1."""

    x0: np.ndarray  # map values (d, grid shape)
    displacement: VectorField  # X0 - y (periodic)
    a0: MatrixField  # (grad X0)^{-T}, pointwise
    residual_e1: float
    residual_det: float


def _plane_reparametrization(b0, grid: Grid, tol: float, max_iter: int):
    """Transverse map eta = id' + grad' phi with det(grad' eta) * b0^1(0, eta) = 1.

    Solved by a Picard iteration on the plane Poisson problem; the right-hand
    side is mean-corrected, which is consistent exactly when b0 admits a
    periodic straightening.
    """
    dim = grid.dim
    tsizes = grid.sizes[1:]
    tlengths = grid.lengths[1:]
    tdim = dim - 1
    k1d = [2.0 * np.pi * np.fft.fftfreq(n, d=l / n) for n, l in zip(tsizes, tlengths)]
    kax = [
        k1d[i].reshape([-1 if j == i else 1 for j in range(tdim)]) for i in range(tdim)
    ]
    k2 = np.zeros(tsizes)
    for ka in kax:
        k2 = k2 + ka**2
    inv_lap = np.zeros(tsizes)
    nz = k2 > 0
    inv_lap[nz] = -1.0 / k2[nz]
    coords = np.meshgrid(
        *[np.arange(n) * (l / n) for n, l in zip(tsizes, tlengths)], indexing="ij"
    )
    b0_eval = make_trig_evaluator(b0)

    phi_hat = np.zeros(tsizes, dtype=complex)
    residual = np.inf
    for _ in range(max_iter):
        grad_phi = [
            np.fft.ifftn(1j * kax[i] * phi_hat).real for i in range(tdim)
        ]
        eta = [coords[i] + grad_phi[i] for i in range(tdim)]
        # det(I + hessian(phi)) on the plane
        hess = np.empty((tdim, tdim) + tuple(tsizes))
        for i in range(tdim):
            for j in range(tdim):
                hess[i, j] = np.fft.ifftn(-kax[i] * kax[j] * phi_hat).real
        if tdim == 1:
            det_eta = 1.0 + hess[0, 0]
            lap_phi = hess[0, 0]
        else:
            det_eta = (1.0 + hess[0, 0]) * (1.0 + hess[1, 1]) - hess[0, 1] * hess[1, 0]
            lap_phi = hess[0, 0] + hess[1, 1]
        pts = np.stack([np.zeros_like(eta[0])] + eta, axis=-1).reshape(-1, dim)
        b01 = b0_eval(pts)[0].reshape(tsizes)
        if b01.min() < 0.5:
            raise ConstructionFailedError(
                f"transversality lost on the seed plane: min b0^1 = {b01.min():.3g}"
            )
        residual = float(np.abs(det_eta * b01 - 1.0).max())
        if residual <= tol:
            return eta, residual
        target = 1.0 / b01 - 1.0 - (det_eta - 1.0 - lap_phi)
        target -= target.mean()
        phi_hat = np.fft.fftn(target) * inv_lap
    raise NotConvergedError(
        f"plane reparametrization stalled at residual {residual:.3e} (tol {tol:.1e})",
        residual=residual,
    )


def construct_initial_map(
    b0: VectorField, tol: float = 1e-8, max_iter: int = 60, substeps: int = None
) -> InitialMap:
    """Build X0 by flowing the plane {x1 = 0} along b0.

    X0(y1, y') integrates dZ/ds = b0(Z) from (0, eta(y')) for a parameter
    stretch s = y1, with eta the plane reparametrization that makes the map
    volume preserving. Periodic closure across the box requires the transverse
    drift and traversal-time integrals of b0 - e1 to vanish along trajectories
    (the admissibility of b0 - e1); the returned residuals measure any defect.
    """
    grid = b0.grid
    div = divergence_norm(b0)
    scale = 1.0 + float(np.abs(b0.values).max())
    if div > 1e-10 * scale:
        raise ConstructionFailedError(f"b0 is not divergence free: |div b0| = {div:.3e}")
    if b0.values[0].min() < 0.5:
        raise ConstructionFailedError(
            f"transversality violated: min b0^1 = {b0.values[0].min():.3g} < 1/2"
        )

    eta, plane_res = _plane_reparametrization(b0, grid, tol / 4.0, max_iter)

    h1 = grid.spacings[0]
    if substeps is None:
        substeps = max(2, int(np.ceil(2.0 * h1 / min(grid.spacings))))
    hs = h1 / substeps
    b0_eval = make_trig_evaluator(b0)

    def rhs(pts):
        return b0_eval(pts).T  # (M, d)

    tshape = grid.sizes[1:]
    m = int(np.prod(tshape))
    z = np.zeros((m, grid.dim))
    for i in range(grid.dim - 1):
        z[:, i + 1] = eta[i].ravel()
    x0 = np.empty((grid.dim,) + grid.shape)
    x0[:, 0] = z.T.reshape((grid.dim,) + tuple(tshape))
    n1 = grid.sizes[0]
    for j in range(1, n1):
        for _ in range(substeps):
            k1 = rhs(z)
            k2 = rhs(z + 0.5 * hs * k1)
            k3 = rhs(z + 0.5 * hs * k2)
            k4 = rhs(z + hs * k3)
            z = z + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x0[:, j] = z.T.reshape((grid.dim,) + tuple(tshape))

    coords = np.stack(np.broadcast_arrays(*grid.coords))
    y0 = x0 - coords
    if np.abs(y0).max() > min(grid.lengths) / 4.0:
        raise ConstructionFailedError(
            "constructed map strays too far from identity for a periodic chart"
        )
    displacement = VectorField.from_values(grid, y0)
    grad = gradient_values(displacement.spec, grid)
    ident = _identity(grid.dim, grid.shape)
    a0_vals = inverse_transpose_values(ident + grad)
    det = determinant_values(grad)
    residual_det = float(np.abs(det - 1.0).max())

    pts = np.moveaxis(x0, 0, -1).reshape(-1, grid.dim)
    b_at_x0 = b0_eval(pts)  # (d, npts)
    at_b = np.einsum("ij...,i...->j...", a0_vals, b_at_x0.reshape((grid.dim,) + grid.shape))
    at_b[0] -= 1.0
    residual_e1 = float(np.abs(at_b).max())

    result = InitialMap(
        x0=x0,
        displacement=displacement,
        a0=MatrixField.from_values(grid, a0_vals),
        residual_e1=residual_e1,
        residual_det=residual_det,
    )
    if residual_e1 > tol or residual_det > tol:
        raise NotConvergedError(
            f"initial map residuals e1={residual_e1:.3e}, det={residual_det:.3e} "
            f"exceed tol {tol:.1e} (plane residual {plane_res:.3e})",
            residual=max(residual_e1, residual_det),
        )
    return result

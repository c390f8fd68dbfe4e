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


# the (i, j) cofactor of a 3x3 matrix g as g[p] g[q] - g[r] g[s]
_COFACTOR_TERMS = (
    ((0, 0), ((1, 1), (2, 2)), ((2, 1), (1, 2))),
    ((0, 1), ((2, 0), (1, 2)), ((1, 0), (2, 2))),
    ((0, 2), ((1, 0), (2, 1)), ((2, 0), (1, 1))),
    ((1, 0), ((2, 1), (0, 2)), ((0, 1), (2, 2))),
    ((1, 1), ((0, 0), (2, 2)), ((2, 0), (0, 2))),
    ((1, 2), ((2, 0), (0, 1)), ((2, 1), (0, 0))),
    ((2, 0), ((0, 1), (1, 2)), ((1, 1), (0, 2))),
    ((2, 1), ((1, 0), (0, 2)), ((0, 0), (1, 2))),
    ((2, 2), ((0, 0), (1, 1)), ((1, 0), (0, 1))),
)


def cofactor_values(grad, out=None):
    """Return (B1, B2, A) raw arrays from grad Y values; A = (I + B1) + B2.

    out, three arrays of grad's shape, receives (B1, B2, A) when given.
    """
    dim = grad.shape[0]
    b1, b2, a = out if out is not None else (np.empty_like(grad) for _ in range(3))
    div = np.trace(grad, axis1=0, axis2=1, out=a[0, 0])  # a is written last
    np.negative(_transpose(grad), out=b1)
    for i in range(dim):
        b1[i, i] += div
    if dim == 2:
        b2[...] = 0.0
    else:  # b2[i, j] is the (i, j) cofactor of grad; a[0, 0] is scratch
        for (i, j), (p, q), (r, s) in _COFACTOR_TERMS:
            np.multiply(grad[p], grad[q], out=b2[i, j])
            b2[i, j] -= np.multiply(grad[r], grad[s], out=a[0, 0])
    np.copyto(a, b1)
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


# -- trajectory evaluation ----------------------------------------------------

# Entry budget of the largest intermediate of one evaluator chunk, the
# complex partial sums after the leading axis: components x (band modes / N_1)
# x points.
_TRIG_CHUNK_ENTRIES = 1 << 20


def make_trig_evaluator(field):
    """Exact trigonometric-sum evaluator of a band-limited real field at points.

    Sums Re m(k) c(k) e^{ik.y} over the modes of the field's band, with m
    the Hermitian multiplicity: for a real field that
    is zero outside the band, that is the sum over every mode of its full
    spectrum. The sum is factorized by axis, e^{ik.y} = prod_j e^{ik_j y_j}
    (sum factorization): m points take m * sum_j N_j exponentials, one table
    per axis, and one matmul over the leading axis (ncomp * nmodes * m complex
    multiply-adds); each remaining axis is then contracted by a weighted sum
    per point, on ever fewer modes. ``evaluate`` takes points of shape (m, d)
    and returns shape ``comp_shape + (m,)``.
    """
    grid = field.grid
    dim = grid.dim
    band = field.band * grid.multiplicity
    comp_shape = band.shape[: -dim]
    ncomp = int(np.prod(comp_shape))
    k1d = [ka.ravel() for ka in grid.k_axes]
    # (N_1, ncomp * N_2 * ... * K): the leading axis first, for one matmul
    shape = grid.band_shape
    lead = np.moveaxis(band.reshape((ncomp,) + shape), 1, 0).reshape(shape[0], -1)

    def evaluate(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != dim:
            raise ValueError(f"expected points of shape (m, {dim}), got {pts.shape}")
        m = pts.shape[0]
        out = np.empty((ncomp, m))
        chunk = max(1, _TRIG_CHUNK_ENTRIES // lead.shape[1])
        for lo in range(0, m, chunk):
            p = pts[lo:lo + chunk]
            c = p.shape[0]
            acc = np.exp(1j * np.multiply.outer(p[:, 0], k1d[0])) @ lead
            for j in range(1, dim):
                phase = np.exp(1j * np.multiply.outer(p[:, j], k1d[j]))
                # per point: (1, N_j) @ (N_j, rest of the band), every component
                acc = phase[:, None, None, :] @ acc.reshape(c, ncomp, shape[j], -1)
            out[:, lo:lo + chunk] = acc.reshape(c, ncomp).real.T
        return out.reshape(comp_shape + (m,))

    return evaluate


def _rk4_batch(fn, z, dt, nsteps, record):
    """nsteps of fixed-step RK4 for dz/dt = fn(z) on a batch of positions.

    Returns the last state and, with record, all nsteps + 1 states, the
    first included, stacked along a new leading axis (None without record).
    """
    out = np.empty((nsteps + 1,) + z.shape) if record else None
    if record:
        out[0] = z
    for i in range(nsteps):
        k1 = fn(z)
        k2 = fn(z + 0.5 * dt * k1)
        k3 = fn(z + 0.5 * dt * k2)
        k4 = fn(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if record:
            out[i + 1] = z
    return z, out


# -- initial map from a transversal magnetic field ---------------------------


@dataclass
class InitialMap:
    """Volume-preserving map straightening b0: A0^T b0(X0) = e1, det grad X0 = 1."""

    displacement: VectorField  # X0 - y (periodic)
    a0: MatrixField  # (grad X0)^{-T}, pointwise
    residual_e1: float
    residual_det: float


def _plane_reparametrization(b0_eval, grid: Grid, tol: float, max_iter: int):
    """Transverse map eta = id' + grad' phi with det(grad' eta) * b0^1(0, eta) = 1.

    Solved by a Picard iteration on the plane Poisson problem; the right-hand
    side is mean-corrected, which is consistent exactly when b0 admits a
    periodic straightening. ``b0_eval`` evaluates b0 at points
    (``make_trig_evaluator``).
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
    b0 is checked and evaluated, and the displacement differentiated, on the
    band: what either holds outside it is dropped.
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

    b0_eval = make_trig_evaluator(b0)
    eta, plane_res = _plane_reparametrization(b0_eval, grid, tol / 4.0, max_iter)

    h1 = grid.spacings[0]
    if substeps is None:
        substeps = max(2, int(np.ceil(2.0 * h1 / min(grid.spacings))))
    hs = h1 / substeps

    def rhs(pts):
        return b0_eval(pts).T  # (M, d)

    tshape = grid.sizes[1:]
    m = int(np.prod(tshape))
    z = np.zeros((m, grid.dim))
    for i in range(grid.dim - 1):
        z[:, i + 1] = eta[i].ravel()
    x0 = np.empty((grid.dim,) + grid.shape)
    x0[:, 0] = z.T.reshape((grid.dim,) + tuple(tshape))
    for j in range(1, grid.sizes[0]):
        z, _ = _rk4_batch(rhs, z, hs, substeps, record=False)
        x0[:, j] = z.T.reshape((grid.dim,) + tuple(tshape))

    coords = np.stack(np.broadcast_arrays(*grid.coords))
    y0 = x0 - coords
    if np.abs(y0).max() > min(grid.lengths) / 4.0:
        raise ConstructionFailedError(
            "constructed map strays too far from identity for a periodic chart"
        )
    displacement = VectorField.from_values(grid, y0)
    grad = gradient_values(displacement.band, grid)
    det = determinant_values(grad)
    a0_vals = cofactor_values(grad)[2] / det  # cof(I + grad Y) / det
    residual_det = float(np.abs(det - 1.0).max())

    pts = np.moveaxis(x0, 0, -1).reshape(-1, grid.dim)
    b_at_x0 = b0_eval(pts)  # (d, npts)
    at_b = np.einsum("ij...,i...->j...", a0_vals, b_at_x0.reshape((grid.dim,) + grid.shape))
    at_b[0] -= 1.0
    residual_e1 = float(np.abs(at_b).max())

    result = InitialMap(
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

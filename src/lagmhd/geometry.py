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
from .grid import Grid
from .spectral import divergence_norm, gradient_values


def check_bands(state, names):
    """Cast each named field of a state to a complex array and check it has
    the shape of a vector band of the state's grid, (d, *grid.band_shape);
    raises ValueError naming the first field that does not."""
    grid = state.grid
    shape = (grid.dim,) + grid.band_shape
    for name in names:
        band = np.asarray(getattr(state, name), dtype=complex)
        if band.shape != shape:
            raise ValueError(f"{name} has shape {band.shape}, not the band's {shape}")
        setattr(state, name, band)


@dataclass
class FlowState:
    """Lagrangian unknowns at time t: the bands of the displacement Y and the
    trajectory velocity Yt, complex (d, *grid.band_shape) arrays.

    A state is treated as immutable, a rule no type enforces: no step, force
    or sample writes into the arrays of a state it is given, and a state may
    share its arrays with another (``euler_from_flow`` hands a zero-
    displacement flow's Yt to the Eulerian u). Write into a copy.
    """

    grid: Grid
    Y: np.ndarray
    Yt: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        check_bands(self, ("Y", "Yt"))

    @classmethod
    def zeros(cls, grid: Grid, t: float = 0.0) -> "FlowState":
        y = np.zeros((grid.dim,) + grid.band_shape, dtype=complex)
        return cls(grid, y, np.zeros_like(y), t)


# -- raw-array kernels -------------------------------------------------------


def _matmul(a, b):
    return np.einsum("im...,mj...->ij...", a, b)


# the (i, j) cofactor of a 3x3 matrix g as g[p] g[q] - g[r] g[s], the
# diagonal first
_COFACTOR_TERMS = (
    ((0, 0), ((1, 1), (2, 2)), ((2, 1), (1, 2))),
    ((1, 1), ((0, 0), (2, 2)), ((2, 0), (0, 2))),
    ((2, 2), ((0, 0), (1, 1)), ((1, 0), (0, 1))),
    ((0, 1), ((2, 0), (1, 2)), ((1, 0), (2, 2))),
    ((0, 2), ((1, 0), (2, 1)), ((2, 0), (1, 1))),
    ((1, 0), ((2, 1), (0, 2)), ((0, 1), (2, 2))),
    ((1, 2), ((2, 0), (0, 1)), ((2, 1), (0, 0))),
    ((2, 0), ((0, 1), (1, 2)), ((1, 1), (0, 2))),
    ((2, 1), ((1, 0), (0, 2)), ((0, 0), (1, 2))),
)
# the 2D entries, in the same order; B2 is 0 in two dimensions
_PLANE_TERMS = [(ij, None, None) for ij, _, _ in _COFACTOR_TERMS if max(ij) < 2]


def cofactor_values(grad, out=None):
    """Return (B, A) raw arrays from grad Y values: B = B1 + B2 = A - I.

    Entry by entry, bit for bit B1 + B2 and (I + B1) + B2: B_ij = B2_ij - g_ji
    and A_ij = B_ij off the diagonal, B_ii = t + B2_ii and A_ii = (t + 1) + B2_ii
    with t = div - g_ii on it. out, two arrays of grad's shape, receives (B, A).
    """
    b, a = out if out is not None else (np.empty_like(grad), np.empty_like(grad))
    # div and t live in a[0, 1] and a[1, 0], which the diagonal does not write
    div, t = np.trace(grad, axis1=0, axis2=1, out=a[0, 1]), a[1, 0]
    for (i, j), pq, rs in _COFACTOR_TERMS if len(grad) == 3 else _PLANE_TERMS:
        b2 = 0.0
        if pq is not None:  # the (i, j) cofactor of grad; a[i, j] is scratch
            b2 = np.multiply(grad[pq[0]], grad[pq[1]], out=b[i, j])
            b2 -= np.multiply(grad[rs[0]], grad[rs[1]], out=a[i, j])
        if i == j:
            np.subtract(div, grad[i, i], out=t)
            np.add(t, 1.0, out=a[i, i])
            a[i, i] += b2
            np.add(t, b2, out=b[i, i])
        else:
            np.subtract(b2, grad[j, i], out=b[i, j])
            np.copyto(a[i, j], b[i, j])
    return b, a


def graded_metric_values(b1, b2):
    """Degree-homogeneous pieces of A^T A - I = (B1^T+B2^T) + (B1+B2) + (B1^T+B2^T)(B1+B2)."""
    b1t, b2t = np.swapaxes(b1, 0, 1), np.swapaxes(b2, 0, 1)
    g1 = b1 + b1t
    g2 = b2 + b2t + _matmul(b1t, b1)
    if b2.shape[0] == 2:
        return (g1, g2)
    g3 = _matmul(b1t, b2) + _matmul(b2t, b1)
    g4 = _matmul(b2t, b2)
    return (g1, g2, g3, g4)


def determinant_values(grad):
    """Pointwise det(I + grad Y), for d = 1, 2 or 3."""
    g = grad
    if g.shape[0] == 1:
        return 1.0 + g[0, 0]
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


def make_trig_evaluator(band, grid: Grid):
    """Exact trigonometric-sum evaluator of a band-limited real field at points.

    Sums Re m(k) c(k) e^{ik.y} over the modes of the band, a complex
    (*comp_shape, *grid.band_shape) array, with m
    the Hermitian multiplicity: for a real field that
    is zero outside the band, that is the sum over every mode of its full
    spectrum. The sum is factorized by axis, e^{ik.y} = prod_j e^{ik_j y_j}
    (sum factorization): m points take m * sum_j N_j exponentials, one table
    per axis, and one matmul over the leading axis (ncomp * nmodes * m complex
    multiply-adds); each remaining axis is then contracted by a weighted sum
    per point, on ever fewer modes. ``evaluate`` takes points of shape (m, d)
    and returns shape ``comp_shape + (m,)``.
    """
    dim = grid.dim
    band = band * grid.multiplicity
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


def _rk4_batch(fn, z, dt, nsteps):
    """nsteps of fixed-step RK4 for dz/dt = fn(z) on a batch of positions z:
    all nsteps + 1 states, the first included, stacked on a new leading axis."""
    out = np.empty((nsteps + 1,) + z.shape)
    out[0] = z
    for i in range(nsteps):
        k1 = fn(z)
        k2 = fn(z + 0.5 * dt * k1)
        k3 = fn(z + 0.5 * dt * k2)
        k4 = fn(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = z
    return out


# -- initial map from a transversal magnetic field ---------------------------


@dataclass
class InitialMap:
    """Volume-preserving map straightening b0: A0^T b0(X0) = e1, det grad X0 = 1."""

    displacement: np.ndarray  # the band of X0 - y (periodic)
    a0: np.ndarray  # (grad X0)^{-T}, samples of shape (d, d, *grid.shape)
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
        hess = np.empty((tdim, tdim) + tuple(tsizes))
        for i in range(tdim):
            for j in range(tdim):
                hess[i, j] = np.fft.ifftn(-kax[i] * kax[j] * phi_hat).real
        det_eta = determinant_values(hess)  # det(I + hessian(phi)) on the plane
        lap_phi = np.trace(hess)
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
    grid: Grid, b0, tol: float = 1e-8, max_iter: int = 60
) -> InitialMap:
    """Build X0 by flowing the plane {x1 = 0} along b0, given by its samples,
    a real (d, *grid.shape) array.

    X0(y1, y') integrates dZ/ds = b0(Z) from (0, eta(y')) for a parameter
    stretch s = y1, with eta the plane reparametrization that makes the map
    volume preserving. Periodic closure across the box requires the transverse
    drift and traversal-time integrals of b0 - e1 to vanish along trajectories
    (the admissibility of b0 - e1); the returned residuals measure any defect.
    b0's divergence is checked, b0 evaluated and the displacement differentiated
    on the band: what either holds outside it is dropped.
    """
    band = grid.rfft(b0)
    div = divergence_norm(band, grid)
    scale = 1.0 + float(np.abs(b0).max())
    if div > 1e-10 * scale:
        raise ConstructionFailedError(f"b0 is not divergence free: |div b0| = {div:.3e}")
    if b0[0].min() < 0.5:
        raise ConstructionFailedError(
            f"transversality violated: min b0^1 = {b0[0].min():.3g} < 1/2"
        )

    b0_eval = make_trig_evaluator(band, grid)
    eta, plane_res = _plane_reparametrization(b0_eval, grid, tol / 4.0, max_iter)

    h1 = grid.spacings[0]
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
        z = _rk4_batch(rhs, z, hs, substeps)[-1]
        x0[:, j] = z.T.reshape((grid.dim,) + tuple(tshape))

    coords = np.stack(np.broadcast_arrays(*grid.coords))
    y0 = x0 - coords
    if np.abs(y0).max() > min(grid.lengths) / 4.0:
        raise ConstructionFailedError(
            "constructed map strays too far from identity for a periodic chart"
        )
    displacement = grid.rfft(y0)
    grad = gradient_values(displacement, grid)
    det = determinant_values(grad)
    a0_vals = cofactor_values(grad)[1] / det  # cof(I + grad Y) / det
    residual_det = float(np.abs(det - 1.0).max())

    pts = np.moveaxis(x0, 0, -1).reshape(-1, grid.dim)
    b_at_x0 = b0_eval(pts)  # (d, npts)
    at_b = np.einsum("ij...,i...->j...", a0_vals, b_at_x0.reshape((grid.dim,) + grid.shape))
    at_b[0] -= 1.0
    residual_e1 = float(np.abs(at_b).max())

    result = InitialMap(
        displacement=displacement,
        a0=a0_vals,
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

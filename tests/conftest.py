import numpy as np
import pytest
import scipy.fft as sfft

from lagmhd.fields import VectorField
from lagmhd.geometry import _COFACTOR_TERMS, cofactor_values
from lagmhd.grid import ForceWorkspace, Grid, multi_indices
from lagmhd.pressure import PICARD_ABS_TOL, solve_pressure_spec
from lagmhd.spectral import divergence_band, gradient_values, riesz_apply_spec


@pytest.fixture(scope="session")
def grid3():
    return Grid((16, 16, 16), (2 * np.pi, 2 * np.pi, 2 * np.pi))


@pytest.fixture(scope="session")
def grid2():
    return Grid((32, 32), (2 * np.pi, 2 * np.pi))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def mesh(grid):
    return np.meshgrid(
        *[np.arange(n) * h for n, h in zip(grid.sizes, grid.spacings)], indexing="ij"
    )


class FullSpectrum:
    """Reference spectral tables over the first ``planes`` last-axis planes of
    the full FFT-ordered spectrum of a grid (all N_last of them by default;
    N_last/2 + 1 is the whole k_last >= 0 half), built from np.fft.fftfreq:
    the wide layout, every leading mode held.

    The Grid keeps the same tables on its band, the modes the 2/3 mask keeps
    of the first K planes, and the same element-by-element arithmetic makes
    them ``narrow`` of these. It has the attributes the spectral helpers
    read of a Grid (dim, band_shape, spatial_axes, volume, k_axes, ik,
    inv_lap), and ``dealias_mask``, so given it in place of the Grid they act
    on these planes.
    """

    def __init__(self, grid, planes=None):
        dim, n = grid.dim, grid.sizes[-1]
        planes = n if planes is None else planes
        self.dim, self.spatial_axes, self.volume = dim, grid.spatial_axes, grid.volume
        self.shape = self.band_shape = grid.sizes[:-1] + (planes,)

        def along(i, table):
            if i == dim - 1:
                table = table[:planes]
            return table.reshape([-1 if j == i else 1 for j in range(dim)])

        self.k_axes = tuple(
            along(i, 2.0 * np.pi * np.fft.fftfreq(m, d=h))
            for i, (m, h) in enumerate(zip(grid.sizes, grid.spacings))
        )
        self.ik = tuple(np.broadcast_to(1j * k, self.shape).copy() for k in self.k_axes)
        self.k2 = np.zeros(self.shape)
        for ka in self.k_axes:
            self.k2 = self.k2 + ka**2
        self.k1sq = self.k_axes[0] ** 2
        # -1/|k|^2, 0 on the mean mode, complex as the Grid stores it
        self.inv_lap = np.zeros(self.shape)
        np.divide(-1.0, self.k2, out=self.inv_lap, where=self.k2 > 0)
        self.inv_lap = self.inv_lap.astype(complex)
        self.dealias_mask = np.ones(self.shape)
        for i, m in enumerate(grid.sizes):
            kept = np.abs(np.fft.fftfreq(m) * m) <= int(np.ceil(m / 3.0)) - 1
            self.dealias_mask = self.dealias_mask * along(i, kept)

    def riesz_k_form(self, spec):
        """The Riesz projector in its k form on these planes, k (k . c) /
        |k|^2 and 0 on the mean mode: k . c over the real k_j, times
        1/|k|^2, then each k_i times that."""
        inv_k2 = np.zeros(self.shape)
        np.divide(1.0, self.k2, out=inv_k2, where=self.k2 > 0)
        kc = self.k_axes[0] * spec[0]
        for k, c in zip(self.k_axes[1:], spec[1:]):
            kc += k * c
        kc *= inv_k2
        return np.stack([k * kc for k in self.k_axes])

    def hs_weight(self, s):
        """The literal multi-index H^s weight on these planes."""
        w = np.zeros(self.shape)
        for alpha in multi_indices(self.dim, s):
            term = np.ones(self.shape)
            for ka, a in zip(self.k_axes, alpha):
                if a:
                    term = term * ka ** (2 * a)
            w += term
        return w


def weighted_inner(spec_a, spec_b, weight, grid):
    """V * Re sum_k w(k) c_a(k) conj(c_b(k)), summed over component channels."""
    acc = np.sum(weight * (spec_a * np.conj(spec_b)).real, axis=grid.spatial_axes)
    return float(grid.volume * np.sum(acc))


def poisoned_workspace(grid):
    """A workspace whose arrays all hold NaN, so that a kernel that reads
    anything it did not write in the same call shows it in its result."""
    work = ForceWorkspace(grid)
    for arr in vars(work).values():
        arr.fill(np.nan)
    return work


def identity_plus(b):
    """I + B on a fresh array: the cofactor A whole, from B."""
    a = b.copy()
    for i in range(len(b)):
        a[i, i] += 1.0
    return a


def a_times(b, v, transpose=False):
    """A v, or A^T v when transpose, on fresh arrays, with the cofactor
    A = I + B read as the force reads it: the product with B, then v added."""
    return np.einsum("ml...,m...->l..." if transpose else "im...,m...->i...", b, v) + v


def stacked_pair_force(state, q0=None):
    """(f band, PressureSolution) of ``compute_force`` at the floor tolerance,
    each step on fresh arrays: the pair [d1 Y, Yt] stacked into one array,
    B^T [v, w] by one stacked einsum plus the pair, its second row negated,
    and Z A by one contraction of the pair with it."""
    grid = state.grid
    grad_y = gradient_values(state.Y, grid)
    b = cofactor_values(grad_y)
    defect = np.einsum("mi...,mj...->ij...", b, b)
    defect += b
    defect += np.swapaxes(b, 0, 1)
    pair = np.stack([grad_y[:, 0], grid.irfft(state.Yt)])
    grad_yt = gradient_values(state.Yt, grid)
    at = np.einsum("ml...,pm...->pl...", b, pair) + pair
    np.negative(at[1], out=at[1])
    za = np.einsum("pi...,pl...->il...", pair, at)
    atw = a_times(b, grid.irfft(divergence_band(za, grid)), transpose=True)
    rhs = riesz_apply_spec(grid.rfft(atw), grid)
    pressure = solve_pressure_spec(
        grid, defect, rhs, PICARD_ABS_TOL, q0=q0, work=ForceWorkspace(grid)
    )
    a_gp = a_times(b, grid.irfft(pressure.grad_p))
    flux = np.einsum("jm...,im...->ij...", defect, grad_yt)
    return divergence_band(flux, grid, minus=a_gp), pressure


def cofactor_pieces(grad):
    """(B1, B2, A) of grad Y values by the graded algebra, each a whole array:
    B1 = div(Y) I - grad^T, B2 the cofactors of grad (zeros in 2D) and
    A = (I + B1) + B2. ``cofactor_values`` returns B1 + B2, bit for bit."""
    dim = grad.shape[0]
    b1 = np.negative(np.swapaxes(grad, 0, 1))
    for i in range(dim):
        b1[i, i] += np.trace(grad, axis1=0, axis2=1)
    b2 = np.zeros_like(grad)
    if dim == 3:
        for (i, j), (p, q), (r, s) in _COFACTOR_TERMS:
            b2[i, j] = grad[p] * grad[q] - grad[r] * grad[s]
    a = b1.copy()
    for i in range(dim):
        a[i, i] += 1.0
    a += b2
    return b1, b2, a


def same_bits(x, y):
    """Whether two float or complex arrays hold the same bits: shape, dtype,
    and every value, the sign of a zero included (np.array_equal on the
    integer view)."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    if x.shape != y.shape or x.dtype != y.dtype:
        return False
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


def leray_project(v):
    """Project the band of v onto divergence-free fields: v - riesz_apply_spec(v)."""
    return VectorField(v.grid, v.band - riesz_apply_spec(v.band, v.grid))


def mirror(grid, band):
    """Full spectrum from k_last >= 0 planes by c(-k) = conj(c(k)).

    Takes the band, a wide-layout array of its K planes or the whole N_last/2
    + 1 half; the modes the argument does not hold are zero.
    """
    if band.shape[band.ndim - grid.dim :] == grid.band_shape:
        band = widen(grid, band)
    n, k = grid.sizes[-1], band.shape[-1]
    m = min(k, n // 2) - 1  # mirrored planes: k_last = 1..m
    full = np.zeros(band.shape[:-1] + (n,), dtype=complex)
    full[..., :k] = band
    part = np.conj(band[..., m:0:-1])
    for ax in grid.spatial_axes[:-1]:  # leading index i -> -i mod N
        part = np.roll(np.flip(part, axis=ax), 1, axis=ax)
    full[..., n - m :] = part
    return full


def band_index(grid):
    """The band's modes in the wide layout, as an ``np.ix_`` index: on each
    leading axis the indices of |n_i| <= ceil(N_i/3) - 1 in its FFT order,
    on the last the first K planes. Built from np.fft.fftfreq, not from the
    Grid's own layout."""
    index = [
        np.flatnonzero(np.abs(np.fft.fftfreq(m) * m) <= int(np.ceil(m / 3.0)) - 1)
        for m in grid.sizes[:-1]
    ]
    return (Ellipsis,) + np.ix_(*index, np.arange(-(-grid.sizes[-1] // 3)))


def widen(grid, band, planes=None):
    """The wide-layout reference of a band: the first ``planes`` (K by
    default) last-axis planes of the FFT-ordered spectrum, every leading
    mode, the band's modes at their places and zeros elsewhere."""
    planes = -(-grid.sizes[-1] // 3) if planes is None else planes
    lead = band.shape[: band.ndim - grid.dim]
    wide = np.zeros(lead + grid.sizes[:-1] + (planes,), dtype=band.dtype)
    wide[band_index(grid)] = band
    return wide


def narrow(grid, wide):
    """The band of a wide-layout array, a spectrum or a whole table of at
    least K last-axis planes: its entries on the band's modes."""
    return wide[band_index(grid)]


def wide_lead_pass(arr, grid, inverse=False, axes=None):
    """arr's leading passes over the given axes (by default every leading
    spatial axis) as one fftn or ifftn on every line, written back: the
    transforms' leading stage before any pruning. scipy.fft calls the
    pocketfft c2c ``Grid.lead_pass`` runs in either dimension, so the two
    agree bit for bit whatever the versions."""
    c2c = sfft.ifftn if inverse else sfft.fftn
    axes = grid.spatial_axes[:-1] if axes is None else axes
    arr[...] = c2c(arr, axes=axes, norm="forward")
    return arr


def wide_rfft(grid, values):
    """The reference of ``Grid.rfft`` on the wide layout: the grid's
    last-axis stage, the leading passes on every line, the mask applied."""
    wide = wide_lead_pass(grid.last_forward(values), grid)
    return wide * FullSpectrum(grid, wide.shape[-1]).dealias_mask


def wide_irfft(grid, wide):
    """The reference of ``Grid.irfft`` of a wide-layout band: the leading
    passes on every line of its masked copy, the grid's last-axis stage."""
    wide = wide * FullSpectrum(grid, wide.shape[-1]).dealias_mask
    return grid.last_inverse(wide_lead_pass(wide, grid, inverse=True))


def zero_band(grid):
    """The band of a zero vector field: complex zeros of (d, *grid.band_shape)."""
    return np.zeros((grid.dim,) + grid.band_shape, dtype=complex)


def random_band_limited(grid, rng, rank=1, kmax=3, scale=1.0):
    """Random real field with spectrum confined to |n_i| <= kmax: a
    ``VectorField`` for rank 1, the real samples for rank 0 and 2."""
    shape = (grid.dim,) * rank + grid.shape
    vals = rng.standard_normal(shape)
    spec = grid.fft(vals)
    mask = np.ones(grid.shape, dtype=bool)
    for i, n in enumerate(grid.sizes):
        keep = np.abs(np.fft.fftfreq(n) * n) <= kmax
        mask &= keep.reshape([-1 if j == i else 1 for j in range(grid.dim)])
    spec = spec * mask
    spec = spec * FullSpectrum(grid).dealias_mask
    vals = grid.ifft(spec)
    vals *= scale / max(np.abs(vals).max(), 1e-300)
    return VectorField(grid, grid.rfft(vals)) if rank == 1 else vals

import numpy as np
import pytest

from lagmhd.fields import VectorField
from lagmhd.geometry import _COFACTOR_TERMS
from lagmhd.grid import ForceWorkspace, Grid, multi_indices
from lagmhd.spectral import dealias_spec, riesz_apply_spec


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
    N_last/2 + 1 is the whole k_last >= 0 half), built from np.fft.fftfreq.

    The Grid keeps the same tables on its band, the first K planes, and the
    same element-by-element arithmetic makes them the first K planes of
    these. It has the attributes the spectral helpers read of a Grid (dim,
    band_shape, spatial_axes, volume, k_axes, inv_k2, dealias_mask and
    dealias_mask_complex), so given it in place of the Grid they act on
    these planes.
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
        self.k2 = np.zeros(self.shape)
        for ka in self.k_axes:
            self.k2 = self.k2 + ka**2
        self.k1sq = self.k_axes[0] ** 2
        self.inv_k2 = np.zeros(self.shape)
        np.divide(1.0, self.k2, out=self.inv_k2, where=self.k2 > 0)
        self.dealias_mask = np.ones(self.shape)
        for i, m in enumerate(grid.sizes):
            kept = np.abs(np.fft.fftfreq(m) * m) <= int(np.ceil(m / 3.0)) - 1
            self.dealias_mask = self.dealias_mask * along(i, kept)
        self.dealias_mask_complex = self.dealias_mask.astype(complex)
        self.masked_inv_k2 = self.dealias_mask * self.inv_k2

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


def cofactor_pieces(grad):
    """(B1, B2, A) of grad Y values by the graded algebra, each a whole array:
    B1 = div(Y) I - grad^T, B2 the cofactors of grad (zeros in 2D) and
    A = (I + B1) + B2. ``cofactor_values`` returns B1 + B2 and this A, bit
    for bit."""
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
    return VectorField.from_band(v.grid, v.band - riesz_apply_spec(v.band, v.grid))


def mirror(grid, band):
    """Full spectrum from k_last >= 0 planes by c(-k) = conj(c(k)).

    Takes the band or the whole N_last/2 + 1 half; the planes the argument
    does not hold are zero.
    """
    n, k = grid.sizes[-1], band.shape[-1]
    m = min(k, n // 2) - 1  # mirrored planes: k_last = 1..m
    full = np.zeros(band.shape[:-1] + (n,), dtype=complex)
    full[..., :k] = band
    part = np.conj(band[..., m:0:-1])
    for ax in grid.spatial_axes[:-1]:  # leading index i -> -i mod N
        part = np.roll(np.flip(part, axis=ax), 1, axis=ax)
    full[..., n - m :] = part
    return full


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
    spec = dealias_spec(spec, FullSpectrum(grid))
    vals = grid.ifft(spec)
    vals *= scale / max(np.abs(vals).max(), 1e-300)
    return VectorField.from_values(grid, vals) if rank == 1 else vals

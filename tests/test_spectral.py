import numpy as np
import pytest
import scipy.fft as sfft

from lagmhd.fields import ScalarField, VectorField
from lagmhd.grid import Grid, multi_indices
from lagmhd.spectral import (
    dealias_spec,
    gradient_values,
    leray_project,
    riesz_apply_spec,
    weighted_inner,
    weighted_norm_sq,
)

from conftest import mesh, random_band_limited


# -- derivatives ---------------------------------------------------------------


def _scalar_gradient(f):
    """d_j f of a scalar field through gradient_values, as (dim, *shape)."""
    return gradient_values(f.spec[None], f.grid)[0]


def test_derivative_single_mode_exact(grid3):
    y1, _, _ = mesh(grid3)
    f = ScalarField.from_values(grid3, np.sin(y1))
    grad = _scalar_gradient(f)
    assert np.abs(grad[0] - np.cos(y1)).max() < 1e-12
    assert np.abs(grad[1:]).max() < 1e-12


def test_derivative_of_constant_vanishes(grid3):
    f = ScalarField.from_values(grid3, 3.7 * np.ones(grid3.shape))
    assert np.abs(_scalar_gradient(f)).max() < 1e-13


def test_mixed_derivative_analytic_and_fd_oracle():
    # f = sin(2 y1) cos(3 y2): d1 d2 f = -6 cos(2 y1) sin(3 y2),
    # confirmed by the centered-difference oracle below
    errs = []
    for n in (32, 64):
        g = Grid((n, n), (2 * np.pi, 2 * np.pi))
        y1, y2 = mesh(g)
        f = np.sin(2 * y1) * np.cos(3 * y2)
        d1f = _scalar_gradient(ScalarField.from_values(g, f))[0]
        spectral = _scalar_gradient(ScalarField.from_values(g, d1f))[1]
        exact = -6.0 * np.cos(2 * y1) * np.sin(3 * y2)
        assert np.abs(spectral - exact).max() < 1e-11
        # centered finite differences approach the spectral value at O(h^2)
        h1, h2 = g.spacings
        d1 = (np.roll(f, -1, 0) - np.roll(f, 1, 0)) / (2 * h1)
        d12 = (np.roll(d1, -1, 1) - np.roll(d1, 1, 1)) / (2 * h2)
        errs.append(np.abs(d12 - spectral).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


# -- Sobolev inner products -----------------------------------------------------


def _hs_inner(f, g, s):
    """(f|g)_{H^s} = sum_{|alpha|<=s} integral d^alpha f . d^alpha g, via Parseval."""
    return weighted_inner(f.spec, g.spec, f.grid.hs_weight(s), f.grid)


def test_hs_inner_product_single_mode_analytic(grid3):
    y1, _, _ = mesh(grid3)
    f = ScalarField.from_values(grid3, np.sin(y1))
    val = _hs_inner(f, f, 2)
    assert val == pytest.approx(3.0 * (2 * np.pi) ** 3 / 2.0, rel=1e-13)


def test_hs_inner_product_zero_field(grid3):
    z = ScalarField.zeros(grid3)
    for s in range(5):
        assert _hs_inner(z, z, s) == 0.0


def test_h0_matches_quadrature_oracle(grid3, rng):
    f = random_band_limited(grid3, rng, rank=0)
    g = random_band_limited(grid3, rng, rank=0)
    spectral = weighted_inner(f.spec, g.spec, 1.0, grid3)
    # the trapezoid rule, exact for periodic band-limited data
    quad = np.prod(grid3.spacings) * np.sum(f.values * g.values)
    assert spectral == pytest.approx(quad, rel=1e-10)


def test_hs_symmetry_and_positivity(grid3, rng):
    f = random_band_limited(grid3, rng, rank=1)
    g = random_band_limited(grid3, rng, rank=1)
    assert _hs_inner(f, g, 3) == pytest.approx(_hs_inner(g, f, 3), rel=1e-12)
    assert _hs_inner(f, f, 4) > 0.0


def test_hs_weight_is_literal_multi_index_sum():
    g = Grid((8, 8, 8), (2 * np.pi,) * 3)
    w = g.hs_weight(2)
    # at k = (1,1,0): 1 + (1+1+0) + (1+1+0 + 1+0+0) = 6, not (1+|k|^2)^2 = 9
    assert w[1, 1, 0] == pytest.approx(6.0, abs=1e-13)
    assert len(multi_indices(3, 2)) == 10


# -- projectors -------------------------------------------------------------


def test_riesz_identity_on_gradients(grid3, rng):
    phi = random_band_limited(grid3, rng, rank=0)
    grad = np.stack([1j * k * phi.spec for k in grid3.k_axes])
    out = riesz_apply_spec(grad, grid3)
    assert np.abs(out - grad).max() < 1e-12 * np.abs(grad).max()


def test_riesz_annihilates_divergence_free(grid3, rng):
    v = leray_project(random_band_limited(grid3, rng, rank=1))
    out = riesz_apply_spec(v.spec, grid3)
    assert np.abs(out).max() < 1e-12 * np.abs(v.spec).max()


def test_riesz_plus_leray_is_identity(grid3, rng):
    v = random_band_limited(grid3, rng, rank=1)
    recon = riesz_apply_spec(v.spec, grid3) + leray_project(v).spec
    assert np.abs(recon - v.spec).max() < 1e-12 * np.abs(v.spec).max()


def test_leray_output_divergence_free_and_idempotent(grid3, rng):
    v = random_band_limited(grid3, rng, rank=1)
    p = leray_project(v)
    div = np.zeros(grid3.shape, dtype=complex)
    for j in range(3):
        div += 1j * grid3.k_axes[j] * p.spec[j]
    assert np.abs(div).max() < 1e-12 * np.abs(v.spec).max()
    again = leray_project(p)
    assert np.abs(again.spec - p.spec).max() < 1e-13 * max(np.abs(p.spec).max(), 1e-300)


def test_riesz_l2_bounded(grid3, rng):
    v = random_band_limited(grid3, rng, rank=1)
    out = riesz_apply_spec(v.spec, grid3)
    assert weighted_norm_sq(out, 1.0, grid3) <= weighted_norm_sq(
        v.spec, 1.0, grid3
    ) * (1 + 1e-12)


# -- dealiasing and field representation ------------------------------------


def test_dealias_zeroes_top_third_and_is_idempotent(grid3, rng):
    d1 = dealias_spec(grid3.fft(rng.standard_normal(grid3.shape)), grid3)
    n = grid3.sizes[0]
    ncut = int(np.ceil(n / 3.0)) - 1
    freqs = np.abs(np.fft.fftfreq(n) * n)
    killed = freqs > ncut
    assert np.abs(d1[killed]).max() == 0.0
    d2 = dealias_spec(d1, grid3)
    assert np.array_equal(d1, d2)


@pytest.mark.parametrize("sizes", [(16, 8, 32), (32, 16)], ids=["3D", "2D"])
def test_dealias_mask_is_the_per_axis_two_thirds_rule(sizes):
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    n = np.meshgrid(*(np.fft.fftfreq(m) * m for m in sizes), indexing="ij")
    kept = np.all([np.abs(ni) < m / 3.0 for ni, m in zip(n, sizes)], axis=0)
    assert grid.dealias_mask.dtype == float
    assert np.array_equal(grid.dealias_mask, kept.astype(float))
    masked = grid.masked_inv_k2
    assert np.all(masked[~kept] == 0.0)
    assert masked[(0,) * grid.dim] == 0.0
    assert np.array_equal(masked[kept], grid.inv_k2[kept])


# non-cubic sizes and unequal lengths, so that a transposed axis shows
TRANSFORM_GRIDS = {
    "3D": Grid((16, 8, 32), (2 * np.pi, 3.0, 5.0)),
    "2D": Grid((32, 16), (64.0, 2 * np.pi)),
}


def _complex_ifft(grid, spec):
    return sfft.ifftn(spec * grid.npoints, axes=grid.spatial_axes).real


@pytest.mark.parametrize("dim", TRANSFORM_GRIDS)
def test_real_field_roundtrip_and_conjugate_symmetry(dim, rng):
    grid = TRANSFORM_GRIDS[dim]
    f = random_band_limited(grid, rng, rank=0)
    back = grid.ifft(f.spec)
    rel = np.abs(back - f.values).max() / np.abs(f.values).max()
    assert rel < 1e-12
    # c(-k) = conj(c(k)), with -k taken index by index mod N
    spec = f.spec
    negated = spec[np.ix_(*[(-np.arange(n)) % n for n in grid.sizes])]
    assert np.abs(negated - np.conj(spec)).max() < 1e-12 * np.abs(spec).max()
    assert back.dtype == np.float64 and back.flags.c_contiguous
    # the real-data transforms equal the complex ones on full-band data
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    spec = grid.fft(vals)
    full = sfft.fftn(vals, axes=grid.spatial_axes) / grid.npoints
    assert np.abs(spec - full).max() < 1e-14 * np.abs(full).max()
    want = _complex_ifft(grid, spec)
    assert np.abs(grid.ifft(spec) - want).max() < 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("dim", TRANSFORM_GRIDS)
def test_ifft_takes_the_real_part_of_odd_multiplier_spectra(dim, rng):
    # i k_j keeps the stored Nyquist wavenumber -N/2 unflipped, so the product
    # is not Hermitian on that hyperplane; ifft must still equal the real part
    grid = TRANSFORM_GRIDS[dim]
    spec = grid.fft(rng.standard_normal((grid.dim,) + grid.shape))
    for j in range(grid.dim):
        odd = spec * (1j * grid.k_axes[j])
        for s in (odd, riesz_apply_spec(odd, grid)):
            want = _complex_ifft(grid, s)
            assert np.abs(grid.ifft(s) - want).max() < 1e-14 * np.abs(want).max()


# -- the band -------------------------------------------------------------------

L3, L2 = (2 * np.pi, 3.0, 5.0), (64.0, 2 * np.pi)
HALF_GRIDS = {
    "3D": Grid((16, 8, 32), L3),
    "2D": Grid((32, 16), L2),
    "3D-cube": Grid((16, 16, 16), (2 * np.pi,) * 3),
}
# non-cubic grids with last axes of 4, 8 and 16
HALF_GRIDS.update(
    {
        f"{d}D-{n}": Grid(sizes, lengths)
        for n, lead in ((4, 16), (8, 4), (16, 8))
        for d, sizes, lengths in ((3, (8, lead, n), L3), (2, (4 * lead, n), L2))
    }
)


# an -open case takes data the 2/3 mask has not been applied to, or the whole
# k_last >= 0 half in place of the band: what Grid.fft, ifft, irfft, mirror
# and the full-spectrum path of gradient_values still take
HALF_CASES = list(HALF_GRIDS) + [f"{k}-open" for k in HALF_GRIDS if k != "3D-cube"]


def _case(name):
    """(grid, open) of a HALF_CASES name."""
    is_open = name.endswith("-open")
    return HALF_GRIDS[name.removesuffix("-open")], is_open


def _band_planes(grid):
    return -(-grid.sizes[-1] // 3)


def _whole_half_tables(grid):
    n = grid.sizes[-1]
    nh, sizes = n // 2 + 1, np.array(grid.sizes)
    # the last plane of the whole half is the Nyquist plane, whose stored
    # wavenumber -N/2 is its own negative
    assert grid.k_axes[-1].ravel()[nh - 1] == -np.pi * n / grid.lengths[-1]
    # the Nyquist points of the leading axes that Grid.ifft and gradient_values
    # project: dst in the half at interior k_last, src its negated wavevector,
    # and i k at both ends
    dst, src, ik_dst, ik_src = grid._nyquist_ik
    for end, ik in ((dst, ik_dst), (src, ik_src)):
        for j, ka in enumerate(grid.k_axes):
            assert np.array_equal(ik[j], np.broadcast_to(1j * ka, grid.sizes)[end])
    d, s = np.stack(dst[1:]), np.stack(src[1:])
    assert np.all((d + s) % sizes[:, None] == 0)
    assert np.all((d[-1] >= 1) & (d[-1] < n // 2))
    on_plane = d[:-1] == (sizes[:-1] // 2)[:, None]
    assert np.all(on_plane.any(axis=0))
    # each leading axis lists its whole hyperplane; crossings come twice
    lead = sizes[:-1]
    assert d.shape[1] == sum(np.prod(lead) // m for m in lead) * (n // 2 - 1)
    union = np.zeros(grid.sizes, dtype=bool)
    for i, m in enumerate(lead):
        union[(slice(None),) * i + (m // 2, Ellipsis)] = True
    union[..., [0] + list(range(n // 2, n))] = False
    listed = np.unique(np.ravel_multi_index(tuple(d), grid.sizes))
    assert np.array_equal(listed, np.flatnonzero(union))


@pytest.mark.parametrize("name", HALF_CASES)
def test_half_tables_are_the_first_last_axis_planes(name):
    grid, is_open = _case(name)
    if is_open:
        _whole_half_tables(grid)
        return
    half = grid.half
    nb, n = _band_planes(grid), grid.sizes[-1]
    cut = (Ellipsis, slice(0, nb))
    assert half.dim == grid.dim
    assert half.shape == grid.shape[:-1] + (nb,)
    assert half.spatial_axes == grid.spatial_axes and half.volume == grid.volume
    for kh, kf in zip(half.k_axes, grid.k_axes):
        assert np.array_equal(kh, kf[cut])
    for table in ("k2", "k1sq", "inv_k2", "masked_inv_k2", "dealias_mask"):
        assert np.array_equal(getattr(half, table), getattr(grid, table)[cut])
    # the mask keeps exactly the band's planes of the k_last >= 0 half, which
    # never reach the Nyquist plane
    assert nb < n // 2 + 1
    assert np.all(grid.dealias_mask[..., nb : n - nb + 1] == 0.0)
    assert np.all(half.dealias_mask.max(axis=tuple(range(grid.dim - 1))) == 1.0)
    multiplicity = np.full(nb, 2.0)
    multiplicity[0] = 1.0
    assert np.array_equal(half.norm_k2, grid.k2[cut] * multiplicity)


@pytest.mark.parametrize("name", HALF_CASES)
def test_half_norm_with_doubled_k2_equals_the_full_norm(name, rng):
    grid, is_open = _case(name)
    n = grid.sizes[-1]
    full = grid.fft(rng.standard_normal((grid.dim,) + grid.shape))
    if is_open:
        # the whole half of the unmasked spectrum: k_last = 0 and the
        # Nyquist plane N/2 count once, every other plane twice
        nb, half = n // 2 + 1, grid
        multiplicity = np.full(nb, 2.0)
        multiplicity[[0, -1]] = 1.0
        weight = grid.k2[..., :nb] * multiplicity
    else:
        # band-limited: the masked spectrum of a random real field
        nb, half, weight = grid.half.shape[-1], grid.half, grid.half.norm_k2
        full *= grid.dealias_mask
    for spec in [full] + [full * (1j * k) for k in grid.k_axes]:
        want = weighted_norm_sq(spec, grid.k2, grid)
        got = weighted_norm_sq(spec[..., :nb], weight, half)
        assert want > 0.0
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("name", HALF_CASES)
def test_rfft_irfft_round_trip_and_fft_is_the_mirror(name, rng):
    grid, is_open = _case(name)
    nb, axes = grid.half.shape[-1], grid.spatial_axes
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    half = sfft.rfftn(vals, axes=axes, norm="forward")
    band = grid.rfft(vals)
    assert band.shape == (grid.dim,) + grid.half.shape
    # the pruned transforms against the full ones
    assert np.abs(band - half[..., :nb]).max() <= 1e-15 * np.abs(half).max()
    if is_open:
        # the whole half, Nyquist planes included, goes back to the samples
        # and mirrors to the full spectrum
        kept = half.copy()
        back = grid.irfft(half)
        assert np.array_equal(half, kept)
        assert np.abs(back - vals).max() <= 1e-14 * np.abs(vals).max()
        full = sfft.fftn(vals, axes=axes, norm="forward")
        assert np.abs(grid.mirror(half) - full).max() <= 1e-15 * np.abs(full).max()
        assert np.array_equal(grid.fft(vals), grid.mirror(half))
        return
    padded = np.zeros_like(half)
    padded[..., :nb] = band
    want = sfft.irfftn(padded, s=grid.sizes, axes=axes, norm="forward")
    kept = band.copy()
    back = grid.irfft(band)
    assert np.array_equal(band, kept)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert np.abs(back - want).max() <= 1e-15 * np.abs(want).max()
    # fft is the mirror of the whole half; the mirror of a band is zero
    # on the planes the band does not hold
    assert np.array_equal(grid.fft(vals), grid.mirror(half))
    assert np.array_equal(grid.mirror(band), grid.mirror(padded))
    # a band-limited field goes round the pruned pair
    limited = band * grid.half.dealias_mask
    again = grid.rfft(grid.irfft(limited))
    assert np.abs(again - limited).max() <= 1e-14 * np.abs(limited).max()


@pytest.mark.parametrize("name", ["3D", "2D", "2D-4"])
def test_field_band_is_the_sliced_spectrum_or_rfft_of_values(name, rng):
    grid = HALF_GRIDS[name]
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    assert np.array_equal(VectorField.from_values(grid, vals).band, grid.rfft(vals))
    spec = grid.fft(vals)
    sliced = spec[..., : grid.half.shape[-1]]
    assert np.array_equal(VectorField.from_spec(grid, spec).band, sliced)


@pytest.mark.parametrize("name", ["3D", "2D", "3D-cube", "2D-4"])
def test_field_from_band_mirrors_its_spectrum_and_samples(name, rng):
    grid = HALF_GRIDS[name]
    band = grid.rfft(rng.standard_normal((grid.dim,) + grid.shape))
    band *= grid.half.dealias_mask
    f = VectorField.from_band(grid, band)
    assert np.array_equal(f.band, band)
    assert np.array_equal(f.spec, grid.mirror(band))
    assert np.array_equal(f.values, grid.ifft(f.spec))
    # samples first, spectrum second: both still come from the band
    g = VectorField.from_band(grid, band)
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(g.spec, f.spec)
    with pytest.raises(ValueError):
        VectorField.from_band(grid, grid.fft(grid.irfft(band)))


@pytest.mark.parametrize("name", HALF_CASES)
def test_gradient_values_equals_ifft_of_the_full_product(name, rng):
    grid, is_open = _case(name)
    shape = (grid.dim,) + grid.shape
    real = grid.fft(rng.standard_normal(shape))
    # a spectrum that is not Hermitian on the Nyquist hyperplanes, as an
    # odd multiplier leaves one
    general = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # unmasked spectra reach the Nyquist step; masked ones are zero there
    mask = 1.0 if is_open else grid.dealias_mask
    for spec in (real * mask, general * mask):
        buf = np.empty((grid.dim,) + shape, dtype=complex)
        for j in range(grid.dim):
            np.multiply(spec, 1j * grid.k_axes[j], out=buf[:, j])
        kept = spec.copy()
        assert np.array_equal(gradient_values(spec, grid), grid.ifft(buf))
        assert np.array_equal(spec, kept)


@pytest.mark.parametrize("name", HALF_CASES)
def test_gradient_values_of_a_band_equals_the_full_spectrum_path(name, rng):
    grid, is_open = _case(name)
    shape = (grid.dim,) + grid.shape
    band = grid.rfft(rng.standard_normal(shape))
    if is_open:
        # unmasked but for the Nyquist hyperplanes of the leading axes, the
        # one part of the band that the pruned irfft cannot take exactly
        for i, m in enumerate(grid.sizes[:-1]):
            band[(slice(None),) * (i + 1) + (m // 2,)] = 0.0
    else:
        band *= grid.half.dealias_mask
    full = grid.mirror(band)
    buf = np.empty((grid.dim,) + shape, dtype=complex)
    for j in range(grid.dim):
        np.multiply(full, 1j * grid.k_axes[j], out=buf[:, j])
    kept = band.copy()
    got = gradient_values(band, grid)
    assert np.array_equal(band, kept)
    assert np.array_equal(got, gradient_values(full, grid))
    assert np.array_equal(got, grid.ifft(buf))


def test_wavevector_lattice_contents():
    g = Grid((8, 16), (2 * np.pi, 4 * np.pi))
    assert sorted(np.round(g.k1d[0]).astype(int)) == list(range(-4, 4))
    # spacing 2*pi/L = 0.5 on the second axis
    assert sorted(np.round(g.k1d[1] / 0.5).astype(int)) == list(range(-8, 8))
    assert all(h > 0 for h in g.spacings)

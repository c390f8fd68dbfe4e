import numpy as np
import pytest
import scipy.fft as sfft

from lagmhd.energy import EnergyEvaluator
from lagmhd.fields import ScalarField, VectorField
from lagmhd.geometry import FlowState
import lagmhd.grid as grid_module
from lagmhd.grid import Grid, multi_indices
from lagmhd.spectral import (
    dealias_spec,
    gradient_values,
    riesz_apply_spec,
    weighted_norm_sq,
)

from conftest import (
    FullSpectrum,
    leray_project,
    mesh,
    mirror,
    random_band_limited,
    weighted_inner,
)


# -- derivatives ---------------------------------------------------------------


def _scalar_gradient(f):
    """d_j f of a scalar field through gradient_values, as (dim, *shape)."""
    return gradient_values(f.band[None], f.grid)[0]


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
    """(f|g)_{H^s} = sum_{|alpha|<=s} integral d^alpha f . d^alpha g, via Parseval
    over the band, with its Hermitian multiplicity."""
    grid = f.grid
    return weighted_inner(f.band, g.band, grid.hs_weight(s) * grid.multiplicity, grid)


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
    spectral = weighted_inner(f.band, g.band, grid3.multiplicity, grid3)
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
    grad = np.stack([1j * k * phi.band for k in grid3.k_axes])
    out = riesz_apply_spec(grad, grid3)
    assert np.abs(out - grad).max() < 1e-12 * np.abs(grad).max()


def test_riesz_annihilates_divergence_free(grid3, rng):
    v = leray_project(random_band_limited(grid3, rng, rank=1))
    out = riesz_apply_spec(v.band, grid3)
    assert np.abs(out).max() < 1e-12 * np.abs(v.band).max()


def test_riesz_plus_leray_is_identity(grid3, rng):
    v = random_band_limited(grid3, rng, rank=1)
    recon = riesz_apply_spec(v.band, grid3) + leray_project(v).band
    assert np.abs(recon - v.band).max() < 1e-12 * np.abs(v.band).max()


def test_leray_output_divergence_free_and_idempotent(grid3, rng):
    v = random_band_limited(grid3, rng, rank=1)
    p = leray_project(v)
    div = np.zeros(grid3.band_shape, dtype=complex)
    for j in range(3):
        div += 1j * grid3.k_axes[j] * p.band[j]
    assert np.abs(div).max() < 1e-12 * np.abs(v.band).max()
    again = leray_project(p)
    assert np.abs(again.band - p.band).max() < 1e-13 * max(np.abs(p.band).max(), 1e-300)


def test_riesz_l2_bounded(grid3, rng):
    v = random_band_limited(grid3, rng, rank=1)
    out = riesz_apply_spec(v.band, grid3)
    assert weighted_norm_sq(out, grid3.multiplicity, grid3) <= weighted_norm_sq(
        v.band, grid3.multiplicity, grid3
    ) * (1 + 1e-12)


# -- dealiasing and field representation ------------------------------------


def test_dealias_zeroes_top_third_and_is_idempotent(grid3, rng):
    d1 = dealias_spec(grid3.rfft(rng.standard_normal(grid3.shape)), grid3)
    n = grid3.sizes[0]
    ncut = int(np.ceil(n / 3.0)) - 1
    freqs = np.abs(np.fft.fftfreq(n) * n)
    killed = freqs > ncut
    assert np.abs(d1[killed]).max() == 0.0
    d2 = dealias_spec(d1, grid3)
    assert np.array_equal(d1, d2)


def test_dealias_with_the_complex_mask_keeps_the_float_masks_bits(grid3, rng):
    # the complex mask is the cast numpy makes of the float one, so every
    # product keeps its bits, signed zeros included
    band = grid3.rfft(rng.standard_normal((3,) + grid3.shape))
    band[0, ..., 0].imag = -0.0
    band[1] = -band[1]
    want = np.multiply(band, grid3.dealias_mask)
    got = dealias_spec(band, grid3)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    values = rng.standard_normal(grid3.band_shape)
    got = dealias_spec(values, grid3)
    assert got.dtype == float and np.array_equal(got, values * grid3.dealias_mask)


@pytest.mark.parametrize("sizes", [(16, 8, 32), (32, 16)], ids=["3D", "2D"])
def test_dealias_mask_is_the_per_axis_two_thirds_rule(sizes):
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    n = np.meshgrid(*(np.fft.fftfreq(m) * m for m in sizes), indexing="ij")
    kept = np.all([np.abs(ni) < m / 3.0 for ni, m in zip(n, sizes)], axis=0)
    kept = kept[..., : grid.band_shape[-1]]
    assert grid.dealias_mask.dtype == float
    assert np.array_equal(grid.dealias_mask, kept.astype(float))
    assert np.array_equal(grid.dealias_mask_complex, kept.astype(complex))
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
# the largest last axis whose last-axis stage is a matmul, and one past it,
# which keeps numpy's r2c/c2r
HALF_GRIDS.update({"3D-64": Grid((4, 4, 64), L3), "2D-128": Grid((8, 128), L2)})


# an -open case takes data the 2/3 mask has not been applied to, or the whole
# k_last >= 0 half in place of the band: what Grid.irfft and the full-spectrum
# oracle still take, and a band the mask has not cut on the leading axes
HALF_CASES = list(HALF_GRIDS) + [f"{k}-open" for k in HALF_GRIDS if k != "3D-cube"]


def _case(name):
    """(grid, open) of a HALF_CASES name."""
    is_open = name.endswith("-open")
    return HALF_GRIDS[name.removesuffix("-open")], is_open


def _band_planes(grid):
    return -(-grid.sizes[-1] // 3)


def _whole_half_tables(grid):
    n = grid.sizes[-1]
    nh = n // 2 + 1
    # the last plane of the whole half is the Nyquist plane, whose stored
    # wavenumber -N/2 is its own negative
    k_last = FullSpectrum(grid).k_axes[-1].ravel()
    assert k_last[nh - 1] == -np.pi * n / grid.lengths[-1]


@pytest.mark.parametrize("name", HALF_CASES)
def test_half_tables_are_the_first_last_axis_planes(name):
    # the Grid's tables are those of the full spectrum cut to the band, bit
    # for bit
    grid, is_open = _case(name)
    if is_open:
        _whole_half_tables(grid)
        return
    full = FullSpectrum(grid)
    nb, n = _band_planes(grid), grid.sizes[-1]
    cut = (Ellipsis, slice(0, nb))
    assert grid.band_shape == grid.shape[:-1] + (nb,)
    for kh, kf in zip(grid.k_axes, full.k_axes):
        assert np.array_equal(kh, kf[cut])
    for table in ("k2", "k1sq", "inv_k2", "masked_inv_k2", "dealias_mask"):
        assert np.array_equal(getattr(grid, table), getattr(full, table)[cut])
    for s in range(5):
        assert np.array_equal(grid.hs_weight(s), full.hs_weight(s)[cut])
    # the mask keeps exactly the band's planes of the k_last >= 0 half, which
    # never reach the Nyquist plane
    assert nb < n // 2 + 1
    assert np.all(full.dealias_mask[..., nb : n - nb + 1] == 0.0)
    assert np.all(grid.dealias_mask.max(axis=tuple(range(grid.dim - 1))) == 1.0)
    multiplicity = np.full(nb, 2.0)
    multiplicity[0] = 1.0
    assert np.array_equal(grid.multiplicity, multiplicity)
    assert np.array_equal(grid.norm_k2, full.k2[cut] * multiplicity)


def _arrays(obj):
    """Every ndarray in obj, or in the tuples, lists and dicts it holds."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)


@pytest.mark.parametrize("sizes", [(16, 8, 32), (32, 16)], ids=["3D", "2D"])
def test_grid_holds_no_table_larger_than_the_band(sizes, rng):
    # once the energy evaluator and the smallness functional have filled the
    # H^s weight cache, every table a Grid holds fits in the band
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    EnergyEvaluator(grid)
    state = FlowState(
        random_band_limited(grid, rng, rank=1), random_band_limited(grid, rng, rank=1)
    )
    assert EnergyEvaluator.initial_norm(state) > 0.0
    assert sorted(grid._hs_weights) == [1, 2, 3]
    arrays = list(_arrays(vars(grid)))
    assert len(arrays) >= 2 * grid.dim + 10
    band_size = int(np.prod(grid.band_shape))
    assert max(a.size for a in arrays) == band_size


@pytest.mark.parametrize("name", HALF_CASES)
def test_half_norm_with_doubled_k2_equals_the_full_norm(name, rng):
    grid, is_open = _case(name)
    n, tables = grid.sizes[-1], FullSpectrum(grid)
    full = grid.fft(rng.standard_normal((grid.dim,) + grid.shape))
    if is_open:
        # the whole half of the unmasked spectrum: k_last = 0 and the
        # Nyquist plane N/2 count once, every other plane twice
        nb, half = n // 2 + 1, tables
        multiplicity = np.full(nb, 2.0)
        multiplicity[[0, -1]] = 1.0
        weight = tables.k2[..., :nb] * multiplicity
    else:
        # band-limited: the masked spectrum of a random real field
        nb, half, weight = grid.band_shape[-1], grid, grid.norm_k2
        full *= tables.dealias_mask
    for spec in [full] + [full * (1j * k) for k in tables.k_axes]:
        want = weighted_norm_sq(spec, tables.k2, tables)
        got = weighted_norm_sq(spec[..., :nb], weight, half)
        assert want > 0.0
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("name", HALF_CASES)
def test_rfft_irfft_round_trip_and_fft_is_the_mirror(name, rng):
    grid, is_open = _case(name)
    nb, axes = grid.band_shape[-1], grid.spatial_axes
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    half = sfft.rfftn(vals, axes=axes, norm="forward")
    band = grid.rfft(vals)
    assert band.shape == (grid.dim,) + grid.band_shape
    # the pruned transforms against the full ones
    assert np.abs(band - half[..., :nb]).max() <= 1e-15 * np.abs(half).max()
    if is_open:
        # the whole half, Nyquist planes included, goes back to the samples
        # and mirrors to the full spectrum, which fft is
        kept = half.copy()
        back = grid.irfft(half)
        assert np.array_equal(half, kept)
        assert np.abs(back - vals).max() <= 1e-14 * np.abs(vals).max()
        full = sfft.fftn(vals, axes=axes, norm="forward")
        assert np.abs(mirror(grid, half) - full).max() <= 1e-15 * np.abs(full).max()
        assert np.array_equal(grid.fft(vals), full)
        return
    padded = np.zeros_like(half)
    padded[..., :nb] = band
    want = sfft.irfftn(padded, s=grid.sizes, axes=axes, norm="forward")
    kept = band.copy()
    back = grid.irfft(band)
    assert np.array_equal(band, kept)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert np.abs(back - want).max() <= 1e-15 * np.abs(want).max()
    # the mirror of a band is zero on the planes the band does not hold
    assert np.array_equal(mirror(grid, band), mirror(grid, padded))
    # a band-limited field goes round the pruned pair
    limited = band * grid.dealias_mask
    again = grid.rfft(grid.irfft(limited))
    assert np.abs(again - limited).max() <= 1e-14 * np.abs(limited).max()


@pytest.mark.parametrize("name", HALF_CASES)
def test_rfft_irfft_into_given_arrays_equal_the_allocating_forms(name, rng):
    grid, is_open = _case(name)
    n = grid.sizes[-1]
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    band = grid.rfft(vals)
    pad = np.full((grid.dim,) + grid.shape[:-1] + (n // 2 + 1,), np.nan, dtype=complex)
    out = np.full_like(band, np.nan)
    assert grid.rfft(vals, out=out, pad=pad) is out
    assert np.array_equal(out, band)
    # the whole k_last >= 0 half, or a band the mask has been applied to
    arg = sfft.rfftn(vals, axes=grid.spatial_axes, norm="forward") if is_open else (
        band * grid.dealias_mask
    )
    kept = arg.copy()
    want = grid.irfft(arg)
    assert np.array_equal(arg, kept)
    # a pad that rfft left full of planes beyond the band, and one of NaN
    for stale in (pad, np.full_like(pad, np.nan)):
        out = np.full_like(want, np.nan)
        assert grid.irfft(arg, out=out, pad=stale) is out
        assert np.array_equal(out, want)
        assert np.array_equal(arg, kept)


def test_grids_of_one_last_size_share_one_dft_table(monkeypatch, rng):
    seen = []
    tables = grid_module._dft_tables

    def recorded(n):
        seen.append(tables(n))
        return seen[-1]

    monkeypatch.setattr(grid_module, "_dft_tables", recorded)
    for grid in (HALF_GRIDS["3D"], HALF_GRIDS["2D-8"], Grid((8, 32), L2)):
        grid.irfft(grid.rfft(rng.standard_normal(grid.shape)) * grid.dealias_mask)
    # one (fwd, inv) pair per N_last, built once and shared
    assert len(seen) == 6
    assert seen[0] is seen[1] is seen[4] is seen[5] and seen[2] is seen[3]
    assert seen[0] is not seen[2]
    fwd, inv = seen[0]
    assert fwd.shape == (32, 2 * 11) and inv.shape == (2 * 17, 32)
    assert not fwd.flags.writeable and not inv.flags.writeable
    # the imaginary parts of k_last = 0 and N/2 are not read, as irfft's are not
    assert np.all(inv[1] == 0.0) and np.all(inv[-1] == 0.0)
    assert np.all(inv[0] == 1.0) and np.all(np.abs(inv[-2]) == 1.0)
    # past MATMUL_MAX_LAST the transforms build no table
    assert HALF_GRIDS["3D-64"].sizes[-1] == grid_module.MATMUL_MAX_LAST
    grid = HALF_GRIDS["2D-128"]
    grid.irfft(grid.rfft(rng.standard_normal(grid.shape)))
    assert len(seen) == 6


@pytest.mark.parametrize("name", ["3D", "2D", "2D-4"])
def test_field_band_is_the_sliced_spectrum_or_rfft_of_values(name, rng):
    grid = HALF_GRIDS[name]
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    assert np.array_equal(VectorField.from_values(grid, vals).band, grid.rfft(vals))
    spec = grid.fft(vals)
    sliced = spec[..., : grid.band_shape[-1]]
    assert np.array_equal(VectorField.from_spec(grid, spec).band, sliced)


@pytest.mark.parametrize("name", ["3D", "2D", "3D-cube", "2D-4"])
def test_field_from_band_mirrors_its_spectrum_and_samples(name, rng):
    grid = HALF_GRIDS[name]
    band = grid.rfft(rng.standard_normal((grid.dim,) + grid.shape))
    band *= grid.dealias_mask
    f = VectorField.from_band(grid, band)
    assert np.array_equal(f.band, band)
    assert np.array_equal(f.spec, grid.fft(grid.irfft(band)))
    assert np.array_equal(f.values, grid.irfft(band))
    # samples first, spectrum second: both still come from the band
    g = VectorField.from_band(grid, band)
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(g.spec, f.spec)
    with pytest.raises(ValueError):
        VectorField.from_band(grid, grid.fft(grid.irfft(band)))


@pytest.mark.parametrize("name", HALF_CASES)
def test_gradient_values_equals_ifft_of_the_full_product(name, rng):
    grid, is_open = _case(name)
    shape = (grid.dim,) + grid.band_shape
    real = grid.rfft(rng.standard_normal((grid.dim,) + grid.shape))
    # a band that is no real field's: k_last = 0 is not Hermitian in itself
    general = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for band in (real, general):
        if is_open:
            # unmasked but for the Nyquist hyperplanes of the leading axes, the
            # one part of a band that the pruned irfft cannot take exactly
            for i, m in enumerate(grid.sizes[:-1]):
                band[(slice(None),) * (i + 1) + (m // 2,)] = 0.0
        else:
            band *= grid.dealias_mask
        full = mirror(grid, band)
        buf = np.empty((grid.dim,) + full.shape, dtype=complex)
        for j, k in enumerate(FullSpectrum(grid).k_axes):
            np.multiply(full, 1j * k, out=buf[:, j])
        want = _complex_ifft(grid, buf)
        kept = band.copy()
        got = gradient_values(band, grid)
        assert np.array_equal(band, kept)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_wavevector_lattice_contents():
    g = Grid((8, 16), (2 * np.pi, 4 * np.pi))
    assert sorted(np.round(g.k_axes[0].ravel()).astype(int)) == list(range(-4, 4))
    # spacing 2*pi/L = 0.5 on the second, last axis, whose band holds
    # n = 0, ..., ceil(16/3) - 1
    assert list(np.round(g.k_axes[1].ravel() / 0.5).astype(int)) == list(range(6))
    assert all(h > 0 for h in g.spacings)

import importlib.machinery
import itertools
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft

from lagmhd.energy import EnergyEvaluator
from lagmhd.fields import VectorField
from lagmhd.geometry import FlowState
import lagmhd.grid as grid_module
from lagmhd.grid import ForceWorkspace, Grid, multi_indices
from lagmhd.spectral import (
    dealias_spec,
    divergence_band,
    gradient_values,
    riesz_apply_spec,
    weighted_norm_sq,
)

from conftest import (
    FullSpectrum,
    leray_project,
    mesh,
    mirror,
    narrow,
    poisoned_workspace,
    random_band_limited,
    same_bits,
    weighted_inner,
    wide_irfft,
    wide_lead_pass,
    wide_rfft,
    widen,
)


# -- derivatives ---------------------------------------------------------------


def _scalar_gradient(grid, f):
    """d_j f of scalar samples through gradient_values, as (dim, *shape)."""
    return gradient_values(grid.rfft(f)[None], grid)[0]


def test_derivative_single_mode_exact(grid3):
    y1, _, _ = mesh(grid3)
    grad = _scalar_gradient(grid3, np.sin(y1))
    assert np.abs(grad[0] - np.cos(y1)).max() < 1e-12
    assert np.abs(grad[1:]).max() < 1e-12


def test_derivative_of_constant_vanishes(grid3):
    f = 3.7 * np.ones(grid3.shape)
    assert np.abs(_scalar_gradient(grid3, f)).max() < 1e-13


def test_mixed_derivative_analytic_and_fd_oracle():
    # f = sin(2 y1) cos(3 y2): d1 d2 f = -6 cos(2 y1) sin(3 y2),
    # confirmed by the centered-difference oracle below
    errs = []
    for n in (32, 64):
        g = Grid((n, n), (2 * np.pi, 2 * np.pi))
        y1, y2 = mesh(g)
        f = np.sin(2 * y1) * np.cos(3 * y2)
        d1f = _scalar_gradient(g, f)[0]
        spectral = _scalar_gradient(g, d1f)[1]
        exact = -6.0 * np.cos(2 * y1) * np.sin(3 * y2)
        assert np.abs(spectral - exact).max() < 1e-11
        # centered finite differences approach the spectral value at O(h^2)
        h1, h2 = g.spacings
        d1 = (np.roll(f, -1, 0) - np.roll(f, 1, 0)) / (2 * h1)
        d12 = (np.roll(d1, -1, 1) - np.roll(d1, 1, 1)) / (2 * h2)
        errs.append(np.abs(d12 - spectral).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


# -- Sobolev inner products -----------------------------------------------------


def _hs_inner(grid, f, g, s):
    """(f|g)_{H^s} = sum_{|alpha|<=s} integral d^alpha f . d^alpha g of two
    bands, via Parseval over the band, with its Hermitian multiplicity."""
    return weighted_inner(f, g, grid.hs_weight(s) * grid.multiplicity, grid)


def test_hs_inner_product_single_mode_analytic(grid3):
    y1, _, _ = mesh(grid3)
    f = grid3.rfft(np.sin(y1))
    val = _hs_inner(grid3, f, f, 2)
    assert val == pytest.approx(3.0 * (2 * np.pi) ** 3 / 2.0, rel=1e-13)


def test_hs_inner_product_zero_field(grid3):
    z = grid3.rfft(np.zeros(grid3.shape))
    for s in range(5):
        assert _hs_inner(grid3, z, z, s) == 0.0


def test_h0_matches_quadrature_oracle(grid3, rng):
    f = random_band_limited(grid3, rng, rank=0)
    g = random_band_limited(grid3, rng, rank=0)
    spectral = weighted_inner(grid3.rfft(f), grid3.rfft(g), grid3.multiplicity, grid3)
    # the trapezoid rule, exact for periodic band-limited data
    quad = np.prod(grid3.spacings) * np.sum(f * g)
    assert spectral == pytest.approx(quad, rel=1e-10)


def test_hs_symmetry_and_positivity(grid3, rng):
    f = random_band_limited(grid3, rng, rank=1)
    g = random_band_limited(grid3, rng, rank=1)
    fg, gf = _hs_inner(grid3, f.band, g.band, 3), _hs_inner(grid3, g.band, f.band, 3)
    assert fg == pytest.approx(gf, rel=1e-12)
    assert _hs_inner(grid3, f.band, f.band, 4) > 0.0


def test_hs_weight_is_literal_multi_index_sum():
    g = Grid((8, 8, 8), (2 * np.pi,) * 3)
    w = g.hs_weight(2)
    # at k = (1,1,0): 1 + (1+1+0) + (1+1+0 + 1+0+0) = 6, not (1+|k|^2)^2 = 9
    assert w[1, 1, 0] == pytest.approx(6.0, abs=1e-13)
    assert len(multi_indices(3, 2)) == 10


# -- projectors -------------------------------------------------------------


def test_riesz_identity_on_gradients(grid3, rng):
    phi = random_band_limited(grid3, rng, rank=0)
    grad = np.stack([1j * k * grid3.rfft(phi) for k in grid3.k_axes])
    out = riesz_apply_spec(grad, grid3)
    assert np.abs(out - grad).max() < 1e-12 * np.abs(grad).max()


@pytest.mark.parametrize("sizes", [(16, 8, 32), (32, 16)], ids=["3D", "2D"])
def test_riesz_is_the_k_form_bit_for_bit(sizes, rng):
    # ik (inv_lap (ik . c)), the sign of Delta^-1 in the table, has the bits
    # of k (k . c) / |k|^2 on the real k_j: a factor i only moves and negates
    # the parts of a product; the same with the intermediates in out. Only
    # the sign of a zero may differ, in component i where k_i = 0, where 0
    # multiplies the other part of phi
    grid = Grid(sizes, (2 * np.pi, 3.0, 5.0)[: len(sizes)])
    band = grid.rfft(rng.standard_normal((grid.dim,) + grid.shape))
    full = FullSpectrum(grid, grid.band_shape[-1])
    want = narrow(grid, full.riesz_k_form(widen(grid, band)))
    nonzero = want != 0.0
    assert nonzero.mean() > 0.8
    out = np.full_like(band, np.nan)
    assert riesz_apply_spec(band, grid, out=out) is out
    for got in (riesz_apply_spec(band, grid), out):
        assert np.array_equal(got, want)
        assert same_bits(got[nonzero], want[nonzero])


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
    # the band holds no mode past the top third: in the wide layout its
    # modes are zero there, and dealias_spec, the mask on a band, is a copy
    d1 = dealias_spec(grid3.rfft(rng.standard_normal(grid3.shape)), grid3)
    n = grid3.sizes[0]
    ncut = int(np.ceil(n / 3.0)) - 1
    freqs = np.abs(np.fft.fftfreq(n) * n)
    killed = freqs > ncut
    assert np.abs(widen(grid3, d1)[killed]).max() == 0.0
    d2 = dealias_spec(d1, grid3)
    assert np.array_equal(d1, d2) and d2 is not d1


def test_dealias_spec_masks_as_zero_dropped_does(grid3, rng):
    # zero_dropped, the mask of the transforms' scratch, zeroes the dropped
    # blocks of a wide buffer in place, as the reference mask does; the band
    # of the result is the band of the buffer, which dealias_spec, the tests'
    # oracle and the name perfbench times, copies
    nb = grid3.band_shape[-1]
    wide = grid3.fft(rng.standard_normal((3,) + grid3.shape))[..., :nb]
    mask = FullSpectrum(grid3, nb).dealias_mask
    assert np.any(wide * (1.0 - mask))
    masked = grid3.zero_dropped(wide.copy())
    assert np.array_equal(masked, wide * mask)
    band = narrow(grid3, wide)
    assert np.array_equal(dealias_spec(band, grid3), narrow(grid3, masked))
    out = np.full((3,) + grid3.band_shape, np.nan, complex)
    assert dealias_spec(band, grid3, out=out) is out
    assert np.array_equal(out, band)


@pytest.mark.parametrize("sizes", [(16, 8, 32), (32, 16)], ids=["3D", "2D"])
def test_dealias_mask_is_the_per_axis_two_thirds_rule(sizes):
    # the band's modes are those the per-axis 2/3 rule keeps, in FFT order
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    for modes, m in zip(grid.modes[:-1], sizes):
        n = (np.fft.fftfreq(m) * m).astype(int)
        assert np.array_equal(modes, n[np.abs(n) < m / 3.0])
    assert np.array_equal(grid.modes[-1], np.arange(-(-sizes[-1] // 3)))
    n = np.meshgrid(*(np.fft.fftfreq(m) * m for m in sizes), indexing="ij")
    kept = np.all([np.abs(ni) < m / 3.0 for ni, m in zip(n, sizes)], axis=0)
    kept = kept[..., : grid.band_shape[-1]]
    assert int(kept.sum()) == int(np.prod(grid.band_shape))
    # zero_dropped, which the inverse transforms apply to their scratch,
    # zeroes the other modes, and inv_lap, the symbol of the Picard
    # potential, is -1/|k|^2 off the mean mode and 0 on it
    ones = np.ones(kept.shape, dtype=complex)
    assert np.array_equal(grid.zero_dropped(ones), kept.astype(complex))
    assert np.array_equal(widen(grid, np.ones(grid.band_shape)), kept.astype(float))
    assert grid.inv_lap[(0,) * grid.dim] == 0.0
    assert np.count_nonzero(grid.inv_lap) == grid.inv_lap.size - 1
    off = grid.k2 > 0
    assert np.allclose(grid.inv_lap.real[off] * grid.k2[off], -1.0, rtol=1e-15, atol=0.0)
    assert not grid.inv_lap.imag.any()


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
    spec = grid.fft(f)
    back = grid.ifft(spec)
    rel = np.abs(back - f).max() / np.abs(f).max()
    assert rel < 1e-12
    # c(-k) = conj(c(k)), with -k taken index by index mod N
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
# k_last >= 0 half in place of the band: what the full-spectrum oracle still
# takes, and what Grid.irfft and gradient_values read as its masked band
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
    # the Grid's tables are those of the full spectrum on the band's modes,
    # bit for bit
    grid, is_open = _case(name)
    if is_open:
        _whole_half_tables(grid)
        return
    full = FullSpectrum(grid)
    nb, n = _band_planes(grid), grid.sizes[-1]
    lead = tuple(2 * -(-m // 3) - 1 for m in grid.sizes[:-1])
    assert grid.band_shape == lead + (nb,)

    def cut(table):
        return narrow(grid, np.broadcast_to(table, full.shape))

    for kh, kf in zip(grid.k_axes, full.k_axes):
        assert np.array_equal(np.broadcast_to(kh, grid.band_shape), cut(kf))
    for table in ("k2", "k1sq", "inv_lap"):
        got = np.broadcast_to(getattr(grid, table), grid.band_shape)
        assert np.array_equal(got, cut(getattr(full, table)))
    for k, ik in zip(full.k_axes, grid.ik):
        assert np.array_equal(ik, cut(1j * k))
    for s in range(5):
        assert np.array_equal(grid.hs_weight(s), cut(full.hs_weight(s)))
    # the band keeps exactly the kept modes of the k_last >= 0 half, which
    # never reach the Nyquist plane
    assert nb < n // 2 + 1
    assert np.all(full.dealias_mask[..., nb : n - nb + 1] == 0.0)
    assert np.all(narrow(grid, full.dealias_mask) == 1.0)
    assert full.dealias_mask.sum() == 2 * np.prod(grid.band_shape) - np.prod(lead)
    multiplicity = np.full(nb, 2.0)
    multiplicity[0] = 1.0
    assert np.array_equal(grid.multiplicity, multiplicity)
    assert np.array_equal(grid.norm_k2, cut(full.k2) * multiplicity)


@pytest.mark.parametrize(
    "sizes",
    [(16, 16, 16), (32, 32, 32), (32, 8, 16), (4, 8, 128), (32, 16), (16, 128),
     (128, 128)],
)
def test_the_band_holds_the_kept_modes_only(sizes):
    # 2 ceil(N_i/3) - 1 modes on each leading axis, ceil(N_last/3) on the
    # last; every table on the band has its shape, and a negative index names
    # the wavenumber it names in the wide layout
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    shape = tuple(2 * -(-n // 3) - 1 for n in sizes[:-1]) + (-(-sizes[-1] // 3),)
    assert grid.band_shape == shape
    assert [len(m) for m in grid.modes] == list(shape)
    for table in (grid.k2, grid.inv_lap, grid.norm_k2, grid.hs_weight(2)) + grid.ik:
        assert table.shape == shape
    for i, k in enumerate(grid.k_axes + (grid.k1sq,)):
        assert np.broadcast_shapes(k.shape, shape) == shape
    full = FullSpectrum(grid, shape[-1])
    for i, n in enumerate(sizes[:-1]):
        # index j names n_i = j in both layouts for |j| <= c: n = -1 is -1
        c = shape[i] // 2
        at, wide_at = [0] * grid.dim, [0] * grid.dim
        for j in range(-c, c + 1):
            at[i] = wide_at[i] = j
            assert grid.modes[i][j] == j
            assert grid.k_axes[i].ravel()[j] == full.k_axes[i].ravel()[j]
            assert grid.k2[tuple(at)] == full.k2[tuple(wide_at)]
    # widening a band of its own indices puts each at its wavenumber
    index = np.arange(np.prod(shape)).reshape(shape).astype(float)
    wide = widen(grid, index)
    assert np.array_equal(narrow(grid, wide), index)
    assert np.count_nonzero(wide) == index.size - 1


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
    # H^s weight cache, every table a Grid holds fits in the band, but the
    # symbols of the transforms' stages: d tables of their wide scratch, K
    # planes of every leading mode, the size the band had before it held
    # the kept modes only
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    EnergyEvaluator(grid)
    state = FlowState(
        grid,
        random_band_limited(grid, rng, rank=1).band,
        random_band_limited(grid, rng, rank=1).band,
    )
    assert EnergyEvaluator.initial_norm(state) > 0.0
    assert sorted(grid._hs_weights) == [1, 2, 3]
    tables = {name: value for name, value in vars(grid).items() if name != "_wide_ik"}
    arrays = list(_arrays(tables))
    assert len(arrays) >= 2 * grid.dim + 10
    band_size = int(np.prod(grid.band_shape))
    assert max(a.size for a in arrays) == band_size
    wide = grid.sizes[:-1] + grid.band_shape[-1:]
    assert [a.shape for a in grid._wide_ik] == [wide] * grid.dim


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
        # band-limited: the masked spectrum of a random real field, whose
        # band is its kept modes
        nb, half, weight = grid.band_shape, grid, grid.norm_k2
        full *= tables.dealias_mask
    for spec in [full] + [full * (1j * k) for k in tables.k_axes]:
        want = weighted_norm_sq(spec, tables.k2, tables)
        part = spec[..., :nb] if is_open else narrow(grid, spec)
        got = weighted_norm_sq(part, weight, half)
        assert want > 0.0
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("name", HALF_CASES)
def test_rfft_irfft_round_trip_and_fft_is_the_mirror(name, rng):
    grid, is_open = _case(name)
    nb, axes = grid.band_shape[-1], grid.spatial_axes
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    half = sfft.rfftn(vals, axes=axes, norm="forward")
    masked = half * FullSpectrum(grid, half.shape[-1]).dealias_mask
    band = grid.rfft(vals)
    assert band.shape == (grid.dim,) + grid.band_shape
    # the pruned transforms keep the bits of the wide-layout reference on
    # every kept mode, and agree with the full ones
    assert same_bits(band, narrow(grid, wide_rfft(grid, vals)))
    assert np.abs(band - narrow(grid, half)).max() <= 1e-15 * np.abs(half).max()
    if is_open:
        # the band of the whole half, Nyquist planes included, is its kept
        # modes: it goes back to the samples of its masked part, and the
        # half mirrors to the full spectrum, which fft is
        back = grid.irfft(narrow(grid, half))
        assert same_bits(back, wide_irfft(grid, half[..., :nb]))
        want = sfft.irfftn(masked, s=grid.sizes, axes=axes, norm="forward")
        assert np.abs(back - want).max() <= 1e-14 * np.abs(vals).max()
        full = sfft.fftn(vals, axes=axes, norm="forward")
        assert np.abs(mirror(grid, half) - full).max() <= 1e-15 * np.abs(full).max()
        assert np.array_equal(grid.fft(vals), full)
        return
    padded = np.zeros_like(half)
    padded[..., :nb] = widen(grid, band)
    want = sfft.irfftn(padded, s=grid.sizes, axes=axes, norm="forward")
    kept = band.copy()
    back = grid.irfft(band)
    assert np.array_equal(band, kept)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert same_bits(back, wide_irfft(grid, widen(grid, band)))
    assert np.abs(back - want).max() <= 1e-15 * np.abs(want).max()
    # the mirror of a band is zero on the modes the band does not hold
    assert np.array_equal(mirror(grid, band), mirror(grid, padded))
    # a band-limited field goes round the pruned pair
    again = grid.rfft(grid.irfft(band))
    assert np.abs(again - band).max() <= 1e-14 * np.abs(band).max()


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
    # the band of the whole k_last >= 0 half, or rfft's band
    arg = narrow(grid, sfft.rfftn(vals, axes=grid.spatial_axes, norm="forward")) if (
        is_open) else band
    kept = arg.copy()
    want = grid.irfft(arg)
    assert np.array_equal(arg, kept)
    # a pad that rfft left full of planes beyond the band, one of NaN, and
    # one of the grid's pad_shape
    own = np.full((grid.dim,) + grid.pad_shape, np.nan, complex)
    for stale in (pad, np.full_like(pad, np.nan), own):
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
        grid.irfft(grid.rfft(rng.standard_normal(grid.shape)))
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
    # a field holds its grid and its band, whatever it was built from, and
    # reads its samples and spectrum back from the band
    grid = HALF_GRIDS[name]
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    spec = grid.fft(vals)
    # from a full spectrum: its kept modes, gathered
    for field, band in (
        (VectorField(grid, grid.rfft(vals)), grid.rfft(vals)),
        (VectorField.from_spec(grid, spec), narrow(grid, spec)),
    ):
        assert set(vars(field)) == {"grid", "band"}
        assert field.band.shape == (grid.dim,) + grid.band_shape
        assert same_bits(field.band, band)
        assert same_bits(field.values, grid.irfft(band))
        assert same_bits(field.spec, grid.fft(grid.irfft(band)))


@pytest.mark.parametrize("name", ["3D", "2D", "3D-cube", "2D-4"])
def test_field_from_band_mirrors_its_spectrum_and_samples(name, rng):
    grid = HALF_GRIDS[name]
    band = grid.rfft(rng.standard_normal((grid.dim,) + grid.shape))
    f = VectorField(grid, band)
    assert set(vars(f)) == {"grid", "band"}
    assert np.array_equal(f.band, band)
    assert np.array_equal(f.spec, grid.fft(grid.irfft(band)))
    assert np.array_equal(f.values, grid.irfft(band))
    # samples first, spectrum second: both still come from the band
    g = VectorField(grid, band)
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(g.spec, f.spec)
    with pytest.raises(ValueError):
        VectorField(grid, grid.fft(grid.irfft(band)))


@pytest.mark.parametrize("name", HALF_CASES)
def test_gradient_values_equals_ifft_of_the_full_product(name, rng):
    grid, is_open = _case(name)
    shape = (grid.dim,) + grid.band_shape
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    # an -open case takes the band of unmasked data, the kept modes of its
    # full spectrum; a band that is no real field's: k_last = 0 is not
    # Hermitian in itself
    real = narrow(grid, grid.fft(vals)) if is_open else grid.rfft(vals)
    general = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for band in (real, general):
        full = mirror(grid, band)
        buf = np.empty((grid.dim,) + full.shape, dtype=complex)
        for j, k in enumerate(FullSpectrum(grid).k_axes):
            np.multiply(full, 1j * k, out=buf[:, j])
        want = _complex_ifft(grid, buf)
        kept = band.copy()
        got = gradient_values(band, grid)
        assert np.array_equal(band, kept)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# the two last-axis branches of the shared-pass kernels in 2D and 3D: a
# matmul for N_last <= 64, numpy's r2c/c2r for N_last = 128
KERNEL_GRIDS = {
    "3D": HALF_GRIDS["3D"],
    "2D": HALF_GRIDS["2D"],
    "3D-64": HALF_GRIDS["3D-64"],
    "3D-128": Grid((4, 8, 128), L3),
    "2D-128": HALF_GRIDS["2D-128"],
}


@pytest.mark.parametrize("name", KERNEL_GRIDS)
def test_gradient_values_and_its_samples_against_fftn(name, rng):
    grid = KERNEL_GRIDS[name]
    d = grid.dim
    band = grid.rfft(rng.standard_normal((d,) + grid.shape))
    full = mirror(grid, band)
    want = np.stack(
        [np.fft.ifftn(1j * k * full, axes=grid.spatial_axes, norm="forward").real
         for k in FullSpectrum(grid).k_axes],
        axis=1,
    )
    kept = band.copy()
    values = np.full((d,) + grid.shape, np.nan)
    got = gradient_values(band, grid, values=values)
    assert np.array_equal(band, kept)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # the samples ride along bit for bit, and do not move the gradient
    assert np.array_equal(values, grid.irfft(band))
    assert np.array_equal(gradient_values(band, grid), got)
    # in a workspace whose arrays hold NaN, into its own arrays
    work = poisoned_workspace(grid)
    out = gradient_values(band, grid, out=work.grad_y, values=work.vec[0], slots=work.mat_band)
    assert out is work.grad_y
    assert np.array_equal(out, got) and np.array_equal(work.vec[0], values)


@pytest.mark.parametrize("name", KERNEL_GRIDS)
def test_divergence_band_against_fftn(name, rng):
    grid = KERNEL_GRIDS[name]
    d, nb = grid.dim, grid.band_shape[-1]
    mat = rng.standard_normal((d, d) + grid.shape)
    vec = rng.standard_normal((d,) + grid.shape)
    tables = FullSpectrum(grid)
    spec = np.fft.fftn(mat, axes=grid.spatial_axes, norm="forward")
    div = sum(1j * k * spec[:, j] for j, k in enumerate(tables.k_axes))
    minus = np.fft.fftn(vec, axes=grid.spatial_axes, norm="forward")
    for arg, full in ((None, div), (vec, div - minus)):
        want = narrow(grid, full)
        got = divergence_band(mat, grid, minus=arg)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        work = poisoned_workspace(grid)
        out = np.full_like(got, np.nan)
        assert divergence_band(mat, grid, out=out, work=work, minus=arg) is out
        assert np.array_equal(out, got)
    # a zero matrix leaves -rfft(minus) bit for bit: the passes run in
    # rfft's axis order
    zero = divergence_band(np.zeros_like(mat), grid, minus=vec)
    assert np.array_equal(zero, -grid.rfft(vec))


@pytest.mark.parametrize(
    "sizes, lengths",
    [((32, 32, 32), (16.0, 2 * np.pi, 2 * np.pi)), ((128, 128), (64.0, 2 * np.pi))],
    ids=["32^3", "128^2"],
)
def test_shared_pass_kernels_in_a_workspace_allocate_no_band(sizes, lengths, rng):
    # in a warm workspace the two kernels allocate numpy's bookkeeping
    # only (about 1.8 KB): an operand numpy cannot walk as one run, such as
    # the first K of the N_last/2 + 1 planes of numpy's r2c at 128^2, is
    # buffered, 88 KB there, and fails the bound; a vector band is 117 KB
    # at 128^2 and 233 KB at 32^3
    grid = Grid(sizes, lengths)
    d = grid.dim
    work = ForceWorkspace(grid)
    band = grid.rfft(rng.standard_normal((d,) + grid.shape))
    mat = rng.standard_normal((d, d) + grid.shape)
    vec = rng.standard_normal((d,) + grid.shape)
    out = np.empty_like(band)
    calls = (
        lambda: gradient_values(
            band, grid, out=work.grad_y, values=work.vec[0], slots=work.mat_band
        ),
        lambda: divergence_band(mat, grid, out=out, work=work, minus=vec),
    )
    for call in calls:
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8_192


# -- the pruned passes ------------------------------------------------------------


def _full_pass_stages(grid, vals, band, mat, vec):
    """rfft(vals), irfft(band), gradient_values(band) with its samples and
    divergence_band(mat, minus=vec) in the kernels' order of operations, on
    the wide-layout reference: every leading pass on every line, the forward
    ones unmasked, the symbols those of ``FullSpectrum``."""
    d, nb = grid.dim, grid.band_shape[-1]
    ik = [1j * k for k in FullSpectrum(grid, nb).k_axes]
    fwd = wide_lead_pass(grid.last_forward(vals), grid)
    wide = widen(grid, band)
    inv = grid.last_inverse(wide_lead_pass(wide.copy(), grid, inverse=True))
    slots = np.zeros((len(band), d) + wide.shape[1:], dtype=complex)
    slots[:, -1] = wide
    for a in range(d - 1):
        slots[:, a] = slots[:, -1] * ik[a]
        part = slots if a == d - 2 else slots[:, ::2]
        wide_lead_pass(part, grid, inverse=True, axes=(a - d,))
    values = grid.last_inverse(slots[:, -1].copy())
    slots[:, -1] *= ik[-1]
    grad = grid.last_inverse(slots)
    cols = grid.last_forward(mat)
    acc = cols[:, -1]
    acc *= ik[-1]
    acc -= grid.last_forward(vec)
    for a in range(d - 1):
        wide_lead_pass(cols[:, a:], grid, axes=(a - d,))
        cols[:, a] *= ik[a]
        acc += cols[:, a]
    return fwd, inv, (grad, values), acc


PRUNED_GRIDS = {
    "16": Grid((16, 16, 16), (2 * np.pi,) * 3),
    "32": Grid((32, 32, 32), (16.0, 2 * np.pi, 2 * np.pi)),
    "64": Grid((64, 64, 64), (2 * np.pi,) * 3),
    "3D-unequal": Grid((32, 8, 16), L3),
    "3D-128": KERNEL_GRIDS["3D-128"],
    "2D": HALF_GRIDS["2D"],
    "2D-128": Grid((16, 128), L2),
}


@pytest.mark.parametrize("name", PRUNED_GRIDS)
def test_pruned_passes_keep_the_bits_of_the_full_passes(name, rng):
    # every stage equals the wide-layout reference whose leading passes run
    # on every line, bit for bit on the modes the band keeps; given arrays
    # of NaN, and an irfft pad that rfft left stale. The band is that of
    # unmasked data, the kept modes of its full spectrum
    grid = PRUNED_GRIDS[name]
    d = grid.dim
    vals = rng.standard_normal((d,) + grid.shape)
    band = narrow(grid, grid.fft(rng.standard_normal((d,) + grid.shape)))
    mat = rng.standard_normal((d, d) + grid.shape)
    fwd, inv, (grad, samples), div = _full_pass_stages(grid, vals, band, mat, vals)

    pad = np.full((d,) + grid.pad_shape[:-1] + (grid.sizes[-1] // 2 + 1,), np.nan, complex)
    out = grid.rfft(vals, out=np.full_like(band, np.nan), pad=pad)
    got_inv = grid.irfft(band, out=np.full(vals.shape, np.nan), pad=pad)
    values = np.full(vals.shape, np.nan)
    got_grad = gradient_values(band, grid, out=np.full(mat.shape, np.nan), values=values)
    got_div = divergence_band(mat, grid, out=np.full_like(band, np.nan), minus=vals)
    for got, want in ((out, fwd), (got_div, div)):
        assert same_bits(got, narrow(grid, want))
    for got, want in ((got_inv, inv), (got_grad, grad), (values, samples)):
        assert same_bits(got, want)


@pytest.mark.parametrize("sizes", [(16,) * 3, (32,) * 3, (128, 128)], ids=["16", "32", "2D-128"])
def test_lead_pass_is_scipy_fft_written_in_place_on_the_kept_lines(sizes, rng):
    # each pass on a (3, N0[, N1], K) transform buffer equals scipy.fft's
    # fft or ifft (norm="forward") of the lines it runs on, bit for bit: in
    # 3D the forward pass along axis -2 on the kept n0 rows, the inverse one
    # along -3 on the kept n1 columns, the other two on every line, in 2D
    # both passes along -2 on every line; the other lines keep their values,
    # and the result is the buffer, written with no array the size of a
    # kept-line block allocated. The buffer is the K planes of one of
    # ``pad_shape``, as in ``Grid.irfft``: at 128^2 K = 43 of 65
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    d, nb = grid.dim, grid.band_shape[-1]
    shape = (3,) + grid.pad_shape
    for inverse, axis in itertools.product((False, True), grid.spatial_axes[:-1]):
        lines = [slice(None)] * (d + 1)
        if d == 3 and (inverse, axis) in ((False, -2), (True, -3)):
            across = -5 - axis  # the other leading axis
            lines[across] = grid.modes[across + 3] % grid.sizes[across + 3]
        lines = tuple(lines)
        arr = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[..., :nb]
        want = arr.copy()
        c2c = sfft.ifft if inverse else sfft.fft
        want[lines] = c2c(arr[lines], axis=axis, norm="forward")
        tracemalloc.start()
        got = grid.lead_pass(arr, (axis,), inverse=inverse)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert got is arr and same_bits(arr, want)
        assert peak < want[lines].nbytes // 3


def test_a_grid_without_the_pocketfft_extension_names_its_path(monkeypatch):
    # no fallback kernel: a 3D or a 2D grid whose extension file is not
    # there raises an ImportError that names the path it looked at
    monkeypatch.delitem(sys.modules, grid_module._POCKETFFT, raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    grid_module._pocketfft.cache_clear()
    try:
        for sizes in ((8, 8, 8), (8, 8)):
            with pytest.raises(ImportError, match=r"a grid needs .*pypocketfft\.missing\.so"):
                Grid(sizes, (1.0,) * len(sizes))
    finally:
        grid_module._pocketfft.cache_clear()


def test_wavevector_lattice_contents():
    g = Grid((8, 16), (2 * np.pi, 4 * np.pi))
    # the band holds |n| <= ceil(8/3) - 1 on the leading axis, in FFT order
    assert list(np.round(g.k_axes[0].ravel()).astype(int)) == [0, 1, 2, -2, -1]
    assert list(g.modes[0]) == [0, 1, 2, -2, -1]
    # spacing 2*pi/L = 0.5 on the second, last axis, whose band holds
    # n = 0, ..., ceil(16/3) - 1
    assert list(np.round(g.k_axes[1].ravel() / 0.5).astype(int)) == list(range(6))
    assert all(h > 0 for h in g.spacings)

import numpy as np
import pytest
import scipy.fft as sfft

from lagmhd.errors import GridMismatchError
from lagmhd.fields import ScalarField, VectorField
from lagmhd.grid import Grid, multi_indices
from lagmhd.spectral import (
    anisotropic_norm,
    dealias,
    gradient_values,
    hs_inner_product,
    l2_inner_quadrature,
    leray_project,
    partial_derivative,
    riesz_apply_spec,
    riesz_projector,
    sobolev_interpolation_monitor,
    weighted_norm_sq,
)

from conftest import mesh, random_band_limited


# -- derivatives ---------------------------------------------------------------


def test_derivative_single_mode_exact(grid3):
    y1, _, _ = mesh(grid3)
    f = ScalarField.from_values(grid3, np.sin(y1))
    df = partial_derivative(f, (1, 0, 0))
    assert np.abs(df.values - np.cos(y1)).max() < 1e-12


def test_derivative_of_constant_vanishes(grid3):
    f = ScalarField.from_values(grid3, 3.7 * np.ones(grid3.shape))
    for alpha in [(1, 0, 0), (0, 2, 0), (1, 1, 1)]:
        assert np.abs(partial_derivative(f, alpha).values).max() < 1e-13


def test_mixed_derivative_analytic_and_fd_oracle():
    # f = sin(2 y1) cos(3 y2): d1 d2 f = -6 cos(2 y1) sin(3 y2),
    # confirmed by the centered-difference oracle below
    errs = []
    for n in (32, 64):
        g = Grid((n, n), (2 * np.pi, 2 * np.pi))
        y1, y2 = mesh(g)
        f = np.sin(2 * y1) * np.cos(3 * y2)
        spectral = partial_derivative(ScalarField.from_values(g, f), (1, 1)).values
        exact = -6.0 * np.cos(2 * y1) * np.sin(3 * y2)
        assert np.abs(spectral - exact).max() < 1e-11
        # centered finite differences approach the spectral value at O(h^2)
        h1, h2 = g.spacings
        d1 = (np.roll(f, -1, 0) - np.roll(f, 1, 0)) / (2 * h1)
        d12 = (np.roll(d1, -1, 1) - np.roll(d1, 1, 1)) / (2 * h2)
        errs.append(np.abs(d12 - spectral).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_mixed_partials_commute(grid3, rng):
    from lagmhd.spectral import derivative_multiplier

    # elementwise multiplier products commute bitwise
    m1 = derivative_multiplier(grid3, (1, 0, 0))
    m2 = derivative_multiplier(grid3, (0, 1, 0))
    assert np.array_equal(m1 * m2, m2 * m1)
    # composed applications agree to the last bits (multiplication order only)
    f = random_band_limited(grid3, rng, rank=0)
    a = partial_derivative(partial_derivative(f, (1, 0, 0)), (0, 1, 0)).spec
    b = partial_derivative(partial_derivative(f, (0, 1, 0)), (1, 0, 0)).spec
    assert np.abs(a - b).max() <= 4e-16 * np.abs(a).max()


def test_derivative_validates_multi_index(grid3):
    f = ScalarField.zeros(grid3)
    with pytest.raises(ValueError):
        partial_derivative(f, (-1, 0, 0))
    with pytest.raises(ValueError):
        partial_derivative(f, (3, 2, 0))
    with pytest.raises(ValueError):
        partial_derivative(f, (1, 0))


# -- Sobolev inner products -----------------------------------------------------


def test_hs_inner_product_single_mode_analytic(grid3):
    y1, _, _ = mesh(grid3)
    f = ScalarField.from_values(grid3, np.sin(y1))
    val = hs_inner_product(f, f, 2)
    assert val == pytest.approx(3.0 * (2 * np.pi) ** 3 / 2.0, rel=1e-13)


def test_hs_inner_product_zero_field(grid3):
    z = ScalarField.zeros(grid3)
    for s in range(5):
        assert hs_inner_product(z, z, s) == 0.0


def test_h0_matches_quadrature_oracle(grid3, rng):
    f = random_band_limited(grid3, rng, rank=0)
    g = random_band_limited(grid3, rng, rank=0)
    spectral = hs_inner_product(f, g, 0)
    quad = l2_inner_quadrature(f, g)
    assert spectral == pytest.approx(quad, rel=1e-10)


def test_hs_symmetry_and_positivity(grid3, rng):
    f = random_band_limited(grid3, rng, rank=1)
    g = random_band_limited(grid3, rng, rank=1)
    assert hs_inner_product(f, g, 3) == pytest.approx(hs_inner_product(g, f, 3), rel=1e-12)
    assert hs_inner_product(f, f, 4) > 0.0


def test_hs_grid_mismatch_rejected(grid3, grid2):
    f3 = ScalarField.zeros(grid3)
    other = ScalarField.zeros(Grid((16, 16, 16), (4 * np.pi, 2 * np.pi, 2 * np.pi)))
    with pytest.raises(GridMismatchError):
        hs_inner_product(f3, other, 1)


def test_hs_weight_is_literal_multi_index_sum():
    g = Grid((8, 8, 8), (2 * np.pi,) * 3)
    w = g.hs_weight(2)
    # at k = (1,1,0): 1 + (1+1+0) + (1+1+0 + 1+0+0) = 6, not (1+|k|^2)^2 = 9
    assert w[1, 1, 0] == pytest.approx(6.0, abs=1e-13)
    assert len(multi_indices(3, 2)) == 10


# -- anisotropic norms ----------------------------------------------------------


def test_anisotropic_norm_constant_field(grid3):
    f = ScalarField.from_values(grid3, np.ones(grid3.shape))
    v = grid3.volume
    assert anisotropic_norm(f, 2, 2) == pytest.approx(np.sqrt(v), rel=1e-12)


def test_anisotropic_norm_separable_product_oracle():
    g = Grid((32, 16, 16), (2 * np.pi,) * 3)
    y1, y2, y3 = mesh(g)
    prof1 = 1.0 + 0.5 * np.cos(2 * y1)
    prof23 = np.exp(np.cos(y2)) * (1.0 + 0.3 * np.sin(y3))
    f = ScalarField.from_values(g, prof1 * prof23)
    h1 = g.spacings[0]
    cell23 = g.spacings[1] * g.spacings[2]
    line = prof1[:, 0, 0]
    plane = prof23[0]
    for p, q in [(2, 2), (4, 2), (6, 2), (np.inf, 2), (2, np.inf), (np.inf, np.inf)]:
        got = anisotropic_norm(f, p, q)
        gq = (
            np.max(np.abs(line))
            if q == np.inf
            else (h1 * np.sum(np.abs(line) ** q)) ** (1.0 / q)
        )
        hp = (
            np.max(np.abs(plane))
            if p == np.inf
            else (cell23 * np.sum(np.abs(plane) ** p)) ** (1.0 / p)
        )
        assert got == pytest.approx(gq * hp, rel=1e-8)


def test_anisotropic_norm_sup_outer_example(grid3):
    _, y2, _ = mesh(grid3)
    f = ScalarField.from_values(grid3, np.sin(y2))
    got = anisotropic_norm(f, np.inf, 2)
    assert got == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)


def test_anisotropic_norm_rejects_bad_exponents(grid3):
    f = ScalarField.zeros(grid3)
    with pytest.raises(ValueError):
        anisotropic_norm(f, 3, 2)
    with pytest.raises(ValueError):
        anisotropic_norm(f, 2, 4)


# -- projectors -------------------------------------------------------------


def test_riesz_identity_on_gradients(grid3, rng):
    phi = random_band_limited(grid3, rng, rank=0)
    grad = np.stack(
        [partial_derivative(phi, tuple(int(i == j) for j in range(3))).values
         for i in range(3)]
    )
    v = VectorField.from_values(grid3, grad)
    out = riesz_projector(v)
    assert np.abs(out.values - v.values).max() < 1e-12 * max(np.abs(v.values).max(), 1)


def test_riesz_annihilates_divergence_free(grid3, rng):
    v = leray_project(random_band_limited(grid3, rng, rank=1))
    out = riesz_projector(v)
    assert np.abs(out.values).max() < 1e-12 * np.abs(v.values).max()


def test_riesz_plus_leray_is_identity(grid3, rng):
    v = random_band_limited(grid3, rng, rank=1)
    recon = riesz_projector(v).spec + leray_project(v).spec
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


def test_riesz_matrix_input_matches_nested_divergence(grid3, rng):
    from lagmhd.spectral import divergence_spec, riesz_apply_spec

    m = random_band_limited(grid3, rng, rank=2)
    direct = riesz_projector(m).spec
    # inverse_laplacian grad div div M == vector Riesz applied to div2 M
    div2 = np.stack(
        [divergence_spec(m.spec[i], grid3) for i in range(3)]
    )
    via_vector = riesz_apply_spec(div2, grid3)
    # the matrix form is inverse_laplacian grad (div of div2), one more curl-free step
    expect = riesz_apply_spec(via_vector, grid3)
    # identical since via_vector is already a gradient
    assert np.abs(direct - via_vector).max() < 1e-12 * max(np.abs(via_vector).max(), 1e-300)
    assert np.abs(expect - via_vector).max() < 1e-12 * max(np.abs(via_vector).max(), 1e-300)


def test_riesz_l2_bounded(grid3, rng):
    from lagmhd.spectral import weighted_norm_sq

    v = random_band_limited(grid3, rng, rank=1)
    out = riesz_projector(v)
    assert weighted_norm_sq(out.spec, 1.0, grid3) <= weighted_norm_sq(
        v.spec, 1.0, grid3
    ) * (1 + 1e-12)


# -- dealiasing and field representation ------------------------------------


def test_dealias_zeroes_top_third_and_is_idempotent(grid3, rng):
    vals = rng.standard_normal(grid3.shape)
    f = ScalarField.from_values(grid3, vals)
    d1 = dealias(f)
    n = grid3.sizes[0]
    ncut = int(np.ceil(n / 3.0)) - 1
    freqs = np.abs(np.fft.fftfreq(n) * n)
    killed = freqs > ncut
    assert np.abs(d1.spec[killed]).max() == 0.0
    d2 = dealias(d1)
    assert np.array_equal(d1.spec, d2.spec)


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
    open_grid = Grid(sizes, grid.lengths, dealias=False)
    assert np.all(open_grid.dealias_mask == 1.0)
    assert np.array_equal(open_grid.masked_inv_k2, open_grid.inv_k2)


# non-cubic sizes and unequal lengths, so that a transposed axis shows
TRANSFORM_GRIDS = {
    "3D": Grid((16, 8, 32), (2 * np.pi, 3.0, 5.0), dealias=False),
    "2D": Grid((32, 16), (64.0, 2 * np.pi), dealias=False),
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
    "3D-open": TRANSFORM_GRIDS["3D"],
    "2D-open": TRANSFORM_GRIDS["2D"],
    "3D-cube": Grid((16, 16, 16), (2 * np.pi,) * 3),
}
# non-cubic grids with last axes of 4, 8 and 16, with and without the mask
HALF_GRIDS.update(
    {
        f"{d}D-{n}{'' if mask else '-open'}": Grid(sizes, lengths, dealias=mask)
        for n, lead in ((4, 16), (8, 4), (16, 8))
        for mask in (True, False)
        for d, sizes, lengths in ((3, (8, lead, n), L3), (2, (4 * lead, n), L2))
    }
)


def _band_planes(grid):
    n = grid.sizes[-1]
    return -(-n // 3) if grid.dealias else n // 2 + 1


@pytest.mark.parametrize("name", HALF_GRIDS)
def test_half_tables_are_the_first_last_axis_planes(name):
    grid = HALF_GRIDS[name]
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
    if grid.dealias:
        # the mask keeps exactly the band's planes of the k_last >= 0 half
        assert np.all(grid.dealias_mask[..., nb : n - nb + 1] == 0.0)
        assert np.all(half.dealias_mask.max(axis=tuple(range(grid.dim - 1))) == 1.0)
    else:
        # the Nyquist plane keeps the stored wavenumber -N/2
        assert half.k_axes[-1].ravel()[-1] == -np.pi * n / grid.lengths[-1]
    multiplicity = np.full(nb, 2.0)
    multiplicity[0] = 1.0
    if nb == n // 2 + 1:
        multiplicity[-1] = 1.0
    assert np.array_equal(half.norm_k2, grid.k2[cut] * multiplicity)


@pytest.mark.parametrize("name", HALF_GRIDS)
def test_half_norm_with_doubled_k2_equals_the_full_norm(name, rng):
    grid = HALF_GRIDS[name]
    nb = grid.half.shape[-1]
    # band-limited: the masked spectrum of a random real field
    full = grid.fft(rng.standard_normal((grid.dim,) + grid.shape))
    full *= grid.dealias_mask
    for spec in [full] + [full * (1j * k) for k in grid.k_axes]:
        want = weighted_norm_sq(spec, grid.k2, grid)
        got = weighted_norm_sq(spec[..., :nb], grid.half.norm_k2, grid.half)
        assert want > 0.0
        assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("name", HALF_GRIDS)
def test_rfft_irfft_round_trip_and_fft_is_the_mirror(name, rng):
    grid = HALF_GRIDS[name]
    nb, axes = grid.half.shape[-1], grid.spatial_axes
    vals = rng.standard_normal((grid.dim,) + grid.shape)
    half = sfft.rfftn(vals, axes=axes, norm="forward")
    band = grid.rfft(vals)
    assert band.shape == (grid.dim,) + grid.half.shape
    # the pruned transforms against the full ones
    assert np.abs(band - half[..., :nb]).max() <= 1e-15 * np.abs(half).max()
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


@pytest.mark.parametrize("name", ["3D", "2D", "3D-open", "2D-4"])
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


@pytest.mark.parametrize("name", HALF_GRIDS)
def test_gradient_values_equals_ifft_of_the_full_product(name, rng):
    grid = HALF_GRIDS[name]
    shape = (grid.dim,) + grid.shape
    real = grid.fft(rng.standard_normal(shape))
    # a spectrum that is not Hermitian on the Nyquist hyperplanes, as an
    # odd multiplier under an open mask leaves a stepped state
    general = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for spec in (real, general):
        buf = np.empty((grid.dim,) + shape, dtype=complex)
        for j in range(grid.dim):
            np.multiply(spec, 1j * grid.k_axes[j], out=buf[:, j])
        kept = spec.copy()
        assert np.array_equal(gradient_values(spec, grid), grid.ifft(buf))
        assert np.array_equal(spec, kept)


@pytest.mark.parametrize("name", HALF_GRIDS)
def test_gradient_values_of_a_band_equals_the_full_spectrum_path(name, rng):
    grid = HALF_GRIDS[name]
    shape = (grid.dim,) + grid.shape
    band = grid.rfft(rng.standard_normal(shape)) * grid.half.dealias_mask
    full = grid.mirror(band)
    buf = np.empty((grid.dim,) + shape, dtype=complex)
    for j in range(grid.dim):
        np.multiply(full, 1j * grid.k_axes[j], out=buf[:, j])
    kept = band.copy()
    got = gradient_values(band, grid)
    assert np.array_equal(band, kept)
    assert np.array_equal(got, gradient_values(full, grid))
    assert np.array_equal(got, grid.ifft(buf))


# -- gradient bound monitor ---------------------------------------------------


def test_monitor_zero_field_flagged(grid3):
    rep = sobolev_interpolation_monitor(VectorField.zeros(grid3))
    assert rep.undefined and rep.lhs == 0.0 and rep.rhs == 0.0


def test_monitor_single_mode_uses_stated_exponents(grid3):
    y1 = mesh(grid3)[0]
    vals = np.zeros((3,) + grid3.shape)
    vals[1] = np.sin(y1)
    rep = sobolev_interpolation_monitor(VectorField.from_values(grid3, vals))
    f = VectorField.from_values(grid3, vals)
    from lagmhd.spectral import weighted_norm_sq

    k4 = grid3.k2**2
    w1 = grid3.hs_weight(1)
    expect = (
        weighted_norm_sq(f.spec, k4 * w1, grid3) ** (5.0 / 12.0)
        * weighted_norm_sq(f.spec, grid3.k1sq * k4 * w1, grid3) ** (1.0 / 12.0)
    )
    assert rep.rhs == pytest.approx(expect, rel=1e-12)
    assert rep.lhs == pytest.approx(1.0, rel=1e-10)
    assert not rep.undefined


def test_monitor_ratio_stable_under_refinement(rng):
    coarse = Grid((32, 32, 32), (2 * np.pi,) * 3)
    fine = Grid((64, 64, 64), (2 * np.pi,) * 3)
    nc = coarse.sizes[0]
    src = (np.fft.fftfreq(nc) * nc).astype(int)
    fi = [src % fine.sizes[d] for d in range(3)]
    ratios_c, ratios_f = [], []
    for _ in range(100):
        f = random_band_limited(coarse, rng, rank=1, kmax=3)
        spec_f = np.zeros((3,) + fine.shape, dtype=complex)
        spec_f[np.ix_(range(3), fi[0], fi[1], fi[2])] = f.spec
        g = VectorField.from_spec(fine, spec_f)
        ratios_c.append(sobolev_interpolation_monitor(f).ratio)
        ratios_f.append(sobolev_interpolation_monitor(g).ratio)
    mc, mf = max(ratios_c), max(ratios_f)
    assert abs(mf - mc) / mf < 0.10


def test_wavevector_lattice_contents():
    g = Grid((8, 16), (2 * np.pi, 4 * np.pi))
    assert sorted(np.round(g.k1d[0]).astype(int)) == list(range(-4, 4))
    # spacing 2*pi/L = 0.5 on the second axis
    assert sorted(np.round(g.k1d[1] / 0.5).astype(int)) == list(range(-8, 8))
    assert all(h > 0 for h in g.spacings)

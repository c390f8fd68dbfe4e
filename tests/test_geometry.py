import numpy as np
import pytest

from lagmhd import geometry
from lagmhd.errors import ConstructionFailedError
from lagmhd.fields import VectorField
from lagmhd.geometry import (
    FlowState,
    cofactor_values,
    construct_initial_map,
    determinant_values,
    graded_metric_values,
    make_trig_evaluator,
)
from lagmhd.grid import Grid
from lagmhd.initial_data import (
    InitialDataSpec,
    ShearMode,
    build_flow_state,
    default_spec,
    scaled_spec,
)
from lagmhd.spectral import gradient_values

from conftest import (
    cofactor_pieces,
    leray_project,
    mesh,
    random_band_limited,
    same_bits,
    zero_band,
)


def shear_state(grid, eps=0.1):
    """Y = (0, eps sin y1, 0): the single-shear probe."""
    y1 = mesh(grid)[0]
    vals = np.zeros((grid.dim,) + grid.shape)
    vals[1] = eps * np.sin(y1)
    return VectorField(grid, grid.rfft(vals))


def cofactors(y):
    """(B1, B2, A) of a displacement field: B1 and B2 from the graded
    algebra, A from ``cofactor_values``."""
    grad = gradient_values(y.band, y.grid)
    b1, b2, _ = cofactor_pieces(grad)
    return b1, b2, cofactor_values(grad)[1]


def zero_field(grid):
    return VectorField(grid, zero_band(grid))


def metric_graded(y):
    b1, b2, _ = cofactors(y)
    return graded_metric_values(b1, b2)


def metric_defect(y):
    """A^T A - I summed from its graded pieces, as compute_force sums it."""
    return sum(metric_graded(y))


# -- cofactor expansion ------------------------------------------------------


def test_cofactor_identity_at_rest(grid3):
    b1, b2, a = cofactors(zero_field(grid3))
    eye = np.zeros((3, 3) + grid3.shape)
    for i in range(3):
        eye[i, i] = 1.0
    assert np.abs(a - eye).max() == 0.0
    assert np.abs(b1).max() == 0.0
    assert np.abs(b2).max() == 0.0


def test_cofactor_single_shear_closed_form(grid3):
    y = shear_state(grid3, eps=0.1)
    _, b2, a = cofactors(y)
    grad = gradient_values(y.band, grid3)
    assert np.abs(b2).max() < 1e-14
    # A = I - (grad Y)^T for a divergence-free shear
    expect = -np.swapaxes(grad, 0, 1).copy()
    for i in range(3):
        expect[i, i] += 1.0
    assert np.abs(a - expect).max() < 1e-12
    # cross-check against the dense inverse-transpose (det = 1 for the shear)
    m = np.moveaxis(grad, (0, 1), (-2, -1)).copy()
    m[..., 0, 0] += 1.0
    m[..., 1, 1] += 1.0
    m[..., 2, 2] += 1.0
    inv_t = np.swapaxes(np.linalg.inv(m), -2, -1)
    got = np.moveaxis(a, (0, 1), (-2, -1))
    assert np.abs(got - inv_t).max() < 1e-12


def test_cofactor_quadratic_entry_sign(grid3):
    # d2 Y^3 and d3 Y^2 both nonzero: B2[0,0] = -d2Y^3 d3Y^2 there
    _, y2, y3 = mesh(grid3)
    a, c = 0.2, 0.3
    vals = np.zeros((3,) + grid3.shape)
    vals[2] = a * np.sin(y2)
    vals[1] = c * np.sin(y3)
    _, b2, _ = cofactors(VectorField(grid3, grid3.rfft(vals)))
    expect = -a * np.cos(y2) * c * np.cos(y3)
    assert np.abs(b2[0, 0] - expect).max() < 1e-12


def test_cofactor_matches_brute_force_adjugate(grid3, rng):
    y = random_band_limited(grid3, rng, rank=1, kmax=2, scale=0.2)
    _, _, a = cofactors(y)
    grad = gradient_values(y.band, grid3)
    m = np.moveaxis(grad, (0, 1), (-2, -1)).copy()
    for i in range(3):
        m[..., i, i] += 1.0
    adj_t = np.linalg.inv(m) * np.linalg.det(m)[..., None, None]
    adj_t = np.swapaxes(adj_t, -2, -1)
    got = np.moveaxis(a, (0, 1), (-2, -1))
    assert np.abs(got - adj_t).max() < 1e-11


def test_cofactor_inverse_when_volume_preserving(grid3):
    # exact composition of shears: det(I + grad Y) = 1, so A^T (I + grad Y) = I
    grid = Grid((32, 32, 32), (2 * np.pi,) * 3)
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    _, _, a = cofactors(VectorField(grid, state.Y))
    grad = gradient_values(state.Y, grid)
    m = grad.copy()
    for i in range(3):
        m[i, i] += 1.0
    atm = np.einsum("ji...,jm...->im...", a, m)
    det_defect = np.abs(determinant_values(grad) - 1.0).max()
    # A^T (I + grad Y) = det * I exactly; the residual from I is the det defect
    for i in range(3):
        atm[i, i] -= 1.0
    assert np.abs(atm).max() < max(1e-10, 10.0 * det_defect)
    assert det_defect < 1e-8


def test_b_decomposition_sums_to_a(grid3, rng):
    y = random_band_limited(grid3, rng, rank=1, kmax=3, scale=0.5)
    b1, b2, a = cofactors(y)
    eye = np.zeros((3, 3) + grid3.shape)
    for i in range(3):
        eye[i, i] = 1.0
    resid = a - (eye + b1 + b2)
    assert np.abs(resid).max() == 0.0  # identity by construction


@pytest.mark.parametrize("amp", [1e-4, 0.05])
def test_metric_defect_from_b_matches_graded_sum(amp):
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), amp))
    grad = gradient_values(state.Y, grid)
    b1, b2, _ = cofactor_pieces(grad)
    b = cofactor_values(grad)[0]
    from_b = b + np.swapaxes(b, 0, 1) + np.einsum("mi...,mj...->ij...", b, b)
    graded = sum(graded_metric_values(b1, b2))
    scale = np.abs(graded).max()
    assert scale > 0.0
    assert np.abs(from_b - graded).max() < 1e-15 * scale


def _gradients_with_zeros(dim, rng, scale):
    """Random (dim, dim, 8, 8, 8) gradient samples, a quarter of them exact
    zeros of either sign, and one sample of each a zero matrix."""
    grad = scale * rng.standard_normal((dim, dim, 8, 8, 8))
    zeros = rng.random(grad.shape) < 0.25
    grad[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
    grad[..., 0, 0, 0] = 0.0
    grad[..., 1, 0, 0] = -0.0
    return grad


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("scale", [1e-3, 0.5])
def test_cofactor_values_keeps_the_graded_algebras_bits(dim, scale, rng):
    # B is B1 + B2 and A is (I + B1) + B2, bit for bit, signed zeros too,
    # into fresh arrays and into given ones
    grad = _gradients_with_zeros(dim, rng, scale)
    b1, b2, a_ref = cofactor_pieces(grad)
    b_ref = b1 + b2
    for out in (None, (np.full_like(grad, np.nan), np.full_like(grad, np.nan))):
        b, a = cofactor_values(grad, out=out)
        assert same_bits(b, b_ref)
        assert same_bits(a, a_ref)
        if out is not None:
            assert b is out[0] and a is out[1]


# -- determinant -------------------------------------------------------------


def _det(y):
    """det(I + grad Y) of a displacement field."""
    return determinant_values(gradient_values(y.band, y.grid))


def test_determinant_at_rest_and_shears(grid3):
    assert np.abs(_det(zero_field(grid3)) - 1).max() == 0
    y1, y2, _ = mesh(grid3)
    vals = np.zeros((3,) + grid3.shape)
    vals[0] = 0.3 * np.sin(y2)  # nilpotent gradient
    det = _det(VectorField(grid3, grid3.rfft(vals)))
    assert np.abs(det - 1.0).max() < 1e-13
    vals = np.zeros((3,) + grid3.shape)
    vals[0] = 0.3 * np.sin(y1)  # deliberately non-volume-preserving probe
    det = _det(VectorField(grid3, grid3.rfft(vals)))
    assert np.abs(det - (1.0 + 0.3 * np.cos(y1))).max() < 1e-12


def test_determinant_brute_force_oracle(grid3, rng):
    y = random_band_limited(grid3, rng, rank=1, kmax=2, scale=0.3)
    grad = gradient_values(y.band, grid3)
    m = np.moveaxis(grad, (0, 1), (-2, -1)).copy()
    for i in range(3):
        m[..., i, i] += 1.0
    expect = np.linalg.det(m)
    got = determinant_values(grad)
    assert np.abs(got - expect).max() < 1e-12


# -- graded metric pieces -----------------------------------------------------


def test_graded_zero_state(grid3):
    for g in metric_graded(zero_field(grid3)):
        assert np.abs(g).max() == 0.0


def test_graded_sum_reproduces_metric_defect(grid3, rng):
    y = random_band_limited(grid3, rng, rank=1, kmax=3, scale=0.4)
    _, _, a = cofactors(y)
    ata = np.einsum("ji...,jm...->im...", a, a)
    for i in range(3):
        ata[i, i] -= 1.0
    assert np.abs(metric_defect(y) - ata).max() < 1e-12


@pytest.mark.parametrize("s", [0.5, 0.25])
def test_graded_homogeneity(grid3, rng, s):
    y = random_band_limited(grid3, rng, rank=1, kmax=2, scale=0.3)
    base = metric_graded(y)
    scaled = metric_graded(VectorField(grid3, grid3.rfft(s * y.values)))
    for d, (g_base, g_scaled) in enumerate(zip(base, scaled), start=1):
        ref = np.abs(g_base).max() * s**d
        assert np.abs(g_scaled - s**d * g_base).max() < 1e-8 * ref


def test_graded_single_shear_structure(grid3):
    y = shear_state(grid3, eps=0.2)
    g1, g2, g3, g4 = metric_graded(y)
    b1, _, _ = cofactors(y)
    assert np.abs(g1 - (b1 + np.swapaxes(b1, 0, 1))).max() < 1e-14
    b1tb1 = np.einsum("ji...,jm...->im...", b1, b1)
    assert np.abs(g2 - b1tb1).max() < 1e-14
    assert np.abs(g3).max() < 1e-14
    assert np.abs(g4).max() < 1e-14


def test_graded_2d_has_two_pieces(grid2, rng):
    y = random_band_limited(grid2, rng, rank=1, kmax=3, scale=0.3)
    graded = metric_graded(y)
    assert len(graded) == 2
    _, b2, a = cofactors(y)
    assert np.abs(b2).max() == 0.0
    ata = np.einsum("ji...,jm...->im...", a, a)
    for i in range(2):
        ata[i, i] -= 1.0
    assert np.abs(metric_defect(y) - ata).max() < 1e-12


# -- flow state and trig evaluation ------------------------------------------


def test_flow_state_rejects_mismatched_grids(grid3):
    # a state has one grid: a field of another band shape is refused by name
    other = Grid((16, 8, 16), (4 * np.pi, 2 * np.pi, 2 * np.pi))
    with pytest.raises(ValueError, match="Yt"):
        FlowState(grid3, zero_band(grid3), zero_band(other))
    with pytest.raises(ValueError, match="Y "):
        FlowState(grid3, zero_band(grid3)[:2], zero_band(grid3))
    # a grid equals another of equal sizes and lengths, and no other: not
    # one whose lengths are those of a five-figure 2 pi
    same = Grid(grid3.sizes, grid3.lengths)
    assert grid3 == same
    assert Grid(grid3.sizes, (6.2832,) * 3) != Grid(grid3.sizes, (2 * np.pi,) * 3)
    FlowState(grid3, zero_band(grid3), zero_band(same))


def test_trig_evaluator_single_mode(grid3):
    y1 = mesh(grid3)[0]
    evaluate = make_trig_evaluator(grid3.rfft(np.sin(y1)), grid3)
    val = evaluate(np.array([[np.pi / 2, 0.0, 0.0]]))
    assert abs(val[0] - 1.0) < 1e-12
    assert evaluate(np.empty((0, 3))).shape == (0,)


def test_trig_evaluator_reproduces_grid_samples(grid3, rng):
    f = random_band_limited(grid3, rng, rank=0, kmax=4)
    coords = np.stack(np.broadcast_arrays(*grid3.coords))
    pts = np.moveaxis(coords, 0, -1).reshape(-1, 3)
    vals = make_trig_evaluator(grid3.rfft(f), grid3)(pts)
    assert np.abs(vals - f.ravel()).max() < 1e-12 * np.abs(f).max()


def test_trig_evaluator_matches_refined_grid(grid3, rng):
    f = random_band_limited(grid3, rng, rank=0, kmax=4)
    fine = Grid((32, 32, 32), grid3.lengths)
    # each coarse mode n at index n of the fine band, FFT-ordered both
    fi = [grid3.modes[d] % fine.band_shape[d] for d in range(2)]
    nb = grid3.band_shape[-1]
    band_f = np.zeros(fine.band_shape, dtype=complex)
    band_f[np.ix_(fi[0], fi[1], np.arange(nb))] = grid3.rfft(f)
    refined_vals = fine.irfft(band_f)
    pts = rng.uniform(0, 2 * np.pi, size=(50, 3))
    idx = np.round(pts / fine.spacings[0]).astype(int) % fine.sizes[0]
    snapped = idx * fine.spacings[0]
    direct = make_trig_evaluator(grid3.rfft(f), grid3)(snapped)
    oracle = refined_vals[idx[:, 0], idx[:, 1], idx[:, 2]]
    assert np.abs(direct - oracle).max() < 1e-10 * np.abs(f).max()


def _direct_trig_sum(band, grid, pts):
    """Oracle: Re sum_k m(k) c(k) e^{ik.y}, one complex exponential per point and mode."""
    band = band * grid.multiplicity
    comp_shape = band.shape[: -grid.dim]
    kmat = np.stack([np.broadcast_to(ka, grid.band_shape).ravel() for ka in grid.k_axes])
    return (band.reshape(comp_shape + (-1,)) @ np.exp(1j * (pts @ kmat)).T).real


# axes that differ in size and length, so that a swapped axis shows
_UNEVEN_GRIDS = {
    2: Grid((16, 8), (4.0, 2 * np.pi)),
    3: Grid((16, 8, 8), (16.0, 2 * np.pi, 3.0)),
}


@pytest.mark.parametrize("chunk_points", [None, 1, 3])
@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_trig_evaluator_matches_direct_sum(monkeypatch, rng, dim, rank, chunk_points):
    grid = _UNEVEN_GRIDS[dim]
    comp_shape = (dim,) * rank
    band = grid.rfft(rng.standard_normal(comp_shape + grid.shape))
    if chunk_points is not None:
        # chunks of chunk_points points; 10 points cross a chunk boundary
        per_point = int(np.prod(comp_shape)) * int(np.prod(grid.band_shape[1:]))
        monkeypatch.setattr(geometry, "_TRIG_CHUNK_ENTRIES", chunk_points * per_point)
    lengths = np.array(grid.lengths)
    pts = rng.uniform(-1.5, 2.5, size=(10, dim)) * lengths
    evaluate = make_trig_evaluator(band, grid)
    vals = evaluate(pts)
    expected = _direct_trig_sum(band, grid, pts)
    assert vals.shape == comp_shape + (10,)
    assert np.abs(vals - expected).max() <= 1e-13 * np.abs(expected).max()
    assert evaluate(np.empty((0, dim))).shape == comp_shape + (0,)
    for bad in (dim - 1, dim + 1):
        with pytest.raises(ValueError):
            evaluate(np.zeros((4, bad)))


# -- initial map construction ---------------------------------------------------


def test_initial_map_identity_for_uniform_field(grid3):
    b = np.zeros((3,) + grid3.shape)
    b[0] = 1.0
    result = construct_initial_map(grid3, b, tol=1e-10)
    assert result.residual_e1 < 1e-12
    assert result.residual_det < 1e-12
    assert np.abs(grid3.irfft(result.displacement)).max() < 1e-12
    eye = np.zeros((3, 3) + grid3.shape)
    for i in range(3):
        eye[i, i] = 1.0
    assert np.abs(result.a0 - eye).max() < 1e-12


def _roundtrip_b0(grid, amp):
    """b0 sampled from an exactly volume-preserving map: b0(X0(y)) = d1 X0(y)."""
    n1, n2, nc = ((1, 1), (2, -1), (1, 1)) if grid.dim == 3 else ((1,), (2,), (1,))
    spec = InitialDataSpec(
        shear_a=(ShearMode(n1, amp=amp, phase=0.3), ShearMode(n2, amp=0.5 * amp, phase=1.0)),
        shear_c=(ShearMode(nc, amp=0.4 * amp, phase=0.9),),
        velocity=(),
        epsilon0=None,
    )
    state = build_flow_state(grid, spec)
    from lagmhd.initial_data import euler_from_flow

    # the b field of the pushforward is exactly d1 X0 at mapped points
    euler = euler_from_flow(
        FlowState(grid, state.Y, zero_band(grid), 0.0)
    )
    e1_idx = (0,) + (0,) * grid.dim
    # keep the mean drift exactly e1 and the perturbation exactly solenoidal
    pert = euler.b.copy()
    pert[e1_idx] -= 1.0
    pert = leray_project(VectorField(grid, pert)).band
    pert[e1_idx] += 1.0
    return grid.irfft(pert), state


def test_initial_map_roundtrip_small_perturbation(grid3):
    b0, state = _roundtrip_b0(grid3, amp=1e-3)
    result = construct_initial_map(grid3, b0, tol=1e-6)
    assert result.residual_e1 <= 1e-6
    assert result.residual_det <= 1e-6
    # Liouville: det(grad X0) constant along y1 (div b0 = 0)
    grad = gradient_values(result.displacement, grid3)
    det = determinant_values(grad)
    along = det.max(axis=0) - det.min(axis=0)
    assert np.abs(along).max() < 5e-7


def test_initial_map_in_two_dimensions():
    # the seed plane is a line: the reparametrization solves on one axis
    grid = Grid((16, 16), (2 * np.pi, 2 * np.pi))
    b = np.zeros((2,) + grid.shape)
    b[0] = 1.0
    result = construct_initial_map(grid, b, tol=1e-10)
    assert result.residual_e1 <= 1e-12
    assert result.residual_det <= 1e-12
    b0, _ = _roundtrip_b0(grid, amp=1e-3)
    result = construct_initial_map(grid, b0, tol=1e-6)
    assert result.residual_e1 <= 1e-6
    assert result.residual_det <= 1e-6


def test_initial_map_a0_is_the_inverse_transpose_of_its_gradient(grid3):
    b0, _ = _roundtrip_b0(grid3, amp=1e-2)
    result = construct_initial_map(grid3, b0, tol=1e-6)
    grad = gradient_values(result.displacement, grid3)
    # (I + grad Y0) per point, matrix axes last for np.linalg
    m = np.moveaxis(grad, (0, 1), (-2, -1)) + np.eye(3)
    assert np.abs(m - np.eye(3)).max() > 1e-2  # well away from the identity
    expected = np.moveaxis(np.linalg.inv(m), (-1, -2), (0, 1))  # the transpose
    assert np.abs(result.a0 - expected).max() <= 1e-13


def test_initial_map_rejects_nontransversal_field(grid3):
    y1 = mesh(grid3)[0]
    b = np.zeros((3,) + grid3.shape)
    b[0] = 0.6 + 0.61 * np.cos(y1)  # dips below 1/2 (and touches ~0)
    with pytest.raises(ConstructionFailedError):
        construct_initial_map(grid3, b, tol=1e-8)


def test_initial_map_rejects_compressible_field(grid3):
    y1 = mesh(grid3)[0]
    b = np.zeros((3,) + grid3.shape)
    b[0] = 1.0 + 0.1 * np.sin(y1)
    with pytest.raises(ConstructionFailedError):
        construct_initial_map(grid3, b, tol=1e-8)


def test_initial_map_iteration_cap_reports_residual(grid3):
    from lagmhd.errors import NotConvergedError

    b0, _ = _roundtrip_b0(grid3, amp=1e-3)
    with pytest.raises(NotConvergedError) as err:
        construct_initial_map(grid3, b0, tol=1e-13, max_iter=1)
    assert err.value.residual is not None and err.value.residual > 0

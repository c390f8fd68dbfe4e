from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft as sfft

from lagmhd import pressure
from lagmhd.errors import NotConvergedError, PressureDivergenceError
from lagmhd.fields import VectorField
from lagmhd.evolution import compute_force
from lagmhd.geometry import FlowState, cofactor_values, graded_metric_values
from lagmhd.grid import Grid
from lagmhd.initial_data import build_flow_state, default_spec, scaled_spec
from lagmhd.pressure import PressureSolution, _tensor_rhs_spec, solve_pressure_spec
from lagmhd.spectral import (
    divergence_band,
    gradient_values,
    riesz_apply_spec,
    weighted_norm_sq,
)

from conftest import (
    FullSpectrum,
    cofactor_pieces,
    leray_project,
    mesh,
    narrow,
    poisoned_workspace,
    same_bits,
    widen,
    zero_band,
)


def l2(spec, grid):
    """L2 norm of a real field from k_last >= 0 planes of its spectrum."""
    return float(np.sqrt(weighted_norm_sq(spec, grid.multiplicity, grid)))


def half_spectrum(grid):
    """(tables, rfftn, irfftn) of the whole k_last >= 0 half of the spectrum,
    the N_last/2 + 1 planes that determine a real field: full-spectrum
    arithmetic on the planes the kernel's transforms work on."""
    n, axes = grid.sizes[-1], grid.spatial_axes
    half = FullSpectrum(grid, n // 2 + 1)
    # k_last = 0 and the Nyquist plane count once, every other plane twice
    half.multiplicity = np.full(n // 2 + 1, 2.0)
    half.multiplicity[[0, -1]] = 1.0

    def fft(values):
        return sfft.rfftn(values, axes=axes, norm="forward")

    def ifft(spec):
        return sfft.irfftn(spec, s=grid.sizes, axes=axes, norm="forward")

    return half, fft, ifft


def band_spectrum(grid):
    """(tables, grid.rfft, grid.irfft) on the band: the full-spectrum tables
    on the band's modes (``narrow``), with the kernel's own transforms,
    which hold the kept modes only."""
    full = FullSpectrum(grid, grid.band_shape[-1])
    band = SimpleNamespace(dim=grid.dim, band_shape=grid.band_shape, volume=grid.volume)
    band.ik = tuple(narrow(grid, ik) for ik in full.ik)
    band.inv_lap = narrow(grid, full.inv_lap)
    band.multiplicity = np.full(grid.band_shape[-1], 2.0)
    band.multiplicity[0] = 1.0
    return band, grid.rfft, grid.irfft


def small_state(grid, amp):
    return build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), amp))


def pressure_operands(state):
    """(A^T A - I, rhs band) assembled as compute_force assembles them."""
    grid = state.grid
    grad_y = gradient_values(state.Y, grid)
    b1, b2, _ = cofactor_pieces(grad_y)
    a = cofactor_values(grad_y)[1]
    defect = sum(graded_metric_values(b1, b2))
    rhs = _tensor_rhs_spec(grid, a, np.stack([grad_y[:, 0], grid.irfft(state.Yt)]))
    return defect, rhs


def solve_pressure(state, tol=1e-10):
    return compute_force(state, tol).pressure


def staged_divergence(mat, grid, minus=None):
    """Band of sum_j d_j mat[i, j] - minus[i], each column on fresh wide
    arrays through the Grid's stages, in ``divergence_band``'s order of
    operations: the last-axis stage, the column d - 1 times i k_last (less
    minus) as the running sum, then per leading axis j one pass of the
    columns not yet summed and of the sum, and column j times i k_j added,
    the symbols those of ``FullSpectrum``. The 2/3 mask, the band's modes
    of the sum (``narrow``), goes on after the last add."""
    d = grid.dim
    ik = [1j * k for k in FullSpectrum(grid, grid.band_shape[-1]).k_axes]
    out = []
    for i in range(len(mat)):
        cols = [grid.last_forward(mat[i, j]) for j in range(d)]
        acc = cols[-1] * ik[-1]
        if minus is not None:
            acc -= grid.last_forward(minus[i])
        for a in range(d - 1):
            for c in cols[a:-1] + [acc]:
                grid.lead_pass(c, (a - d,))
            acc += cols[a] * ik[a]
        out.append(narrow(grid, acc))
    return np.stack(out)


def mask_first_force(state, iterations):
    """(f, grad_p, residuals) with every 2/3 mask on the full product.

    The divergences are ``staged_divergence``; the other spectra are bands,
    through ``grid.rfft`` and ``grid.irfft`` (which ``test_spectral.py``
    pins to scipy's rfftn and irfftn), whose band of D grad_p holds the
    kept modes only before the Riesz projector; Picard runs on the 3-vector
    grad_p for the given number of iterations, with |grad_p_new - grad_p|
    as its residual.
    """
    grid = state.grid
    tables, fft, ifft = band_spectrum(grid)
    grad_y = gradient_values(state.Y, grid)
    b, a = cofactor_values(grad_y)
    grad_yt = gradient_values(state.Yt, grid)
    defect = np.einsum("mi...,mj...->ij...", b, b)
    defect += b
    defect += np.swapaxes(b, 0, 1)

    v, w = grad_y[:, 0], grid.irfft(state.Yt)
    za = np.einsum("i...,l...->il...", v, np.einsum("ml...,m...->l...", a, v))
    za -= np.einsum("i...,l...->il...", w, np.einsum("ml...,m...->l...", a, w))
    w_real = ifft(staged_divergence(za, grid))
    atw = np.einsum("jm...,j...->m...", a, w_real)
    rhs = riesz_apply_spec(fft(atw), tables)

    gp = rhs.copy()
    residuals = []
    for _ in range(iterations):
        mgp = np.einsum("jm...,m...->j...", defect, ifft(gp))
        gp_new = rhs - riesz_apply_spec(fft(mgp), tables)
        residuals.append(l2(gp_new - gp, tables))
        gp = gp_new
    flux = np.einsum("jm...,im...->ij...", defect, grad_yt)
    a_gp = np.einsum("im...,m...->i...", a, ifft(gp))
    return staged_divergence(flux, grid, minus=a_gp), gp, residuals


FORCE_CASES = {
    "3D": ((16, 16, 16), 0.05),
    "2D": ((32, 32), 0.1),
    "3D-strong": ((16, 16, 16), 0.12),
}


@pytest.mark.parametrize("case", FORCE_CASES)
def test_force_matches_mask_first_assembly(case):
    sizes, amp = FORCE_CASES[case]
    state = small_state(Grid(sizes, (2 * np.pi,) * len(sizes)), amp)
    force = compute_force(state)
    assert force.pressure.iterations >= 5
    f, gp, _ = mask_first_force(state, force.pressure.iterations)
    for got, want in ((force.f.band, f), (force.pressure.grad_p, gp)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", FORCE_CASES)
def test_residual_is_the_step_of_grad_p(case):
    sizes, amp = FORCE_CASES[case]
    state = small_state(Grid(sizes, (2 * np.pi,) * len(sizes)), amp)
    sol = solve_pressure(state, tol=1e-12)
    _, _, ref = mask_first_force(state, sol.iterations)
    got = np.array(sol.residuals)
    ref = np.array(ref)
    # the 3-vector difference cancels to an absolute error of about
    # eps |grad_p|, so the tolerance is relative to the first step; steps
    # below 1e-6 of it, where that form keeps fewer than about ten correct
    # digits, are left out
    big = ref > 1e-6 * ref[0]
    assert big.sum() >= 5
    assert np.abs(got[big] - ref[big]).max() <= 1e-12 * ref[0]


# -- right-hand side -----------------------------------------------------------


def test_rhs_zero_state(grid3):
    _, rhs = pressure_operands(FlowState.zeros(grid3))
    assert np.abs(grid3.irfft(rhs)).max() == 0.0


def test_rhs_single_mode_against_direct_convolution(grid3):
    # Y = 0, Yt = v cos(k.y + phi): rhs = inv_lap grad div div(-Yt x Yt),
    # assembled by hand from the two modes of cos^2
    k = np.array([1.0, 2.0, 0.0])
    v = np.array([2.0, -1.0, 0.5])
    v -= k * (k @ v) / (k @ k)  # divergence free
    phi = 0.37
    y1, y2, y3 = mesh(grid3)
    theta = k[0] * y1 + k[1] * y2 + k[2] * y3 + phi
    yt = v[:, None, None, None] * np.cos(theta)
    state = FlowState(
        grid3, zero_band(grid3), VectorField.from_values(grid3, yt).band, 0.0
    )
    got = grid3.irfft(pressure_operands(state)[1])

    # Yt x Yt = vv^T (1 + cos(2 theta))/2; div div annihilates the constant
    vv = np.outer(v, v)
    k2v = 2.0 * k
    quad = (k2v @ vv @ k2v) / 2.0  # coefficient of cos(2 theta) after div div: -q...
    # div div (vv^T cos(2theta)/2) = -(2k)_i (2k)_j vv_ij cos(2theta)/2
    # rhs = inv_lap grad div div(-Yt x Yt) -> per-mode algebra:
    ddz = quad  # div div (Yt x Yt) carries -quad cos; minus sign flips it
    # inv_lap grad of c*cos(2theta): gradient -> -c*2k sin /|2k|^2 * (-1)
    k2sq = float(k2v @ k2v)
    expect = np.zeros_like(yt)
    for i in range(3):
        expect[i] = (ddz / k2sq) * k2v[i] * np.sin(2.0 * (theta - phi) + 2.0 * phi)
    assert np.abs(got - expect).max() < 1e-10 * max(np.abs(expect).max(), 1.0)


def test_rhs_swap_antisymmetry(grid3, rng):
    state = small_state(Grid((16, 16, 16), (2 * np.pi,) * 3), 0.05)
    grid = state.grid
    grad_y = gradient_values(state.Y, grid)
    a_vals = cofactor_values(grad_y)[1]
    d1y = grad_y[:, 0]
    a = _tensor_rhs_spec(grid, a_vals, np.stack([d1y, grid.irfft(state.Yt)]))
    b = _tensor_rhs_spec(grid, a_vals, np.stack([grid.irfft(state.Yt), d1y]))
    assert np.abs(a + b).max() == 0.0


def test_rhs_matches_outer_product_form():
    # Z A with Z = v x v - w x w formed as a matrix, against the mat-vec form
    state = small_state(Grid((16, 16, 16), (2 * np.pi,) * 3), 0.05)
    grid = state.grid
    grad_y = gradient_values(state.Y, grid)
    a_vals = cofactor_values(grad_y)[1]
    v, w = grad_y[:, 0], grid.irfft(state.Yt)
    half, fft, ifft = half_spectrum(grid)
    z = np.einsum("i...,j...->ij...", v, v) - np.einsum("i...,j...->ij...", w, w)
    za_spec = fft(np.einsum("im...,ml...->il...", z, a_vals)) * half.dealias_mask
    div_za = np.zeros((3,) + half.shape, dtype=complex)
    for l in range(3):
        div_za += 1j * half.k_axes[l] * za_spec[:, l]
    atw = np.einsum("jm...,j...->m...", a_vals, ifft(div_za))
    ref = riesz_apply_spec(fft(atw) * half.dealias_mask, half)
    got = widen(grid, _tensor_rhs_spec(grid, a_vals, np.stack([v, w])), ref.shape[-1])
    scale = np.abs(ref).max()
    assert scale > 0.0
    assert np.abs(got - ref).max() < 1e-14 * scale


def _two_outer_products_rhs(grid, a, v, w):
    """R[A^T div2((v x v - w x w) A)] by two mat-vecs, two outer products
    and a subtraction, each einsum on fresh arrays."""
    at_v = np.einsum("ml...,m...->l...", a, v)
    at_w = np.einsum("ml...,m...->l...", a, w)
    za = np.einsum("i...,l...->il...", v, at_v)
    za -= np.einsum("i...,l...->il...", w, at_w)
    w_real = grid.irfft(divergence_band(za, grid))
    atw = np.einsum("jm...,j...->m...", a, w_real)
    return riesz_apply_spec(grid.rfft(atw), grid)


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_the_stacked_rhs_keeps_the_bits_of_two_outer_products(sizes, rng):
    # on the criterion-6 data, and on random samples with exact zeros of
    # either sign; the pair in the workspace's b, as compute_force keeps it
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    state = small_state(grid, 0.05)
    grad_y = gradient_values(state.Y, grid)
    a_vals = cofactor_values(grad_y)[1]
    noise = rng.standard_normal((2, grid.dim) + grid.shape)
    zeros = rng.random(noise.shape) < 0.25
    noise[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
    for pair in (np.stack([grad_y[:, 0], grid.irfft(state.Yt)]), noise):
        want = _two_outer_products_rhs(grid, a_vals, pair[0], pair[1])
        assert same_bits(_tensor_rhs_spec(grid, a_vals, pair.copy()), want)
        work = poisoned_workspace(grid)
        work.b[:2] = pair
        got = _tensor_rhs_spec(grid, a_vals, work.b[:2], work=work)
        assert same_bits(got, want)
        assert same_bits(work.b[:2], pair)  # the pair is read, not written


# -- fixed point -----------------------------------------------------------------


def test_zero_state_converges_immediately(grid3):
    state = FlowState.zeros(grid3)
    sol = solve_pressure(state)
    assert sol.iterations == 1
    assert np.abs(grid3.irfft(sol.grad_p)).max() == 0.0


def test_contraction_estimate_tracks_amplitude():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    ratios = []
    for amp in (0.08, 0.04):
        state = small_state(grid, amp)
        sol = solve_pressure(state, tol=1e-13)
        ratios.append(sol.contraction_estimate)
    assert ratios[1] / ratios[0] == pytest.approx(0.5, rel=0.25)


def test_solution_is_gradient_and_solves_fixed_point():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state = small_state(grid, 0.05)
    tol = 1e-11
    sol = solve_pressure(state, tol=tol)
    lp = leray_project(VectorField.from_band(grid, sol.grad_p))
    assert l2(lp.band, grid) < 1e-10
    metric_defect, rhs = pressure_operands(state)
    gp = sol.grad_p
    mgp = np.einsum("jm...,m...->j...", metric_defect, grid.irfft(gp))
    defect = gp + riesz_apply_spec(grid.rfft(mgp), grid) - rhs
    assert l2(defect, grid) <= 2.0 * tol


def test_linearity_in_rhs():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state = small_state(grid, 0.05)
    metric_defect, rhs = pressure_operands(state)
    gp1 = solve_pressure_spec(grid, metric_defect, rhs, 1e-13)[0]
    gp2 = solve_pressure_spec(grid, metric_defect, 2.0 * rhs, 1e-13)[0]
    assert np.abs(gp2 - 2.0 * gp1).max() < 1e-10 * max(np.abs(gp1).max(), 1e-300)


def test_the_solve_returns_its_pressure_solution_with_the_count_at_index_1():
    # perfbench's Picard span reads the iteration count as result[1], and a
    # five-way unpacking reads the fields in their order
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    metric_defect, rhs = pressure_operands(small_state(grid, 0.05))
    sol = solve_pressure_spec(grid, metric_defect, rhs, 1e-10)
    assert isinstance(sol, PressureSolution)
    assert sol[1] == sol.iterations > 1
    gp, iters, residuals, contraction, q = sol
    assert gp is sol.grad_p and q is sol.potential
    assert (iters, residuals, contraction) == sol[1:4]


# -- starting potential ------------------------------------------------------------


def test_start_at_the_converged_potential_stops_in_one_iteration():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    metric_defect, rhs = pressure_operands(small_state(grid, 0.05))
    gp, iters, _, _, q = solve_pressure_spec(grid, metric_defect, rhs, 1e-10)
    assert iters > 1
    warm, warm_iters, _, _, _ = solve_pressure_spec(grid, metric_defect, rhs, 1e-10, q0=q)
    assert warm_iters == 1
    # one more step of a contraction whose steps were already below the
    # absolute tolerance: the results differ by a fraction of it
    assert np.abs(warm - gp).max() <= 1e-12


def test_cold_start_is_the_zero_potential_and_returns_the_potential_of_grad_p():
    # compute_force(state) passes q0 = None; the mask-first oracle above
    # holds that solve bit for bit
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    metric_defect, rhs = pressure_operands(small_state(grid, 0.05))
    cold = solve_pressure_spec(grid, metric_defect, rhs, 1e-10, q0=None)
    zero = solve_pressure_spec(
        grid, metric_defect, rhs, 1e-10, q0=np.zeros(grid.band_shape, complex)
    )
    assert np.array_equal(cold[0], zero[0]) and cold[1:4] == zero[1:4]
    # grad_p = rhs - ik phi, phi the potential the solve returns
    gp, phi = cold[0], cold[4]
    assert np.array_equal(gp, rhs - np.stack([ik * phi for ik in grid.ik]))


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_a_picard_step_is_the_k_form_bit_for_bit(sizes):
    # one step from a cold start, and one from the potential it returns,
    # take the bits of rhs - R[D grad_p] with R the k form k (k . v) / |k|^2,
    # but for the sign of a zero (test_riesz_is_the_k_form_bit_for_bit):
    # the start rhs - ik phi0 is the cold step's grad_p
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    defect, rhs = pressure_operands(small_state(grid, 0.05))
    full = FullSpectrum(grid, grid.band_shape[-1])

    def k_form_step(gp):
        v = grid.rfft(np.einsum("jm...,m...->j...", defect, grid.irfft(gp)))
        return rhs - narrow(grid, full.riesz_k_form(widen(grid, v)))

    cold = solve_pressure_spec(grid, defect, rhs, np.inf)
    want = k_form_step(rhs)
    warm = solve_pressure_spec(grid, defect, rhs, np.inf, q0=cold.potential.copy())
    for sol, want in ((cold, want), (warm, k_form_step(want))):
        nonzero = want != 0.0
        assert sol.iterations == 1 and nonzero.mean() > 0.8
        assert np.array_equal(sol.grad_p, want)
        assert same_bits(sol.grad_p[nonzero], want[nonzero])


def test_quadratic_smallness_scaling():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    norms = []
    for amp in (0.08, 0.04, 0.02):
        state = small_state(grid, amp)
        sol = solve_pressure(state, tol=1e-14)
        w = grid.hs_weight(2) * grid.multiplicity
        norms.append(np.sqrt(weighted_norm_sq(sol.grad_p, w, grid)))
    r1 = norms[0] / norms[1]
    r2 = norms[1] / norms[2]
    assert 3.0 < r1 < 5.2 and 3.2 < r2 < 4.8
    # Richardson: the ratio of ratios approaches the quadratic power 4
    assert r2 == pytest.approx(4.0, rel=0.15)


def test_divergence_detected_for_large_deformation(monkeypatch):
    monkeypatch.setattr(pressure, "PICARD_MAX_ITER", 30)
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state = small_state(grid, 3.0)
    with pytest.raises(PressureDivergenceError):
        solve_pressure(state)


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(pressure, "PICARD_MAX_ITER", 2)
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state = small_state(grid, 0.3)
    with pytest.raises(NotConvergedError, match="after 2 iterations"):
        solve_pressure(state, tol=1e-14)


def test_residuals_decrease_in_contraction_regime():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state = small_state(grid, 0.08)
    sol = solve_pressure(state, tol=1e-13)
    res = sol.residuals
    assert all(res[i + 1] < res[i] for i in range(len(res) - 2))

import copy
import dataclasses
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

import lagmhd.grid as grid_module
from lagmhd import evolution, pressure, spectral
from lagmhd.config import RunConfig
from lagmhd.errors import NotConvergedError

from lagmhd.fields import VectorField
from lagmhd.geometry import (
    FlowState,
    cofactor_values,
    determinant_values,
    graded_metric_values,
)
from lagmhd.grid import MATMUL_MAX_LAST, OVERLAP_MIN_POINTS, ForceWorkspace, Grid
from lagmhd.evolution import (
    DEGENERATE_REL_TOL,
    EulerianStepper,
    EulerState,
    LagrangianStepper,
    LinearPropagator,
    _integral_entries,
    _phi_entries,
    characteristic_roots,
    compute_force,
    propagator_matrix,
)
from lagmhd.initial_data import (
    VelocityMode,
    build_flow_state,
    default_spec,
    euler_from_flow,
    scaled_spec,
)
from lagmhd.runner import compare_formulations, run_simulation
from lagmhd.spectral import (
    gradient_values,
    riesz_apply_spec,
    weighted_norm_sq,
)

from conftest import (
    FullSpectrum,
    cofactor_pieces,
    leray_project,
    mirror,
    narrow,
    poisoned_workspace,
    random_band_limited,
    same_bits,
    stacked_pair_force,
    widen,
    zero_band,
)


# -- dispersion roots ---------------------------------------------------------
# characteristic_roots(|k|^2, k1^2) are the roots of one wavevector k


def test_dispersion_neutral_and_heat_roots():
    lp, lm = characteristic_roots(1.0, 0.0)  # k = (0, 1, 0)
    assert lp == 0.0 and lm == pytest.approx(-1.0)


def test_dispersion_oscillatory_pair():
    lp, lm = characteristic_roots(1.0, 1.0)  # k = (1, 0, 0)
    assert lp == pytest.approx(complex(-0.5, np.sqrt(3) / 2), abs=1e-14)
    assert lm == pytest.approx(complex(-0.5, -np.sqrt(3) / 2), abs=1e-14)


def test_dispersion_degenerate_double_root():
    lp, lm = characteristic_roots(4.0, 4.0)  # k = (2, 0, 0)
    assert lp == lm == pytest.approx(-2.0)


def test_dispersion_sorted_by_real_part(rng):
    k = rng.uniform(-4, 4, size=(50, 3))
    lp, lm = characteristic_roots(np.sum(k * k, axis=1), k[:, 0] ** 2)
    assert np.all(lp.real >= lm.real - 1e-14)
    assert np.all(lp.real <= 1e-14) and np.all(lm.real <= 1e-14)


# -- propagator blocks ----------------------------------------------------------


def test_propagator_determinant_identity(rng):
    for _ in range(40):
        k = rng.uniform(-5, 5, size=3)
        dt = float(rng.uniform(0.01, 2.0))
        p = propagator_matrix(k, dt)
        # exact identity; numerically absolute once e^{-|k|^2 dt} sits below
        # the cancellation floor of the 2x2 determinant
        assert np.linalg.det(p) == pytest.approx(
            np.exp(-float(k @ k) * dt), rel=1e-12, abs=1e-12
        )


def test_propagator_short_time_identity():
    p = propagator_matrix((1.3, 0.4, -2.0), 1e-8)
    assert np.abs(p - np.eye(2)).max() < 1e-7


def test_propagator_damped_oscillator_closed_form():
    # k = (1,0,0): y'' + y' + y = 0, y(0)=1, y'(0)=0
    p = propagator_matrix((1.0, 0.0, 0.0), 1.0)
    w = np.sqrt(3) / 2.0
    y = np.exp(-0.5) * (np.cos(w) + (0.5 / w) * np.sin(w))
    yp = -np.exp(-0.5) * np.sin(w) / w  # derivative: -b*phi1 with b=1
    assert p[0, 0] == pytest.approx(y, rel=1e-13)
    assert p[1, 0] == pytest.approx(yp, rel=1e-13)


def test_propagator_degenerate_branch_formulas():
    # |k|^4 = 4 k1^2 at k = (2,0,0): double root lam = -2
    dt = 0.3
    p = propagator_matrix((2.0, 0.0, 0.0), dt)
    lam = -2.0
    e = np.exp(lam * dt)
    assert p[0, 1] == pytest.approx(dt * e, rel=1e-12)
    assert p[0, 0] == pytest.approx((1 - lam * dt) * e, rel=1e-12)
    assert p[1, 1] == pytest.approx((1 + lam * dt) * e, rel=1e-12)


def test_propagator_zero_mode_shear_block():
    p = propagator_matrix((0.0, 0.0, 0.0), 0.7)
    assert np.abs(p - np.array([[1.0, 0.7], [0.0, 1.0]])).max() == 0.0


def test_propagator_semigroup_random(rng):
    for _ in range(100):
        k = rng.uniform(-5, 5, size=3)
        dt1, dt2 = rng.uniform(0.01, 1.0, size=2)
        p12 = propagator_matrix(k, dt1) @ propagator_matrix(k, dt2)
        p = propagator_matrix(k, dt1 + dt2)
        assert np.abs(p12 - p).max() < 1e-12 * max(1.0, np.abs(p).max())


def test_propagator_lattice_stability(grid3):
    LinearPropagator(grid3, 0.2)  # raises on an unstable root
    a, b = grid3.k2, np.broadcast_to(grid3.k1sq, grid3.band_shape)
    lam_plus, lam_minus = characteristic_roots(a, b)
    assert lam_plus.real.max() <= 1e-13
    assert lam_minus.real.max() <= 1e-13
    # the |k|^4 = 4 k1^2 lattice point is a double root; the roots and flags
    # are band arrays, and k_last = 0 is in the band
    degenerate = np.abs(a * a - 4.0 * b) <= DEGENERATE_REL_TOL * a * a
    assert degenerate[2, 0, 0]
    assert lam_plus[2, 0, 0] == lam_minus[2, 0, 0] == -2.0


@pytest.mark.parametrize(
    "sizes",
    [(16, 8, 32), (32, 32, 32), (2, 4, 8), (32, 64), (128, 128)],
    ids=["3D", "3D-32", "3D-2", "2D", "2D-128"],
)
def test_band_propagator_is_cut_from_the_full_grid_roots(sizes):
    # the blocks are evaluated on the n_i >= 0 halves of the leading axes of
    # the band and gathered by |n_i|; the elementwise formulas make them the
    # band's modes of a full-grid evaluation bit for bit
    grid = Grid(sizes, (64.0,) + (2 * np.pi,) * (len(sizes) - 1))
    dt = 0.05
    prop = LinearPropagator(grid, dt)
    full = FullSpectrum(grid)
    a, b = full.k2, np.broadcast_to(full.k1sq, full.shape)
    roots = tuple(narrow(grid, r) for r in characteristic_roots(a, b))
    a, b = narrow(grid, a), narrow(grid, b)
    phi0, phi1, dphi1 = _phi_entries(a, b, dt, roots)
    i0, k1 = _integral_entries(a, b, dt, roots)
    want = {
        "phi0": phi0,
        "phi1": phi1,
        "dphi0": -b * phi1,
        "dphi1": dphi1,
        "i0": i0,
        "k1": k1,
        "y_f0": i0 - k1,
        "yt_f0": phi1 - i0 / dt,
        "yt_f1": i0 / dt,
    }
    for name, block in want.items():
        assert np.array_equal(getattr(prop, name), block), name


def test_integral_entries_quadrature_oracle():
    dt = 0.37
    cases = [(5.0, 2.0), (4.0, 4.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (25.0, 0.3)]
    for a, b in cases:
        i0, k1 = _integral_entries(np.array(a), np.array(b), dt)

        def phi1_of(tau):
            return _phi_entries(np.array(a), np.array(b), tau)[1]

        i0_ref = quad(phi1_of, 0.0, dt, epsabs=1e-14, epsrel=1e-13)[0]
        k1_ref = quad(lambda s: (1 - s / dt) * phi1_of(s), 0.0, dt, epsabs=1e-14)[0]
        assert float(i0) == pytest.approx(i0_ref, rel=1e-9, abs=1e-14)
        assert float(k1) == pytest.approx(k1_ref, rel=1e-9, abs=1e-14)


# -- force assembly ------------------------------------------------------------


def _pressure_force(force):
    """The band of -A grad_p, formed on its own: -rfft(A irfft(grad_p))."""
    grid = force.f.grid
    grad_p = grid.irfft(force.pressure.grad_p)
    a_gp = np.einsum("im...,m...->i...", force.a_values, grad_p)
    return -grid.rfft(a_gp)


def test_force_zero_at_equilibrium(grid3):
    force = compute_force(FlowState.zeros(grid3))
    assert np.abs(force.f.values).max() == 0.0
    assert np.abs(_pressure_force(force)).max() == 0.0


def test_force_viscous_vanishes_without_velocity():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    state = FlowState(grid, state.Y, zero_band(grid), 0.0)
    force = compute_force(state)
    pressure_force = _pressure_force(force)
    assert np.abs(force.f.band - pressure_force).max() == 0.0
    assert np.abs(pressure_force).max() > 0.0


def test_force_quadratic_scaling():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    norms = []
    for amp in (0.06, 0.03):
        state = build_flow_state(grid, scaled_spec(default_spec(3, None), amp))
        force = compute_force(state)
        norms.append(np.sqrt(weighted_norm_sq(force.f.band, grid.multiplicity, grid)))
    assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.2)


def _viscous_spec(metric, state):
    """The band of div(metric grad Yt), dealiased, for any metric field."""
    grid = state.grid
    grad_yt = gradient_values(state.Yt, grid)
    flux = np.einsum("jm...,im...->ij...", metric, grad_yt)
    flux_band = grid.rfft(flux)
    out = np.zeros((grid.dim,) + grid.band_shape, dtype=complex)
    for j in range(grid.dim):
        out += 1j * grid.k_axes[j] * flux_band[:, j]
    return out


def test_force_decomposition_consistency():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    force = compute_force(state)
    # viscous part against A^T A - I formed directly from A
    grad_y = gradient_values(state.Y, grid)
    b1, b2, _ = cofactor_pieces(grad_y)
    a = cofactor_values(grad_y)[1]
    ata = np.einsum("ji...,jm...->im...", a, a)
    for i in range(3):
        ata[i, i] -= 1.0
    full = _viscous_spec(ata, state)
    scale = max(np.abs(full).max(), 1e-300)
    viscous = force.f.band - _pressure_force(force)
    assert np.abs(viscous - full).max() < 1e-10 * scale
    # f = viscous flux of the graded sum + pressure force
    graded = graded_metric_values(b1, b2)
    graded_sum = _viscous_spec(sum(graded), state)
    assert np.abs(viscous - graded_sum).max() < 1e-14 * scale


def _force_transforms(monkeypatch, grid, amp):
    """The stages of every transform over one compute_force, and its Picard
    iteration count: the shapes of the samples each last-axis stage takes
    (``Grid.last_forward``) or gives (``Grid.last_inverse``), in call order,
    and the lines of the single-axis leading passes (the calls of the
    grid's pocketfft ``sfft.c2c``, which ``Grid.lead_pass`` runs),
    [those of passes on whole transform buffers, of the wide (N0[, N1], K)
    layout, those of passes on blocks of them]. The last-axis stages of a
    helper thread go to "helper", in its call order, as ("forward" or
    "inverse", shape); its leading passes join the lines.

    The state holds bands only, as a stepped state does, so Yt's samples
    cost a last-axis stage. Every transform of the kernel goes through
    these three stages.
    """
    built = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), amp))
    state = FlowState(grid, built.Y, built.Yt, 0.0)
    d = grid.dim
    calls = {"forward": [], "inverse": [], "lines": [0, 0], "helper": []}
    stages = Grid.last_forward, Grid.last_inverse
    main = threading.current_thread()

    wide = grid.sizes[:-1] + grid.band_shape[-1:]
    c2c = grid_module.sfft.c2c

    def counted_c2c(arr, axes, *args):
        (axis,) = axes
        calls["lines"][0 if arr.shape[-d:] == wide else 1] += arr.size // arr.shape[axis]
        return c2c(arr, axes, *args)

    def counted_forward(self, values, *args, **kwargs):
        if threading.current_thread() is main:
            calls["forward"].append(values.shape)
        else:
            calls["helper"].append(("forward", values.shape))
        return stages[0](self, values, *args, **kwargs)

    def counted_inverse(self, planes, *args, **kwargs):
        shape = planes.shape[:-1] + grid.shape[-1:]
        if threading.current_thread() is main:
            calls["inverse"].append(shape)
        else:
            calls["helper"].append(("inverse", shape))
        return stages[1](self, planes, *args, **kwargs)

    monkeypatch.setattr(grid_module.sfft, "c2c", counted_c2c)
    monkeypatch.setattr(Grid, "last_forward", counted_forward)
    monkeypatch.setattr(Grid, "last_inverse", counted_inverse)
    iters = compute_force(state).pressure.iterations
    monkeypatch.undo()
    return calls, iters


# one Picard iteration, as on slab3d, and several, as on strong3d
FORCE_AMPS = (1e-4, 0.05)


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)])
def test_force_takes_one_viscous_transform(monkeypatch, sizes):
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    d = grid.dim
    vec, mat = (d,) + grid.shape, (d, d) + grid.shape
    for amp in FORCE_AMPS:
        calls, iters = _force_transforms(monkeypatch, grid, amp)
        # Z A and A^T w for the pressure rhs, D grad_p per Picard iteration,
        # then the viscous flux and A grad_p of one divergence_band
        assert calls["forward"] == [mat, vec] + [vec] * iters + [mat, vec]


@pytest.mark.parametrize("amp", FORCE_AMPS)
def test_the_helper_thread_splits_the_matrix_transforms_into_rows(monkeypatch, amp):
    # on the plane2d box at 128^2, with the helper thread: the calling
    # thread takes grad Y, Z A a row at a time and A^T w for the pressure
    # rhs, D grad_p and grad_p per Picard iteration, the final grad_p and
    # A grad_p; the helper the samples of Yt and grad Yt, then the viscous
    # flux a row at a time. Every last-axis component of the deferred force
    # is taken once, the (d, d) matrices of Z A and the flux as d rows
    grid = Grid((128, 128), (64.0, 2 * np.pi))
    d = grid.dim
    vec, mat, row = (d,) + grid.shape, (d, d) + grid.shape, (1, d) + grid.shape
    runs = {}
    for cpus in (2, 1):
        _helper_runs(monkeypatch, cpus)
        runs[cpus] = _force_transforms(monkeypatch, grid, amp)
    (calls, iters), (serial, serial_iters) = runs[2], runs[1]

    def components(c):
        shapes = c["forward"] + c["inverse"] + [shape for _, shape in c["helper"]]
        return sum(int(np.prod(shape[:-d])) for shape in shapes)

    assert iters == serial_iters and not serial["helper"]
    assert components(calls) == components(serial)
    assert calls["forward"] == [row] * d + [vec] + [vec] * iters + [vec]
    assert calls["inverse"] == [mat, vec] + [vec] * iters + [vec]
    assert calls["helper"] == [("inverse", vec), ("inverse", mat)] + [("forward", row)] * d


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_force_takes_one_inverse_transform_per_gradient(monkeypatch, sizes):
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    d = grid.dim
    vec, mat = (d,) + grid.shape, (d, d) + grid.shape
    for amp in FORCE_AMPS:
        calls, iters = _force_transforms(monkeypatch, grid, amp)
        # grad Y, then the samples of Yt and grad Yt of one gradient_values,
        # w of the pressure rhs, grad_p per Picard iteration, and the final
        # grad_p
        assert calls["inverse"] == [mat, vec, mat, vec] + [vec] * iters + [vec]
        # last-axis components, forward and inverse: the parent's traced
        # Grid.fft/Grid.ifft count per force (57 at one iteration in 3D)
        components = sum(
            int(np.prod(s[:-d])) for s in calls["forward"] + calls["inverse"]
        )
        assert components == (51 + 6 * iters if d == 3 else 26 + 4 * iters)
        # lines of the single-axis leading passes, counted in component
        # passes of n lines, n = N^(d-2) K, on the wide layout: the
        # gradients and the divergences share theirs, where one transform
        # per component took 102 + 12 iters in 3D and 26 + 4 iters in 2D. In
        # 3D the pass of a transform that meets the mask runs on the 2
        # ceil(N/3) - 1 of N lines it keeps; in 2D every pass runs on all
        # lines
        n, big = int(np.prod(sizes[1:-1])) * grid.band_shape[-1], sizes[0]
        kept = 2 * -(-big // 3) - 1
        if d == 3:
            pruned = (33 + 6 * iters) * n * kept // big
            assert calls["lines"] == [(45 + 6 * iters) * n, pruned]
        else:
            assert calls["lines"] == [(22 + 4 * iters) * n, 0]


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_force_of_a_state_is_that_of_its_projection(sizes, rng):
    # a band holds the 2/3-retained modes only: the first K planes of a
    # spectrum that holds modes outside them (here Grid.fft's, as perfbench's
    # scaled force has) are no band and a state refuses them, and the band a
    # field gathers from that spectrum is the projection's, bit for bit, so
    # what lies outside never reaches the force
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    built = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), 0.05))
    shape, nb = (grid.dim,) + grid.shape, grid.band_shape[-1]
    outside = 1.0 - FullSpectrum(grid).dealias_mask
    spectra = [
        mirror(grid, field) + 1e-3 * outside * grid.fft(rng.standard_normal(shape))
        for field in (built.Y, built.Yt)
    ]
    assert np.abs(spectra[0][..., :nb] - widen(grid, built.Y)).max() > 0.0
    with pytest.raises(ValueError, match="Y has shape"):
        FlowState(grid, spectra[0][..., :nb], built.Yt, 0.0)
    state = FlowState(grid, *(VectorField.from_spec(grid, s).band for s in spectra), 0.0)
    assert same_bits(state.Y, built.Y) and same_bits(state.Yt, built.Yt)
    got, want = compute_force(state), compute_force(built)
    assert np.array_equal(got.f.band, want.f.band)
    assert np.array_equal(got.pressure.grad_p, want.pressure.grad_p)
    assert np.array_equal(got.grad_y, want.grad_y)
    assert np.array_equal(got.grad_yt, want.grad_yt)


def _force_arrays(force):
    return {
        "f": force.f.band,
        "grad_p": force.pressure.grad_p,
        "potential": force.pressure.potential,
        "grad_y": force.grad_y,
        "grad_yt": force.grad_yt,
        "a_values": force.a_values,
    }


def _is_array(arr, target):
    """Whether arr is target's memory: the same shape at the same address."""
    return arr.shape == target.shape and arr.ctypes.data == target.ctypes.data


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_a_reused_workspace_gives_the_fresh_force_bit_for_bit(sizes):
    # one workspace through states that need one Picard iteration and
    # several, each started from the potential the last force left in the
    # workspace: every force equals the one computed in a fresh workspace,
    # so nothing a force reads is left from the last one (the transform
    # planes beyond the band included) and the start is read before the
    # solve overwrites it
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    work = poisoned_workspace(grid)
    iterations, q0 = [], None
    for amp in FORCE_AMPS + FORCE_AMPS[::-1] + (0.02,):
        spec = scaled_spec(default_spec(grid.dim, None), amp)
        state = build_flow_state(grid, spec)
        want = compute_force(state, q0=q0)
        got = compute_force(state, q0=q0, work=work)
        assert got.pressure.iterations == want.pressure.iterations
        assert got.pressure.residuals == want.pressure.residuals
        assert got.pressure.contraction_estimate == want.pressure.contraction_estimate
        for name, arr in _force_arrays(got).items():
            assert np.array_equal(arr, _force_arrays(want)[name]), name
        # everything the force returns is the workspace's: f where the
        # pressure right-hand side was, grad_p in the Picard band, the
        # potential in one of the two Picard potential bands
        assert _is_array(got.f.band, work.vec_band[0])
        assert _is_array(got.pressure.grad_p, work.vec_band[1])
        assert any(_is_array(got.pressure.potential, q) for q in work.q[1:3])
        assert got.grad_y is work.grad_y and got.grad_yt is work.grad_yt
        assert got.a_values is work.a
        iterations.append(got.pressure.iterations)
        q0 = got.pressure.potential
    assert min(iterations) == 1 and max(iterations) > 1


@pytest.mark.parametrize(
    "sizes", [(16, 16, 16), (32, 32), (4, 8, 128)], ids=["3D", "2D", "4x8x128"]
)
def test_the_force_keeps_the_bits_of_the_stacked_pair_on_fresh_arrays(sizes):
    # the pair read in place (d1 Y in grad_y[:, 0], Yt in vec[0]) and Z A
    # in B's array give the bits of the stacked pair [d1 Y, Yt], A^T [v, w]
    # and Z A on fresh arrays; cold, and from a start off the fixed point.
    # The (4, 8, 128) grid runs numpy's r2c past MATMUL_MAX_LAST, with a
    # (d, d) plane buffer
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    state = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), 0.05))
    work = poisoned_workspace(grid)
    q0 = None
    for _ in range(2):
        want_f, want = stacked_pair_force(state, q0=q0)
        got = compute_force(state, q0=q0, work=work)
        assert same_bits(got.f.band, want_f)
        assert same_bits(got.pressure.grad_p, want.grad_p)
        assert same_bits(got.pressure.potential, want.potential)
        assert got.pressure.iterations == want.iterations
        q0 = 0.5 * want.potential


@pytest.mark.parametrize(
    "sizes, size",
    [((32, 32, 32), 20_988_048), ((16, 16, 16), 2_285_088), ((128, 128), 5_987_872)],
    ids=["32^3", "16^3", "128^2"],
)
def test_a_force_workspace_holds_six_sample_tensors(sizes, size):
    # B's array takes Z A and the deferred viscous flux, so there is no
    # flux array: grad Y, grad Yt, A, B, D and the (3, d) vectors, six
    # (d, d) tensors in 3D; the plane buffer keeps a (d, d) matrix only
    # where numpy's r2c of one fills it, and one vector row at or below
    # MATMUL_MAX_LAST. Every layout is pinned exactly, at its bytes (the
    # 16^3 and 128^2 ones were bounds, at 2,285,088 and 5,111,328 B). From
    # OVERLAP_MIN_POINTS on, 128^2 included, the helper thread's stages add
    # one flux row of samples and the (d, d) slots of its gradient and
    # planes, and the pressure right-hand side, which leaves B to the
    # helper's D, one row of Z A (20,201,616 B at 32^3 without that row);
    # the flux row's r2c past MATMUL_MAX_LAST fills the plane buffer's
    # last row. A 16^3 workspace holds no helper array
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    d = grid.dim
    helper = grid.npoints >= OVERLAP_MIN_POINTS
    assert helper == (sizes != (16, 16, 16))
    arrays = vars(ForceWorkspace(grid))
    assert "flux" not in arrays
    samples = {name: arr for name, arr in arrays.items() if arr.dtype == float}
    rows = dict.fromkeys(["za_row", "flux_row"], (1, d) + grid.shape) if helper else {}
    assert {name: arr.shape for name, arr in samples.items()} == {
        **dict.fromkeys(["grad_y", "grad_yt", "a", "b", "defect"], (d, d) + grid.shape),
        "vec": (3, d) + grid.shape,
        **rows,
    }
    planes = d if grid.sizes[-1] > MATMUL_MAX_LAST else 1
    assert arrays["pad"].shape == (planes, d) + grid.pad_shape
    if helper:
        assert arrays["flux_slots"].shape == arrays["mat_band"].shape
    else:
        assert not {"za_row", "flux_row", "flux_slots"} & set(arrays)
    assert "flux_pad" not in arrays
    assert sum(arr.nbytes for arr in arrays.values()) == size


def _helper_runs(monkeypatch, cpus):
    """Have compute_force see this many usable CPUs: 2 runs the helper
    thread on a workspace with its arrays, 1 defers its tasks."""
    monkeypatch.setattr(evolution, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize(
    "sizes, lengths",
    [((32, 32, 32), None), ((128, 256), None), ((128, 128), (64.0, 2 * np.pi))],
    ids=["32^3", "128x256", "128^2"],
)
@pytest.mark.parametrize("amp", FORCE_AMPS)
def test_the_helper_thread_gives_the_deferred_force_bit_for_bit(
    monkeypatch, sizes, lengths, amp
):
    # the gradient of Yt, the metric defect and the viscous stages on the
    # helper thread, the gradient's slots and the flux's planes in
    # flux_slots and the flux row by row, give the bits of the deferred
    # stages in mat_band and B's array, on one Picard iteration and
    # several; the 128 x 256 grid and the plane2d box at 128^2, the
    # smallest grid with the helper's arrays, take their last-axis planes
    # by numpy's r2c, the flux row's in the last row of the plane buffer
    grid = Grid(sizes, lengths or (2 * np.pi,) * len(sizes))
    state = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), amp))
    forces = {}
    for cpus in (2, 1):
        _helper_runs(monkeypatch, cpus)
        forces[cpus] = compute_force(state, work=poisoned_workspace(grid))
    assert "lagmhd-force" in [t.name for t in threading.enumerate()]
    got, want = forces[2], forces[1]
    # the helper holds no task once it is done: the workspace of a force
    # goes when its caller drops it, not with the next task
    work = ForceWorkspace(grid)
    _helper_runs(monkeypatch, 2)
    compute_force(state, work=work)
    slots = weakref.ref(work.flux_slots)
    del work
    assert slots() is None
    for name, arr in _force_arrays(got).items():
        assert same_bits(arr, _force_arrays(want)[name]), name
    assert got.pressure.iterations == want.pressure.iterations
    assert got.pressure.residuals == want.pressure.residuals


def test_a_picard_failure_waits_for_the_helper_thread(monkeypatch):
    # the criterion-6 data at 32^3 with one Picard iteration allowed: the
    # solve fails while the helper, held back, still forms the viscous
    # stages; the force waits for it before the error propagates, and the
    # next force on the workspace is the fresh one bit for bit
    grid = Grid((32, 32, 32), (16.0, 2 * np.pi, 2 * np.pi))
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    _helper_runs(monkeypatch, 2)
    viscous_planes, finished = evolution._viscous_planes, []

    def held_back(*args, **kwargs):
        time.sleep(0.2)
        viscous_planes(*args, **kwargs)
        finished.append(True)

    work = poisoned_workspace(grid)
    monkeypatch.setattr(evolution, "_viscous_planes", held_back)
    monkeypatch.setattr(pressure, "PICARD_MAX_ITER", 1)
    with pytest.raises(NotConvergedError):
        compute_force(state, work=work)
    assert finished == [True]
    monkeypatch.setattr(pressure, "PICARD_MAX_ITER", 50)
    got = compute_force(state, work=work)
    want = compute_force(state)
    assert got.pressure.iterations > 1
    for name, arr in _force_arrays(got).items():
        assert same_bits(arr, _force_arrays(want)[name]), name


class _HelperFailure(Exception):
    pass


@pytest.mark.parametrize("stage", ["defect", "gradient"])
def test_a_helper_failure_surfaces_as_itself(monkeypatch, stage):
    # the criterion-6 data at 32^3: the helper's metric defect, or its
    # gradient of Yt, raises after a pause. The force raises that
    # exception, not a pressure error, once the helper is done, and no
    # stage that reads the failed one's output runs: neither the solve nor
    # the viscous stages after D, nor the pressure right-hand side after
    # the gradient. The next force on the workspace is the fresh one bit
    # for bit
    grid = Grid((32, 32, 32), (16.0, 2 * np.pi, 2 * np.pi))
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    _helper_runs(monkeypatch, 2)
    main, ran = threading.current_thread(), []

    def failing(*args, **kwargs):
        ran.append((stage, threading.current_thread() is main))
        time.sleep(0.2)
        raise _HelperFailure(stage)

    def recording(name, call):
        def recorded(*args, **kwargs):
            ran.append(name)
            return call(*args, **kwargs)

        return recorded

    if stage == "defect":
        monkeypatch.setattr(evolution, "_metric_defect", failing)
        later = ("_viscous_planes", "solve_pressure_spec")
    else:  # the helper reaches the gradient through spectral, the main thread not
        monkeypatch.setattr(spectral, "gradient_values", failing)
        later = ("_metric_defect", "_viscous_planes", "_tensor_rhs_spec", "solve_pressure_spec")
    for name in later:
        monkeypatch.setattr(evolution, name, recording(name, getattr(evolution, name)))
    work = poisoned_workspace(grid)
    with pytest.raises(_HelperFailure, match=stage):
        compute_force(state, work=work)
    time.sleep(0.1)  # a stage left queued on the helper would run by now
    assert ran == [(stage, False)]
    monkeypatch.undo()
    _helper_runs(monkeypatch, 2)
    got = compute_force(state, work=work)
    want = compute_force(state)
    assert got.pressure.iterations > 1
    for name, arr in _force_arrays(got).items():
        assert same_bits(arr, _force_arrays(want)[name]), name


def test_forces_in_threads_share_the_helper_thread(monkeypatch):
    # three threads, more than the cores, each computing 32^3 forces on a
    # workspace of its own with a short switch interval: every force waits
    # for its own task on the one helper thread, so each has the bits of
    # the deferred force of its data
    grid = Grid((32, 32, 32), (2 * np.pi,) * 3)
    states = [
        build_flow_state(grid, scaled_spec(default_spec(3, None), amp))
        for amp in (1e-4, 0.02, 0.05)
    ]
    _helper_runs(monkeypatch, 1)
    want = [compute_force(state).f.band.copy() for state in states]
    _helper_runs(monkeypatch, 2)
    got = [[] for _ in states]

    def forces(i):
        work = ForceWorkspace(grid)
        for _ in range(3):
            got[i].append(compute_force(states[i], work=work).f.band.copy())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=forces, args=(i,)) for i in range(len(states))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [t.name for t in threading.enumerate()].count("lagmhd-force") == 1
    for bands, band in zip(got, want):
        assert len(bands) == 3 and all(same_bits(b, band) for b in bands)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper_thread(monkeypatch):
    # the parent's helper thread is not in a forked child, which must start
    # its own: the child's 32^3 force ends, with the parent's bits
    grid = Grid((32, 32, 32), (2 * np.pi,) * 3)
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    _helper_runs(monkeypatch, 2)
    want = compute_force(state).f.band
    pid = os.fork()
    if pid == 0:  # the child leaves by os._exit alone
        code = 1
        try:
            code = 0 if same_bits(compute_force(state).f.band, want) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's force did not end within 60 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_the_metric_defect_from_its_upper_triangle_keeps_the_bits(sizes):
    # D = B^T B + B + B^T with B^T B formed on i <= j and copied: the bits
    # of the full einsum over B = B1 + B2
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    state = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), 0.05))
    work = poisoned_workspace(grid)
    force = compute_force(state, work=work)
    b1, b2, _ = cofactor_pieces(force.grad_y)
    b = b1 + b2
    want = np.einsum("mi...,mj...->ij...", b, b)
    want += b
    want += np.swapaxes(b, 0, 1)
    assert same_bits(work.defect, want)


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_a_step_keeps_the_bits_of_the_sums_on_fresh_bands(monkeypatch, sizes):
    # the step forms its state in the bands it returns and its predictor in
    # the workspace: both hold the bits of py + i0 f0 and of
    # (py + y_f0 f0) + k1 f1 on fresh arrays, with and without a given
    # first force, cold and warm
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    state = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), 0.05))
    stepper = LagrangianStepper(grid, 0.05)
    prop = stepper.propagator
    seen = []

    def recording(st, **kwargs):
        # f is the workspace's band: the step's next force overwrites it
        y, yt = st.Y.copy(), st.Yt.copy()
        force = compute_force(st, **kwargs)
        seen.append((y, yt, force.f.band.copy()))
        return force

    monkeypatch.setattr(evolution, "compute_force", recording)
    for given in (False, True, True, False):
        seen.clear()
        new = stepper.step(state, stepper.force(state) if given else None)
        (_, _, f0), (y_star, yt_star, f1) = seen
        # the state's bands, masked on construction, as the step reads them
        y, yt = state.Y, state.Yt
        py = prop.phi0 * y + prop.phi1 * yt
        pyt = prop.dphi0 * y + prop.dphi1 * yt
        assert same_bits(y_star, py + prop.i0 * f0)
        assert same_bits(yt_star, pyt + prop.phi1 * f0)
        assert same_bits(new.Y, py + prop.y_f0 * f0 + prop.k1 * f1)
        assert same_bits(new.Yt, pyt + prop.yt_f0 * f0 + prop.yt_f1 * f1)
        state = new


def _warm_step_peak(grid, traced_force=False):
    """tracemalloc's peak over a warm step of the criterion-6 data on grid,
    its first force given as a run gives it, in bytes; with traced_force,
    over that force and the step."""
    state = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), 0.05))
    stepper = LagrangianStepper(grid, 0.05)
    for _ in range(2):
        state = stepper.step(state, stepper.force(state))
    force = None if traced_force else stepper.force(state)
    tracemalloc.start()
    try:
        stepper.step(state, force)  # without a force the step computes it
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_a_warm_step_allocates_no_grid_sized_array():
    # the criterion-6 data at 32^3, as the strong3d benchmark runs it: a warm
    # step peaks at 678,255 B, measured: the two bands it returns, 465,696 B
    # of (21, 21, 11) modes, and numpy's iteration buffers, at most 8192
    # elements each; every intermediate goes into the workspace. On the
    # wide (32, 32, 11) band it was 1,576,591 B against a bound of 1,622,016
    # (3 bands); one d x d array of samples is 4.4 wide bands
    assert _warm_step_peak(Grid((32, 32, 32), (16.0, 2 * np.pi, 2 * np.pi))) <= 720_000


def test_a_warm_force_and_step_allocate_two_bands_past_the_state():
    # the first force as well: 679,222 B measured, the step's own peak (on
    # the wide band 1,577,470 B against a bound of 2,162,688, 4 bands)
    assert _warm_step_peak(
        Grid((32, 32, 32), (16.0, 2 * np.pi, 2 * np.pi)), traced_force=True
    ) <= 720_000


def test_a_warm_step_on_the_plane_allocates_no_grid_sized_array():
    # the same on the plane2d box at 128^2: 471,055 B measured, the two
    # bands returned, 233,920 B of (85, 43) modes, and numpy's buffers. On
    # the wide band, with the slot products of gradient_values on strided
    # planes, it was 707,159 B against a bound of 722,125 (4.1 bands)
    assert _warm_step_peak(Grid((128, 128), (64.0, 2 * np.pi))) <= 500_000


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_a_step_on_its_own_first_force_equals_one_on_a_copy(sizes):
    # the given first force is the stepper's: its f band is the workspace's
    # band that the predictor force overwrites, so the step adds the f0
    # terms before it forms f1. Two steppers in lockstep, one stepping on
    # its force, one on a deep copy of it, give the same bits, cold and
    # warm (the criterion-6 data take several Picard iterations)
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    state = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), 0.05))
    own, copied = LagrangianStepper(grid, 0.05), LagrangianStepper(grid, 0.05)
    a = b = state
    for _ in range(8):
        f0 = own.force(a)
        f0_band = f0.f.band.copy()
        a = own.step(a, f0)
        b = copied.step(b, copy.deepcopy(copied.force(b)))
        assert _is_array(f0.f.band, own._work.vec_band[0])
        assert not np.array_equal(f0.f.band, f0_band)  # f1 took the slot
        assert a.t == b.t
        assert same_bits(a.Y, b.Y) and same_bits(a.Yt, b.Yt)


# -- Lagrangian stepping ---------------------------------------------------------


def test_step_linear_matches_propagator(grid3, rng):
    state = FlowState(
        grid3,
        random_band_limited(grid3, rng, rank=1, kmax=4).band,
        random_band_limited(grid3, rng, rank=1, kmax=4).band,
        0.0,
    )
    stepper = LagrangianStepper(grid3, 0.3)
    cur = state
    for _ in range(10):
        cur = stepper.step_linear(cur)
    prop = LinearPropagator(grid3, 3.0)
    y, yt = prop.apply(state.Y, state.Yt)
    scale = max(np.abs(y).max(), np.abs(yt).max())
    assert np.abs(cur.Y - y).max() < 1e-12 * scale
    assert np.abs(cur.Yt - yt).max() < 1e-12 * scale


def test_step_linear_keeps_the_neutral_plane_limit():
    # on a mode with k1 = 0, k != 0 the roots are 0 and -|k|^2, so with
    # f = 0 the limit Y_inf = Y + Yt/|k|^2 is invariant: 100 step_linear
    # steps of criterion 6's data keep it to 1e-13 relative. The oracle
    # reads the state's bands alone and shares no code with _phi_entries
    grid = Grid((16, 16, 16), (16.0, 2 * np.pi, 2 * np.pi))
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    plane = np.broadcast_to((grid.k_axes[0] == 0) & (grid.k2 > 0), grid.band_shape)

    def limit(st):
        return (st.Y + st.Yt / np.where(plane, grid.k2, 1.0))[:, plane]

    start = limit(state)
    assert np.abs(start).max() > 0.0
    stepper = LagrangianStepper(grid, 0.1)
    for _ in range(100):
        state = stepper.step_linear(state)
    assert state.t == pytest.approx(10.0)
    assert np.abs(limit(state) - start).max() <= 1e-13 * np.abs(start).max()


def _two_steps(sizes, _):
    """Two Lagrangian steps from built data, then from a stepped state."""
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    state = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), 0.05))
    stepper = LagrangianStepper(grid, 0.05)
    for _ in range(2):
        state = stepper.step(state)


def _whole_call(solver, tmp_path):
    """A whole call from the built-in 3D data: a run with its samples and
    checkpoint, or a compare of the two formulations."""
    cfg = RunConfig(
        dimension=3,
        sizes=(16, 16, 16),
        lengths=(16.0, 2 * np.pi, 2 * np.pi),
        dt=0.05,
        t_end=0.1,
        cadence=0.05,
        solver=solver,
        output_dir=str(tmp_path),
    )
    if solver == "both":
        assert compare_formulations(cfg).max_u_discrepancy < 1e-6
    else:
        report = run_simulation(cfg)
        assert not report.aborted and len(report.samples) == 3
        assert os.path.getsize(report.checkpoint_path) > 0


@pytest.mark.parametrize(
    "call, arg",
    [
        (_two_steps, (16, 16, 16)),
        (_two_steps, (32, 32)),
        (_whole_call, "lagrangian"),
        (_whole_call, "eulerian"),
        (_whole_call, "both"),
    ],
    ids=["3D", "2D", "lagrangian-run", "eulerian-run", "compare"],
)
def test_step_takes_no_full_spectrum_transform(monkeypatch, tmp_path, call, arg):
    # a step, its two forces included, works on bands, and so does every run
    # path from its initial data to its outputs: no full-spectrum transform,
    # and so no read of a field's full spectrum either
    calls = {"fft": 0, "ifft": 0}

    def counted(name, method):
        def wrapper(self, arg):
            calls[name] += 1
            return method(self, arg)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Grid, name, counted(name, getattr(Grid, name)))
    call(arg, tmp_path)
    assert calls == {"fft": 0, "ifft": 0}


def _drive_steps(monkeypatch, spec, cold, steps=6, solves=None):
    """Steps as a run takes them (the first force, then the step) on the
    criterion-6 box, with the stepper's pressure starts or, with cold, every
    solve from q0 = None; returns the final bands and the Picard total.
    solves, when given, receives (t, q0, PressureSolution) of every solve.
    Undoes every patch of monkeypatch when it returns."""
    from lagmhd import evolution

    grid = Grid((16, 16, 16), (16.0, 2 * np.pi, 2 * np.pi))
    state = build_flow_state(grid, spec)
    iterations = []
    compute = evolution.compute_force

    def counted(state, *args, q0=None, **kwargs):
        # copies: the start, grad_p and the potential are the workspace's,
        # which the stepper's next force overwrites
        start = None if q0 is None else q0.copy()
        force = compute(state, *args, q0=None if cold else q0, **kwargs)
        iterations.append(force.pressure.iterations)
        if solves is not None:
            p = force.pressure
            p = p._replace(grad_p=p.grad_p.copy(), potential=p.potential.copy())
            solves.append((state.t, start, p))
        return force

    monkeypatch.setattr(evolution, "compute_force", counted)
    stepper = LagrangianStepper(grid, 0.05)
    for _ in range(steps):
        state = stepper.step(state, stepper.force(state))
    monkeypatch.undo()
    return state.Y, state.Yt, sum(iterations)


def test_warm_started_pressure_matches_cold_with_fewer_iterations(monkeypatch):
    spec = scaled_spec(default_spec(3, None), 0.05)
    y, yt, warm_iters = _drive_steps(monkeypatch, spec, cold=False)
    y_cold, yt_cold, cold_iters = _drive_steps(monkeypatch, spec, cold=True)
    assert np.abs(y - y_cold).max() <= 1e-10 * np.abs(y_cold).max()
    assert np.abs(yt - yt_cold).max() <= 1e-10 * np.abs(yt_cold).max()
    # 8 + 9 per step cold; 71 from the nearest solve in time (the first
    # stage from the predictor alone, the predictor from a linear
    # extrapolation); 61 from the extrapolated starts, 48 with the stopping
    # rule relative to |grad p|
    assert warm_iters <= 48 < cold_iters


def test_one_iteration_solves_start_cold(monkeypatch):
    # under the absolute stopping rule a one-iteration result depends on its
    # start, so such data must give the cold run's bits
    spec = default_spec(3, 1e-4)
    y, yt, warm_iters = _drive_steps(monkeypatch, spec, cold=False)
    y_cold, yt_cold, cold_iters = _drive_steps(monkeypatch, spec, cold=True)
    assert warm_iters == cold_iters == 12
    assert np.array_equal(y, y_cold) and np.array_equal(yt, yt_cold)


def test_the_relative_rule_keeps_the_bits_of_one_iteration_data(monkeypatch):
    # |grad p| is 4e-7 here, so PICARD_REL_TOL |grad p| stays far under
    # the floor PICARD_ABS_TOL, which decides every solve
    from lagmhd import evolution

    spec = default_spec(3, 1e-4)
    y, yt, iters = _drive_steps(monkeypatch, spec, cold=False)
    monkeypatch.setattr(evolution, "PICARD_REL_TOL", 0.0)
    y_abs, yt_abs, abs_iters = _drive_steps(monkeypatch, spec, cold=False)
    assert iters == abs_iters == 12
    assert np.array_equal(y, y_abs) and np.array_equal(yt, yt_abs)


def test_in_run_solves_stop_relative_to_the_previous_pressure(monkeypatch):
    # the first solve of the stepper has no previous pressure and stops at
    # the floor PICARD_ABS_TOL; every later one at max(PICARD_ABS_TOL,
    # PICARD_REL_TOL |grad p|) with |grad p| of the solve before it, which
    # binds on the criterion-6 data
    from lagmhd import evolution

    tols = []
    compute = evolution.compute_force

    def recorded(state, *args, pressure_tol, **kwargs):
        tols.append(pressure_tol)
        return compute(state, *args, pressure_tol=pressure_tol, **kwargs)

    monkeypatch.setattr(evolution, "compute_force", recorded)
    solves = []
    spec = scaled_spec(default_spec(3, None), 0.05)
    _drive_steps(monkeypatch, spec, cold=False, solves=solves)
    pressures = [p for _, _, p in solves]
    grid = Grid((16, 16, 16), (16.0, 2 * np.pi, 2 * np.pi))  # _drive_steps's
    want = [1e-10]
    for p in pressures[:-1]:
        norm = np.sqrt(weighted_norm_sq(p.grad_p, grid.multiplicity, grid))
        want.append(max(1e-10, evolution.PICARD_REL_TOL * norm))
    assert tols[0] == 1e-10 and tols == pytest.approx(want, rel=1e-12, abs=0.0)
    assert min(want[1:]) > 1e-10
    for tol, p in zip(tols, pressures):
        assert p.residuals[-1] <= tol < min(p.residuals[:-1], default=np.inf)


def test_the_relative_rule_moves_the_run_by_less_than_the_start(monkeypatch):
    # the bound the warm and cold starts are held to
    from lagmhd import evolution

    spec = scaled_spec(default_spec(3, None), 0.05)
    y, yt, iters = _drive_steps(monkeypatch, spec, cold=False)
    monkeypatch.setattr(evolution, "PICARD_REL_TOL", 0.0)
    y_abs, yt_abs, abs_iters = _drive_steps(monkeypatch, spec, cold=False)
    assert np.abs(y - y_abs).max() <= 1e-10 * np.abs(y_abs).max()
    assert np.abs(yt - yt_abs).max() <= 1e-10 * np.abs(yt_abs).max()
    assert iters < abs_iters


def test_a_warm_one_iteration_solve_keeps_the_history(monkeypatch):
    # at a loose floor the warm solves of the criterion-6 data stop after
    # one iteration; only a cold one-iteration solve clears the history, so
    # every solve after the first still starts warm
    from lagmhd import evolution

    solves = []
    spec = scaled_spec(default_spec(3, None), 0.05)
    monkeypatch.setattr(evolution, "PICARD_ABS_TOL", 1e-6)
    _drive_steps(monkeypatch, spec, cold=False, solves=solves)
    starts = [q0 is not None for _, q0, _ in solves]
    single = [warm and p.iterations == 1 for warm, (_, _, p) in zip(starts, solves)]
    assert not starts[0] and all(starts[1:])
    assert any(single[:-1])


def _extrapolated(values):
    """The polynomial through values at consecutive times, newest first,
    one step on: sum_j (-1)^j C(m, j + 1) values[j]."""
    m = len(values)
    return sum((-1) ** j * math.comb(m, j + 1) * v for j, v in enumerate(values))


def test_the_first_stage_weights_are_q_star_plus_the_extrapolated_offsets():
    # (1, e1, -e1, e2, -e2, ...) on (q*_{n+1}, q0_n, q*_n, ...), with e the
    # constant, linear and quadratic extrapolation of _EXTRAPOLATION
    assert evolution._FIRST_STAGE_WEIGHTS == (
        (1.0,),
        (1.0, 1.0, -1.0),
        (1.0, 2.0, -2.0, -1.0, 1.0),
        (1.0, 3.0, -3.0, -3.0, 3.0, 1.0, -1.0),
    )


def test_the_extrapolated_starts_pair_solves_by_stored_time(monkeypatch):
    # dt = 0.05 is not a binary fraction: t_3 - dt is not t_2, so a start
    # that looked its solves up by t - dt would never find them. Solve 2m
    # is the first stage at t_m, 2m + 1 the predictor at t_{m+1}. The first
    # stage starts from q*_m plus the extrapolation of up to three offsets
    # d_j = q0_j - q*_j; the predictor from the extrapolation of up to six
    # q*_j once four are held, else of up to four q0_j. Eight steps reach
    # every case: the last predictor extrapolates six
    solves = []
    spec = scaled_spec(default_spec(3, None), 0.05)
    _drive_steps(monkeypatch, spec, cold=False, steps=8, solves=solves)
    times = [t for t, _, _ in solves[::2]]
    assert times[3] - 0.05 != times[2]
    first = [p.potential for _, _, p in solves[::2]]
    star = [None] + [p.potential for _, _, p in solves[1::2]]
    for m in range(1, 8):
        t, q0, _ = solves[2 * m]
        offsets = [first[j] - star[j] for j in range(m - 1, max(m - 4, 0), -1)]
        want = star[m] + _extrapolated(offsets) if offsets else star[m]
        assert np.abs(q0 - want).max() <= 1e-14 * np.abs(want).max()
        t, q0, _ = solves[2 * m + 1]
        held = star[m:0:-1][:6] if m >= 4 else first[m::-1][:4]
        want = _extrapolated(held)
        assert np.abs(q0 - want).max() <= 1e-14 * np.abs(want).max()


def test_warm_steps_of_the_criterion_6_data_stay_within_their_picard_budget(
    monkeypatch,
):
    # once the predictor extrapolates its own potentials a step takes 3 or
    # 4 Picard iterations; 252 over 40 steps when the predictor extrapolated
    # the first-stage potentials and the offset linearly, 158 now
    solves = []
    spec = scaled_spec(default_spec(3, None), 0.05)
    _drive_steps(monkeypatch, spec, cold=False, steps=40, solves=solves)
    iterations = [p.iterations for _, _, p in solves]
    per_step = [a + b for a, b in zip(iterations[::2], iterations[1::2])]
    assert len(per_step) == 40
    assert max(per_step[12:]) <= 4
    assert sum(per_step) <= 170


def test_a_fresh_stepper_on_a_mid_run_state_agrees_with_the_run():
    # a fresh stepper starts cold and rebuilds its history; the run it
    # continues differs from the uninterrupted one by the tolerance only
    grid = Grid((16, 16, 16), (16.0, 2 * np.pi, 2 * np.pi))
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))

    def advance(stepper, state, steps):
        for _ in range(steps):
            state = stepper.step(state, stepper.force(state))
        return state

    stepper = LagrangianStepper(grid, 0.05)
    mid = advance(stepper, state, 5)
    whole = advance(stepper, mid, 5)
    resumed = advance(LagrangianStepper(grid, 0.05), mid, 5)
    assert resumed.t == whole.t
    for got, want in ((resumed.Y, whole.Y), (resumed.Yt, whole.Yt)):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_equilibrium_preserved_many_steps():
    grid = Grid((8, 8, 8), (2 * np.pi,) * 3)
    stepper = LagrangianStepper(grid, 0.05)
    state = FlowState.zeros(grid)
    for _ in range(1000):
        state = stepper.step(state)
    assert np.abs(grid.irfft(state.Y)).max() == 0.0
    assert np.abs(grid.irfft(state.Yt)).max() == 0.0


def test_step_self_convergence_second_order():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state0 = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))

    def advance(dt, t_end=1.0):
        st = FlowState(grid, state0.Y, state0.Yt, 0.0)
        stepper = LagrangianStepper(grid, dt)
        for _ in range(round(t_end / dt)):
            st = stepper.step(st)
        return st

    ref = advance(0.0125)
    errs = []
    for dt in (0.1, 0.05):
        st = advance(dt)
        errs.append(
            max(
                np.abs(st.Y - ref.Y).max(),
                np.abs(st.Yt - ref.Yt).max(),
            )
        )
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)


def test_determinant_drift_second_order():
    # 2D keeps the composition spectrum fully resolved, so the measured drift
    # is pure integrator error; the 3D version runs in the acceptance suite
    grid = Grid((64, 64), (4 * np.pi, 2 * np.pi))
    state0 = build_flow_state(grid, scaled_spec(default_spec(2, None), 0.05))
    det0 = determinant_values(gradient_values(state0.Y, grid))
    assert np.abs(det0 - 1.0).max() < 1e-12
    drifts = []
    for dt in (0.1, 0.05):
        st = FlowState(grid, state0.Y, state0.Yt, 0.0)
        stepper = LagrangianStepper(grid, dt)
        for _ in range(round(1.0 / dt)):
            st = stepper.step(st)
        det = determinant_values(gradient_values(st.Y, grid))
        drifts.append(np.abs(det - 1.0).max())
    assert 3.0 < drifts[0] / drifts[1] < 5.0


def _calls_on_a_state(grid):
    """(call, the arrays it is given) of every call that takes a state: the
    Lagrangian steps on a warm stepper, with and without the force given,
    the linear step, the Eulerian step of a state whose u is a flow's Yt
    array, and the pushforward of sheared and of zero-displacement data."""
    from lagmhd.initial_data import euler_from_flow

    flow = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    stepper = LagrangianStepper(grid, 0.05)
    warm = stepper.step(stepper.step(flow))
    unsheared = FlowState(grid, zero_band(grid), flow.Yt, 0.0)
    euler = euler_from_flow(unsheared)
    assert euler.u is flow.Yt
    estepper = EulerianStepper(grid, 0.05)
    return {
        "step": (lambda: stepper.step(warm), (warm.Y, warm.Yt)),
        "step-given-force": (
            lambda: stepper.step(warm, stepper.force(warm)), (warm.Y, warm.Yt)
        ),
        "step_linear": (lambda: stepper.step_linear(warm), (warm.Y, warm.Yt)),
        "eulerian-step": (lambda: estepper.step(euler), (euler.u, euler.b)),
        "euler_from_flow": (lambda: euler_from_flow(flow), (flow.Y, flow.Yt)),
        "euler_from_flow-zero": (
            lambda: euler_from_flow(unsheared), (unsheared.Y, unsheared.Yt)
        ),
    }


@pytest.mark.parametrize(
    "name",
    ["step", "step-given-force", "step_linear", "eulerian-step", "euler_from_flow",
     "euler_from_flow-zero"],
)
def test_a_step_never_writes_into_the_state_it_is_given(name):
    # a state's bands are bare arrays that states may share, so every call
    # that takes a state leaves its arrays bit for bit as they were
    grid = Grid((16, 16, 16), (16.0, 2 * np.pi, 2 * np.pi))
    call, arrays = _calls_on_a_state(grid)[name]
    before = [a.tobytes() for a in arrays]
    for _ in range(2):
        call()
    assert [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_every_band_the_program_makes_is_zero_outside_the_mask(sizes, tmp_path):
    # initial data, a Lagrangian step, the pushforward and an Eulerian step,
    # and each state read back from a checkpoint hold bands of the kept modes
    from lagmhd.checkpoint import read_checkpoint, write_checkpoint
    from lagmhd.initial_data import euler_from_flow

    grid = Grid(sizes, (16.0,) + (2 * np.pi,) * (len(sizes) - 1))
    flow = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), 0.05))
    stepped = LagrangianStepper(grid, 0.05).step(flow)
    euler = euler_from_flow(flow)
    states = [flow, stepped, euler, EulerianStepper(grid, 0.05).step(euler)]
    for i, state in enumerate(states[:]):
        write_checkpoint(tmp_path / f"{i}.ckpt", state)
        states.append(read_checkpoint(tmp_path / f"{i}.ckpt"))
    # every band holds the kept modes only, non-zero among them; in the
    # wide layout it is zero outside the mask
    dropped = FullSpectrum(grid, grid.band_shape[-1]).dealias_mask == 0.0
    assert dropped.sum() > 0
    for state in states:
        for band in vars(state).values():
            if isinstance(band, np.ndarray):
                assert band.shape == (grid.dim,) + grid.band_shape
                assert np.abs(band).max() > 0.0
                assert not np.any(widen(grid, band)[..., dropped])


@pytest.mark.parametrize("kind", [FlowState, EulerState], ids=["flow", "euler"])
@pytest.mark.parametrize("sizes", [(16, 8, 16), (32, 16)], ids=["3D", "2D"])
def test_a_state_holds_its_bands_masked(kind, sizes, rng):
    # a band holds the kept modes only, so a state holds the very arrays it
    # is given, not copied; a band of the wide layout, the first K planes of
    # a spectrum, which can hold modes outside the mask, is refused by name
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    shape = (grid.dim,) + grid.shape
    first, second = (f.name for f in dataclasses.fields(kind)[1:3])
    bands = [grid.rfft(rng.standard_normal(shape)) for _ in range(2)]
    state = kind(grid, *bands, 0.0)
    assert getattr(state, first) is bands[0] and getattr(state, second) is bands[1]
    raw = grid.fft(rng.standard_normal(shape))[..., : grid.band_shape[-1]]
    assert np.any(raw * (1.0 - FullSpectrum(grid, raw.shape[-1]).dealias_mask))
    given = raw.copy()
    with pytest.raises(ValueError, match=f"{first} has shape"):
        kind(grid, raw, bands[1], 0.0)
    with pytest.raises(ValueError, match=f"{second} has shape"):
        kind(grid, bands[0], raw, 0.0)
    assert same_bits(raw, given)


def test_the_run_paths_do_not_mask_again(monkeypatch):
    # a band holds the kept modes only, so the Lagrangian force and steps,
    # the Eulerian step and a compare never call the mask
    def raising(*args, **kwargs):
        raise AssertionError("dealias_spec called on a run path")

    monkeypatch.setattr(evolution, "dealias_spec", raising)
    monkeypatch.setattr(pressure, "dealias_spec", raising)
    for sizes in [(16, 16, 16), (32, 32)]:
        grid = Grid(sizes, (16.0,) + (2 * np.pi,) * (len(sizes) - 1))
        flow = build_flow_state(grid, scaled_spec(default_spec(grid.dim, None), 0.05))
        stepper = LagrangianStepper(grid, 0.05)
        stepped = stepper.step(flow, stepper.force(flow))
        assert not np.array_equal(stepped.Y, stepper.step_linear(flow).Y)
        EulerianStepper(grid, 0.05).step(euler_from_flow(flow))
    cfg = RunConfig(
        dimension=3,
        sizes=(16, 16, 16),
        lengths=(16.0, 2 * np.pi, 2 * np.pi),
        dt=0.05,
        t_end=0.25,
        solver="both",
    )
    report = compare_formulations(cfg)
    assert 0.0 < report.max_u_discrepancy < 1e-6


def test_nan_detection():
    grid = Grid((8, 8, 8), (2 * np.pi,) * 3)
    bad = np.zeros((3,) + grid.shape)
    bad[0, 0, 0, 0] = np.nan
    state = FlowState(grid, grid.rfft(bad), zero_band(grid), 0.0)
    stepper = LagrangianStepper(grid, 0.1)
    with pytest.raises((FloatingPointError, RuntimeError)):
        stepper.step(state)


# -- Eulerian reference solver ---------------------------------------------------


def test_euler_equilibrium_fixed_point():
    grid = Grid((8, 8, 8), (2 * np.pi,) * 3)
    state = EulerState.equilibrium(grid)
    stepper = EulerianStepper(grid, 0.1)
    for _ in range(1000):
        state = stepper.step(state)
    assert np.abs(grid.irfft(state.u)).max() == 0.0
    b = grid.irfft(state.b)
    assert np.abs(b[0] - 1.0).max() < 1e-14 and np.abs(b[1:]).max() < 1e-14


@pytest.mark.parametrize("sizes", [(8, 8, 8), (16, 32), (8, 128)], ids=["3D", "2D", "2D-128"])
def test_euler_equilibrium_keeps_its_band_exactly(sizes):
    # b = e1 is 1 on the mean mode of b^1 and 0 on every other coefficient;
    # ten steps keep that band bit for bit on either last-axis transform
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    want = np.zeros((grid.dim,) + grid.band_shape, dtype=complex)
    want[(0,) * (grid.dim + 1)] = 1.0
    state = EulerState.equilibrium(grid)
    assert np.array_equal(state.b, want)
    stepper = EulerianStepper(grid, 0.1)
    for _ in range(10):
        state = stepper.step(state)
    assert np.array_equal(state.b, want)
    assert np.array_equal(state.u, np.zeros_like(want))


def test_euler_energy_identity():
    # d/dt (|u|^2 + |b|^2)/2 = -|grad u|^2: cross terms cancel exactly
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    flow = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.02))
    from lagmhd.initial_data import euler_from_flow

    state = euler_from_flow(FlowState(grid, zero_band(grid), flow.Yt, 0.0))
    dt = 0.01
    stepper = EulerianStepper(grid, dt)
    states = [state]
    for _ in range(2):
        states.append(stepper.step(states[-1]))

    def energy(st):
        bpert = st.b.copy()
        bpert[(0,) + (0,) * 3] -= 1.0
        return 0.5 * (
            weighted_norm_sq(st.u, grid.multiplicity, grid)
            + weighted_norm_sq(bpert, grid.multiplicity, grid)
        )

    e0, _, e2 = (energy(s) for s in states)
    mid = states[1]
    dissip = weighted_norm_sq(mid.u, grid.norm_k2, grid)
    lhs = (e2 - e0) / (2 * dt)
    assert lhs == pytest.approx(-dissip, rel=5e-3)


def test_euler_magnetic_field_stays_solenoidal():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    flow = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    from lagmhd.initial_data import euler_from_flow

    state = euler_from_flow(FlowState(grid, zero_band(grid), flow.Yt, 0.0))
    stepper = EulerianStepper(grid, 0.05)
    for _ in range(20):
        state = stepper.step(state)
    div = np.zeros(grid.band_shape, dtype=complex)
    for j in range(3):
        div += 1j * grid.k_axes[j] * state.b[j]
    assert np.abs(div).max() < 1e-13


@pytest.mark.parametrize("amp", [0.02, 0.05])
def test_euler_from_flow_starts_both_fields_solenoidal(amp):
    # sheared data: b0 = e1 + d1Y0(y(x)) is sampled like u0, so its divergence
    # sits at the sampling error (up to 2.6e-7 here) unless it is projected too
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    flow = build_flow_state(grid, scaled_spec(default_spec(3, None), amp))
    from lagmhd.initial_data import euler_from_flow

    state = euler_from_flow(flow)
    for field in (state.u, state.b):
        div = sum(ik * c for ik, c in zip(grid.ik, field))
        assert np.abs(div).max() < 1e-17


def test_euler_from_flow_keeps_the_exact_means():
    # no projection touches the mean modes, so sampling leaves its error
    # there (-5.9e-13 on u0, 5.0e-12 on b0^1 - 1 here); the exact pushforward
    # has mean(u0) = mean(Y1), as det(I + grad Y0) = 1, and mean(b0) = e1
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    flow = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    from lagmhd.initial_data import euler_from_flow

    state = euler_from_flow(flow)
    assert np.array_equal(state.u[:, 0, 0, 0], flow.Yt[:, 0, 0, 0])
    assert np.array_equal(state.b[:, 0, 0, 0], [1.0, 0.0, 0.0])


def test_euler_from_flow_raises_when_the_inverse_map_stalls():
    # |Y0| ~ 7 on a box of width 2 pi: the Picard inversion of x = y + Y0(y)
    # does not contract, and must not hand back an unconverged map
    grid = Grid((16, 16, 16), (16.0, 2 * np.pi, 2 * np.pi))
    flow = build_flow_state(grid, scaled_spec(default_spec(3, None), 3.0))
    from lagmhd.initial_data import euler_from_flow

    with pytest.raises(NotConvergedError) as info:
        euler_from_flow(flow)
    assert info.value.residual > 1.0


def test_euler_from_flow_inverts_a_slowly_contracting_map(monkeypatch):
    # raw amplitude 1 on the criterion-6 box: the inversion contracts by
    # ~0.63 per iteration and needs more than 60 of them
    from lagmhd import initial_data

    grid = Grid((16, 16, 16), (16.0, 2 * np.pi, 2 * np.pi))
    flow = build_flow_state(grid, scaled_spec(default_spec(3, None), 1.0))
    inverted = []
    invert = initial_data._invert_flow_map

    def recorded(y0_eval, x_pts):
        y = invert(y0_eval, x_pts)
        inverted.append(np.abs(x_pts - y - y0_eval(y).T).max())
        return y

    monkeypatch.setattr(initial_data, "_invert_flow_map", recorded)
    initial_data.euler_from_flow(flow)
    assert len(inverted) == 1 and inverted[0] < 1e-13


def _advective_rhs(grid, u_band, b_band):
    """(rhs_u, h) of the Eulerian stepper with the nonlinearity
    u.grad u - b.grad b in advective form: the oracle of its stress form."""
    u = grid.irfft(u_band)
    b = grid.irfft(b_band)
    grad_u = gradient_values(u_band, grid)
    grad_b = gradient_values(b_band, grid)
    conv = np.einsum("j...,ij...->i...", u, grad_u) - np.einsum(
        "j...,ij...->i...", b, grad_b
    )
    n_band = grid.rfft(conv)
    rhs_u = -(n_band - riesz_apply_spec(n_band, grid))
    k = grid.k_axes
    if grid.dim == 2:
        w_band = grid.rfft(u[0] * b[1] - u[1] * b[0])
        h_band = np.stack([1j * k[1] * w_band, -1j * k[0] * w_band])
    else:
        w_band = grid.rfft(np.cross(u, b, axis=0))
        h_band = np.stack(
            [
                1j * (k[1] * w_band[2] - k[2] * w_band[1]),
                1j * (k[2] * w_band[0] - k[0] * w_band[2]),
                1j * (k[0] * w_band[1] - k[1] * w_band[0]),
            ]
        )
    return rhs_u, h_band


def _solenoidal_pair(grid, rng):
    """Random solenoidal u and b = e1 + b' filling the 2/3-retained band."""
    kmax = int(np.ceil(min(grid.sizes) / 3.0)) - 1
    u = leray_project(random_band_limited(grid, rng, kmax=kmax, scale=0.3))
    b = leray_project(random_band_limited(grid, rng, kmax=kmax, scale=0.2)).band
    b[(0,) * (grid.dim + 1)] += 1.0
    return u.band, b


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_euler_stress_form_matches_the_advective_form(sizes, rng):
    # div(u u^T - b b^T) = u.grad u - b.grad b for solenoidal fields, and the
    # 2/3 mask makes both exact on the retained band
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    stepper = EulerianStepper(grid, 0.01)
    for _ in range(3):
        u_band, b_band = _solenoidal_pair(grid, rng)
        got = stepper._rhs(u_band, b_band)
        want = _advective_rhs(grid, u_band, b_band)
        for name, g, w in zip(("rhs_u", "h"), got, want, strict=True):
            assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max(), name


@pytest.mark.parametrize("sizes", [(16, 16, 16), (32, 32)], ids=["3D", "2D"])
def test_euler_rhs_takes_two_transform_calls(monkeypatch, sizes, rng):
    # one inverse of the stacked (u, b') band, one forward of the d(d+1)/2
    # stress entries and u x b: 6 + 9 components in 3D, 4 + 4 in 2D
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    d = grid.dim
    stepper = EulerianStepper(grid, 0.01)
    u_band, b_band = _solenoidal_pair(grid, rng)
    calls = {"rfft": [], "irfft": []}
    rfft, irfft = Grid.rfft, Grid.irfft

    def counted_rfft(self, values, *args, **kwargs):
        calls["rfft"].append(values.shape[:-d])
        return rfft(self, values, *args, **kwargs)

    def counted_irfft(self, band, *args, **kwargs):
        calls["irfft"].append(band.shape[:-d])
        return irfft(self, band, *args, **kwargs)

    monkeypatch.setattr(Grid, "rfft", counted_rfft)
    monkeypatch.setattr(Grid, "irfft", counted_irfft)
    stepper._rhs(u_band, b_band)
    assert calls == {"irfft": [(2 * d,)], "rfft": [(9,) if d == 3 else (4,)]}


def test_a_warm_euler_step_allocates_no_grid_sized_array():
    # the compare16 grid: a warm step holds the two bands of the state it
    # returns, 69,696 B of (11, 11, 6) modes, and numpy's bookkeeping,
    # 73,796 B measured, 2.12 bands; with real heat and filter tables and
    # products broadcast over the components it was 106,248 B (3.05 bands,
    # against a bound of 120,000), numpy's cast and iteration buffers (on
    # the wide band 222,696 B, and 23.5 bands when every right-hand side
    # allocated its transforms and products)
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    flow = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.02))
    from lagmhd.initial_data import euler_from_flow

    state = euler_from_flow(FlowState(grid, zero_band(grid), flow.Yt, 0.0))
    stepper = EulerianStepper(grid, 0.01)
    for _ in range(2):
        state = stepper.step(state)
    tracemalloc.start()
    try:
        stepper.step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80_000


@pytest.mark.parametrize("bad_step", [2, 5], ids=["mid-run", "last-step"])
def test_euler_run_aborts_on_a_non_finite_magnetic_field(
    monkeypatch, tmp_path, bad_step
):
    # a NaN in b alone, put into the induction term of the second stage of
    # bad_step: the run aborts at that step and checkpoints the last finite state
    from lagmhd.checkpoint import read_checkpoint

    grid = Grid((8, 8, 8), (2 * np.pi,) * 3)
    rhs = EulerianStepper._rhs
    calls = []

    def poisoned(self, *args):
        rhs_u, h = rhs(self, *args)
        calls.append(None)
        if len(calls) == 2 * bad_step:
            h[(0,) + (1,) * grid.dim] = np.nan
        return rhs_u, h

    monkeypatch.setattr(EulerianStepper, "_rhs", poisoned)
    cfg = RunConfig(
        dimension=3,
        sizes=grid.sizes,
        lengths=grid.lengths,
        dt=0.05,
        t_end=0.25,
        cadence=0.05,
        solver="eulerian",
        output_dir=str(tmp_path),
    )
    report = run_simulation(cfg)
    assert report.aborted and "FloatingPointError" in report.abort_reason
    assert report.t_final == pytest.approx((bad_step - 1) * cfg.dt)
    assert os.path.basename(report.checkpoint_path) == "state_abort.ckpt"
    state = read_checkpoint(report.checkpoint_path)
    assert np.isfinite(state.u).all() and np.isfinite(state.b).all()


def test_euler_2d_curl_form(grid2, rng):
    u = random_band_limited(grid2, rng, rank=1, kmax=3, scale=0.01)
    u = leray_project(u)
    b = np.zeros((2,) + grid2.shape)
    b[0] = 1.0
    state = EulerState(grid2, u.band, grid2.rfft(b), 0.0)
    stepper = EulerianStepper(grid2, 0.05)
    for _ in range(10):
        state = stepper.step(state)
    div = np.zeros(grid2.band_shape, dtype=complex)
    for j in range(2):
        div += 1j * grid2.k_axes[j] * state.b[j]
    assert np.abs(div).max() < 1e-13
    assert np.isfinite(grid2.irfft(state.u)).all()


@pytest.mark.parametrize(
    "sizes, n, component",
    [((16, 16, 16), 5, 2), ((32, 32), 10, 0)],
    ids=["3D", "2D"],
)
def test_euler_keeps_a_magnetostatic_shear_on_the_outermost_retained_mode(
    sizes, n, component
):
    # u = 0 and b = e1 + 1e-3 cos(n y2) e_c with e_c transverse to the
    # wavevector n e2: k . B0 = 0 and the Lorentz force is a gradient, so the
    # state is steady in the non-resistive system, here on the highest y2
    # mode the 2/3 mask keeps (b moves by 5.7e-24 in 3D and 0 in 2D), which
    # a filter on b pinned to the mask's boundary would wipe: |b - b0| would
    # read the mode's whole band coefficient, 5e-4
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    assert grid.modes[1].max() == n
    y2 = np.arange(sizes[1]) * (2 * np.pi / sizes[1])
    values = np.zeros((grid.dim,) + grid.shape)
    values[0] = 1.0
    values[component] += 1e-3 * np.cos(n * y2).reshape(
        [-1 if i == 1 else 1 for i in range(grid.dim)]
    )
    b0 = grid.rfft(values)
    state = EulerState(grid, np.zeros_like(b0), b0.copy())
    stepper = EulerianStepper(grid, 0.05)
    for _ in range(10):
        state = stepper.step(state)
    assert np.abs(state.b - b0).max() <= 1e-15


def test_euler_run_decays_over_a_long_horizon(tmp_path):
    # criterion 7's data with the Eulerian solver alone to t = 50: b takes
    # no dissipation beyond its coupling to u under the mean field, and the
    # run still finishes, with |grad u|_inf down from 4.0e-4 to 2.9e-13
    cfg = RunConfig(
        dimension=3,
        sizes=(16, 16, 16),
        lengths=(2 * np.pi,) * 3,
        dt=0.025,
        cadence=0.25,
        t_end=50.0,
        solver="eulerian",
        epsilon0=1e-4,
        y0_modes_a=(),
        y0_modes_c=(),
        y1_modes=(
            VelocityMode((1, 1, 0), axis=2, amp=1.0, phase=0.3),
            VelocityMode((0, 1, 1), axis=0, amp=0.7, phase=1.1),
        ),
        output_dir=str(tmp_path),
    )
    report = run_simulation(cfg)
    assert not report.aborted
    assert report.t_final == pytest.approx(50.0)
    first, last = report.samples[0].grad_u_sup, report.samples[-1].grad_u_sup
    assert last < 1e-8 * first

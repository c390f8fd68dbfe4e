"""Acceptance suite: every criterion at its stated tolerance, one line each."""

import time

import numpy as np
import pytest

from lagmhd.admissibility import check_admissible
from lagmhd.config import RunConfig
from lagmhd.energy import (
    LOWER_BOUND_TOL,
    EnergyEvaluator,
    corrected_energy,
    fit_decay_rate,
    lower_bound_margin,
    nonlinear_scaling_study,
)
from lagmhd.evolution import LagrangianStepper, compute_force, propagator_matrix
from lagmhd.fields import VectorField
from lagmhd.geometry import (
    FlowState,
    construct_initial_map,
    determinant_values,
)
from lagmhd.grid import Grid
from lagmhd.initial_data import (
    VelocityMode,
    build_flow_state,
    default_spec,
    scaled_spec,
)
from lagmhd.oracle import linear_decay_oracle
from lagmhd.runner import compare_formulations, run_simulation, scaling_run
from lagmhd.spectral import gradient_values, weighted_norm_sq

from conftest import leray_project, mirror, narrow, random_band_limited
from test_admissibility import SEEDS, K, curl_field, uniform_b0


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def small_data_run(tmp_path_factory):
    """Criterion 3 configuration, shared with criteria 4 and 10."""
    out = tmp_path_factory.mktemp("accept_run")
    cfg = RunConfig(
        dimension=3,
        sizes=(32, 32, 32),
        lengths=(64.0, 2 * np.pi, 2 * np.pi),
        dt=0.05,
        t_end=50.0,
        cadence=0.25,
        epsilon0=1e-4,
        output_dir=str(out),
    )
    start = time.time()
    rep = run_simulation(cfg)
    rep.elapsed = time.time() - start
    return rep


def test_criterion_1_linear_exactness():
    start = time.time()
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    rng = np.random.default_rng(2024)
    dt, nsteps = 0.1, 100
    stepper = LagrangianStepper(grid, dt)
    worst = 0.0
    for trial in range(50):
        if trial == 0:
            n = np.array([2, 0, 0])  # degenerate: |k|^4 = 4 k1^2
        else:
            n = rng.integers(-5, 6, size=3)
            while not n.any():
                n = rng.integers(-5, 6, size=3)
        y0 = np.zeros((3,) + grid.shape, dtype=complex)
        yt0 = np.zeros_like(y0)
        idx, idxc = tuple(n % 16), tuple((-n) % 16)
        for spec, amp in (
            (y0, rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            (yt0, rng.standard_normal(3) + 1j * rng.standard_normal(3)),
        ):
            spec[(slice(None),) + idx] = amp
            spec[(slice(None),) + idxc] = np.conj(amp)
        state = FlowState(grid, narrow(grid, y0), narrow(grid, yt0), 0.0)
        for _ in range(nsteps):
            state = stepper.step_linear(state)
        p = propagator_matrix(n.astype(float), nsteps * dt)
        y_ref = p[0, 0] * y0 + p[0, 1] * yt0
        yt_ref = p[1, 0] * y0 + p[1, 1] * yt0
        scale = max(np.abs(y0).max(), np.abs(yt0).max())
        worst = max(
            worst,
            np.abs(mirror(grid, state.Y) - y_ref).max() / scale,
            np.abs(mirror(grid, state.Yt) - yt_ref).max() / scale,
        )
    elapsed = time.time() - start
    report(
        1,
        "linear exactness",
        worst <= 1e-10 and elapsed < 10.0,
        f"max relative error {worst:.2e} over 50 modes, {elapsed:.1f}s",
    )


def test_criterion_2_whole_space_decay_oracle():
    start = time.time()
    t_grid = np.geomspace(1e2, 1e4, 17)
    res = linear_decay_oracle(t_grid)
    fit1 = fit_decay_rate(t_grid, res["grad_yt_h2"], (90.0, 1.1e4))
    fit2 = fit_decay_rate(t_grid, res["grad_d1yt_h1"], (90.0, 1.1e4))
    elapsed = time.time() - start
    ok = (
        abs(fit1.slope + 0.5) <= 0.05
        and abs(fit2.slope + 1.0) <= 0.05
        and elapsed < 60.0
    )
    report(
        2,
        "decay oracle",
        ok,
        f"slopes {fit1.slope:.3f} (target -0.5), {fit2.slope:.3f} (target -1.0), "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_nonlinear_small_data_run(small_data_run):
    rep = small_data_run
    fit = rep.decay_fits["grad_yt_h2"]
    ok = (
        not rep.aborted
        and rep.script_e_ratio <= 3.0
        and fit is not None
        and -0.75 <= fit.slope <= -0.30
        and rep.elapsed < 600.0
    )
    report(
        3,
        "small-data run",
        ok,
        f"completed={not rep.aborted}, script-E ratio {rep.script_e_ratio:.3f} <= 3, "
        f"decay slope {fit.slope:.3f} in [-0.75,-0.30], {rep.elapsed:.0f}s",
    )


def test_criterion_4_ledger(small_data_run):
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    ev = EnergyEvaluator(grid)
    rng = np.random.default_rng(99)
    min_margin = np.inf
    all_pass = True
    for _ in range(100):
        state = FlowState(
            grid,
            random_band_limited(grid, rng, rank=1, kmax=4).band,
            random_band_limited(grid, rng, rank=1, kmax=4).band,
            float(rng.uniform(0.0, 10.0)),
        )
        table = ev.sample_table(state)
        corrected = sum(corrected_energy(table, state.t))
        margin = lower_bound_margin(table, state.t, corrected)
        all_pass &= margin >= -LOWER_BOUND_TOL
        min_margin = min(min_margin, margin)
    rate = small_data_run.ledger_pass_rate
    run_margin = small_data_run.lower_bound_margin_min
    ok = all_pass and min_margin >= 0.0 and run_margin >= 0.0 and rate >= 0.99
    report(
        4,
        "energy ledger",
        ok,
        f"lower bound margin >= {min_margin:.3e} over 100 states, "
        f">= {run_margin:.3e} over the run's samples, "
        f"inequality pass rate {rate:.4f} over {small_data_run.ledger_checked} samples",
    )


def test_criterion_5_nonlinear_bound_scaling():
    start = time.time()
    cfg = RunConfig(
        dimension=2,
        sizes=(128, 128),
        lengths=(64.0, 2 * np.pi),
        dt=0.05,
        t_end=10.0,
        cadence=0.25,
        epsilon0=1e-4,
    )
    study = nonlinear_scaling_study(
        [1e-2, 5e-3, 2.5e-3], lambda a: scaling_run(cfg, a)
    )
    elapsed = time.time() - start
    ok = 1.35 <= study.slope <= 2.1 and study.monotone and elapsed < 900.0
    report(
        5,
        "nonlinear bound scaling",
        ok,
        f"fitted exponent {study.slope:.3f} in [1.35, 2.1], monotone={study.monotone}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_constraint_convergence():
    grid = Grid((32, 32, 32), (16.0, 2 * np.pi, 2 * np.pi))
    state0 = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    drifts = []
    for dt in (0.1, 0.05, 0.025):
        st = FlowState(grid, state0.Y, state0.Yt, 0.0)
        stepper = LagrangianStepper(grid, dt)
        for _ in range(round(1.0 / dt)):
            st = stepper.step(st)
        det = determinant_values(gradient_values(st.Y, grid))
        drifts.append(float(np.abs(det - 1.0).max()))
    r1, r2 = drifts[0] / drifts[1], drifts[1] / drifts[2]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    report(
        6,
        "constraint convergence",
        ok,
        f"det drift {drifts[0]:.2e} -> {drifts[1]:.2e} -> {drifts[2]:.2e}, "
        f"halving factors {r1:.2f}, {r2:.2f} in [3, 5]",
    )


def test_criterion_7_formulation_equivalence():
    discrepancies = []
    for dt in (0.1, 0.05, 0.025):
        cfg = RunConfig(
            dimension=3,
            sizes=(16, 16, 16),
            lengths=(2 * np.pi,) * 3,
            dt=dt,
            cadence=dt,
            t_end=1.0,
            t_compare=1.0,
            solver="both",
            epsilon0=1e-4,
            y0_modes_a=(),
            y0_modes_c=(),
            y1_modes=(
                VelocityMode((1, 1, 0), axis=2, amp=1.0, phase=0.3),
                VelocityMode((0, 1, 1), axis=0, amp=0.7, phase=1.1),
            ),
        )
        rep = compare_formulations(cfg)
        discrepancies.append(max(rep.max_u_discrepancy, rep.max_b_discrepancy))
    r1 = discrepancies[0] / discrepancies[1]
    r2 = discrepancies[1] / discrepancies[2]
    ok = 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0 and discrepancies[-1] <= 1e-5
    report(
        7,
        "formulation equivalence",
        ok,
        f"discrepancies {discrepancies[0]:.2e}/{discrepancies[1]:.2e}/"
        f"{discrepancies[2]:.2e}, factors {r1:.2f}, {r2:.2f}, finest <= 1e-5",
    )


def test_criterion_8_pressure_solver():
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    state = build_flow_state(grid, default_spec(3, 1e-4))
    sol = compute_force(state).pressure
    projected = leray_project(VectorField(grid, sol.grad_p))
    leray = np.sqrt(weighted_norm_sq(projected.band, grid.multiplicity, grid))
    contractions = []
    for amp in (0.08, 0.04):
        st = build_flow_state(grid, scaled_spec(default_spec(3, None), amp))
        s = compute_force(st, pressure_tol=1e-13).pressure
        contractions.append(s.contraction_estimate)
    halving = contractions[1] / contractions[0]
    ok = sol.iterations <= 10 and abs(halving - 0.5) <= 0.125 and leray <= 1e-10
    report(
        8,
        "pressure fixed point",
        ok,
        f"{sol.iterations} iterations at eps0=1e-4, contraction halving "
        f"{halving:.3f} (|.-0.5|<=0.125), |Leray grad_p| = {leray:.1e}",
    )


def test_criterion_9_admissibility():
    verdicts = {}
    verdicts["zero"] = check_admissible(uniform_b0, K, 1e-6, SEEDS).admissible
    verdicts["zero-mean"] = check_admissible(
        curl_field(1e-7, zero_mean=True), K, 1e-6, SEEDS
    ).admissible
    verdicts["nonzero-mean"] = check_admissible(
        curl_field(1e-7, zero_mean=False), K, 1e-6, SEEDS
    ).admissible
    grid = Grid((16, 16, 16), (2 * np.pi,) * 3)
    b = np.zeros((3,) + grid.shape)
    b[0] = 1.0
    imap = construct_initial_map(grid, b, tol=1e-10)
    identity_ok = (
        imap.residual_e1 <= 1e-12
        and imap.residual_det <= 1e-12
        and np.abs(grid.irfft(imap.displacement)).max() <= 1e-12
    )
    ok = (
        verdicts["zero"]
        and verdicts["zero-mean"]
        and not verdicts["nonzero-mean"]
        and identity_ok
    )
    report(
        9,
        "admissibility",
        ok,
        f"verdicts {verdicts}, identity map residuals "
        f"({imap.residual_e1:.1e}, {imap.residual_det:.1e})",
    )


def test_criterion_10_velocity_gradient_integral(small_data_run):
    rep = small_data_run
    tail = rep.grad_u_tail_ratio
    ok = np.isfinite(tail) and tail <= 0.05 and rep.grad_u_l1t > 0
    report(
        10,
        "sup-norm time integral",
        ok,
        f"integral {rep.grad_u_l1t:.3e}, last-20% increment ratio {tail:.4f} <= 0.05",
    )

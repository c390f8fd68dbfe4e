import os
from dataclasses import replace

import numpy as np
import pytest

from lagmhd import pressure
from lagmhd.checkpoint import read_checkpoint, write_checkpoint
from lagmhd.config import RunConfig
from lagmhd.energy import EnergyEvaluator, lower_bound_margin
from lagmhd.errors import ConfigError, InitialDataError
from lagmhd.evolution import EulerianStepper, EulerState
from lagmhd.geometry import FlowState
from lagmhd.grid import Grid
from lagmhd.initial_data import VelocityMode, build_flow_state, euler_from_flow
from lagmhd.runner import (
    CSV_COLUMNS,
    _grad_u_sup,
    compare_formulations,
    read_diagnostics,
    run_simulation,
)


def small_config(tmp_path, **kw):
    base = dict(
        dimension=3,
        sizes=(16, 16, 16),
        lengths=(16.0, 2 * np.pi, 2 * np.pi),
        dt=0.05,
        t_end=1.0,
        cadence=0.25,
        epsilon0=1e-4,
        output_dir=str(tmp_path),
    )
    base.update(kw)
    return RunConfig(**base)


def test_zero_data_runs_with_zero_diagnostics(tmp_path):
    cfg = small_config(tmp_path, y0_modes_a=(), y0_modes_c=(), y1_modes=())
    report = run_simulation(cfg)
    assert not report.aborted
    assert report.det_drift_max == 0.0
    for s in report.samples:
        assert s.energy_total == 0.0
        assert s.corrected == 0.0
        assert s.grad_u_sup == 0.0


def test_csv_shape_and_header(tmp_path):
    cfg = small_config(tmp_path)
    report = run_simulation(cfg)
    with open(report.csv_path) as fh:
        header = fh.readline().strip()
        rows = [line for line in fh if line.strip()]
    assert header == ",".join(CSV_COLUMNS)
    assert len(rows) == round(cfg.t_end / cfg.cadence) + 1
    data = read_diagnostics(report.csv_path)
    assert np.all(np.diff(data["script_E"]) >= -1e-15)  # nondecreasing
    assert np.all(np.diff(data["t"]) == pytest.approx(cfg.cadence))


def test_every_sample_carries_its_coercivity_margin(tmp_path):
    report = run_simulation(small_config(tmp_path / "lagrangian", t_end=0.5))
    # read from the sample's own table, it is the margin of the final state
    # evaluated cold, bit for bit
    final = report.final_state
    assert report.samples[-1].lower_bound_margin == lower_bound_margin(
        EnergyEvaluator(final.grid), final
    )
    margins = [s.lower_bound_margin for s in report.samples]
    assert report.lower_bound_margin_min == min(margins) >= 0.0
    assert "coercivity margin" in report.summary()
    euler = small_config(tmp_path / "eulerian", solver="eulerian", t_end=0.5)
    assert np.isnan(run_simulation(euler).lower_bound_margin_min)


def test_the_tail_ratio_needs_a_sample_before_the_end_of_the_tail(tmp_path):
    # at cadence 0.25 to t_end = 0.5 the last 20% (t >= 0.4) holds only the
    # last sample: no tail integral is measured, and the ratio is nan, not 0
    coarse = run_simulation(small_config(tmp_path / "coarse", t_end=0.5))
    assert coarse.grad_u_l1t > 0.0
    assert np.isnan(coarse.grad_u_tail_ratio)
    assert "tail ratio nan" in coarse.summary()
    fine = run_simulation(small_config(tmp_path / "fine", t_end=0.5, cadence=0.05))
    assert 0.0 < fine.grad_u_tail_ratio < 1.0


@pytest.mark.parametrize("shape", [(16, 12, 10), (24, 20)], ids=["3D", "2D"])
def test_the_row_wise_velocity_gradient_sup_keeps_the_bits(shape):
    # the Eulerian sample passes |grad u| its gradient array, the Lagrangian
    # one the rows of (grad_y Yt) A^T one at a time through one buffer; both
    # must give the bits of the whole-array formula
    d = len(shape)
    rng = np.random.default_rng(7)
    grad_yt, a = rng.standard_normal((2, d, d) + shape)
    whole = np.einsum("im...,jm...->ij...", grad_yt, a)
    want = float(np.sqrt(np.sum(whole**2, axis=(0, 1))).max())
    assert _grad_u_sup(whole.copy()) == want
    row = np.empty_like(grad_yt[0])
    rows = (np.einsum("m...,jm...->j...", g, a, out=row) for g in grad_yt)
    assert _grad_u_sup(rows) == want


def test_runs_are_deterministic(tmp_path):
    cfg1 = small_config(tmp_path / "a")
    cfg2 = small_config(tmp_path / "b")
    r1 = run_simulation(cfg1)
    r2 = run_simulation(cfg2)
    with open(r1.csv_path, "rb") as fh:
        b1 = fh.read()
    with open(r2.csv_path, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_scaled_run_builds_one_energy_evaluator(tmp_path, monkeypatch):
    built = []
    init = EnergyEvaluator.__init__

    def counted(self, grid):
        built.append(grid.sizes)
        init(self, grid)

    monkeypatch.setattr(EnergyEvaluator, "__init__", counted)
    report = run_simulation(small_config(tmp_path, t_end=0.25))
    assert not report.aborted
    assert built == [(16, 16, 16)]


@pytest.mark.parametrize("solver", ["lagrangian", "eulerian"])
def test_checkpoint_restart_matches_uninterrupted(tmp_path, solver):
    def run(name, **kw):
        return run_simulation(small_config(tmp_path / name, solver=solver, **kw))

    full = run("full", t_end=1.0)
    first = run("first", t_end=0.5)
    resumed = run("second", t_end=1.0, checkpoint_in=first.checkpoint_path)
    for name in ("Y", "Yt") if solver == "lagrangian" else ("u", "b"):
        grid = full.final_state.grid
        want = grid.irfft(getattr(full.final_state, name))
        got = grid.irfft(getattr(resumed.final_state, name))
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(want - got).max() < 1e-12 * scale, name


def test_large_data_exercises_pressure_abort(tmp_path, monkeypatch):
    # velocity-only data keeps det(I + grad Y0) = 1 exactly, so the run starts
    # cleanly and then leaves the contraction regime as the displacement grows;
    # the smallness functional integrates over the box, so order-one fields
    # correspond to a large nominal epsilon0 here. At the cap of 50 a solve
    # stops unconverged at t = 0.40; at 400 the iteration expands at t = 0.45
    monkeypatch.setattr(pressure, "PICARD_MAX_ITER", 400)
    cfg = small_config(
        tmp_path,
        epsilon0=2000.0,
        t_end=2.0,
        lengths=(2 * np.pi,) * 3,
        y0_modes_a=(),
        y0_modes_c=(),
        y1_modes=(
            VelocityMode((1, 1, 0), axis=2, amp=1.0, phase=0.3),
            VelocityMode((0, 1, 1), axis=0, amp=0.8, phase=1.1),
            VelocityMode((1, 0, 1), axis=1, amp=0.6, phase=2.0),
        ),
    )
    report = run_simulation(cfg)
    assert report.aborted
    assert "PressureDivergence" in report.abort_reason
    assert os.path.exists(report.checkpoint_path)
    assert os.path.exists(os.path.join(cfg.output_dir, "abort_report.txt"))
    state = read_checkpoint(report.checkpoint_path)
    assert np.isfinite(state.grid.irfft(state.Y)).max()


def test_initial_det_precondition_enforced(tmp_path):
    from lagmhd.errors import InitialDataError
    from lagmhd.initial_data import ShearMode

    # a single non-composed shear pair cannot violate det, so force it with a
    # deliberately compressible velocity... instead use an a-shear depending on
    # y1 only through a huge amplitude whose truncation breaks det on the grid
    cfg = small_config(
        tmp_path,
        epsilon0=50.0,
        y0_modes_a=tuple(ShearMode((n, 1), 1.0 / n, 0.1 * n) for n in range(1, 5)),
        y0_modes_c=(ShearMode((1, 1), 0.5, 0.2),),
        y1_modes=(),
    )
    with pytest.raises(InitialDataError):
        run_simulation(cfg)


def strong_config(tmp_path, **kw):
    # the criterion-6 data at 16^3: the grid truncates the composed shears,
    # so det(I + grad Y0) misses 1 by 4.891e-6
    return small_config(tmp_path, epsilon0=36.4, t_end=0.1, cadence=0.05, **kw)


@pytest.mark.parametrize("solver", ["lagrangian", "eulerian"])
def test_data_check_holds_data_not_a_checkpoint(tmp_path, solver):
    # data with a det defect above 1e-8 is refused on either solver, but the
    # same state resumes from a checkpoint, as a run that drifted must
    cfg = strong_config(tmp_path / "data", solver=solver)
    with pytest.raises(InitialDataError, match="4.891e-06"):
        run_simulation(cfg)
    grid = Grid(cfg.sizes, cfg.lengths)
    state = build_flow_state(grid, cfg.initial_data_spec())
    if solver == "eulerian":
        state = euler_from_flow(state)
    ckpt = str(tmp_path / "drifted.ckpt")
    write_checkpoint(ckpt, state)
    report = run_simulation(strong_config(tmp_path / "resumed", solver=solver,
                                          checkpoint_in=ckpt))
    assert not report.aborted and report.t_final == pytest.approx(0.1)


def test_compare_checks_the_data(tmp_path):
    with pytest.raises(InitialDataError, match="4.891e-06"):
        compare_formulations(strong_config(tmp_path, solver="both"))


def test_solver_both_is_rejected_by_run(tmp_path):
    cfg = small_config(tmp_path, solver="both")
    with pytest.raises(ConfigError):
        run_simulation(cfg)


def test_eulerian_run_emits_velocity_columns(tmp_path):
    cfg = small_config(tmp_path, solver="eulerian", t_end=0.5)
    report = run_simulation(cfg)
    assert not report.aborted
    data = read_diagnostics(report.csv_path)
    assert np.isfinite(data["grad_u_linf"]).all()
    assert np.isnan(data["E_total"]).all()
    assert data["grad_u_l1t"][-1] > 0


@pytest.mark.parametrize("solver", ["lagrangian", "eulerian"])
def test_solver_paths_reject_the_same_bad_configs(tmp_path, solver):
    sizes = (8, 8, 8)
    lengths = (16.0, 2 * np.pi, 2 * np.pi)
    other_kind = {"lagrangian": EulerState.equilibrium, "eulerian": FlowState.zeros}
    own_kind = {"lagrangian": FlowState.zeros, "eulerian": EulerState.equilibrium}
    wrong_type = str(tmp_path / "wrong_type.ckpt")
    write_checkpoint(wrong_type, other_kind[solver](Grid(sizes, lengths)))
    wrong_grid = str(tmp_path / "wrong_grid.ckpt")
    write_checkpoint(wrong_grid, own_kind[solver](Grid((16, 8, 8), lengths)))
    bad = [
        dict(t_end=0.52),  # not a multiple of dt
        dict(t_end=0.6),  # 12 steps, not a multiple of the 5-step cadence
        dict(checkpoint_in=wrong_type),
        dict(checkpoint_in=wrong_grid),
        dict(lengths=(np.inf, 2 * np.pi, 2 * np.pi)),  # rejected by RunConfig
        dict(lengths=(16.0, np.nan, 2 * np.pi)),
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            run_simulation(
                small_config(tmp_path / "out", solver=solver, sizes=sizes, **kw)
            )


@pytest.mark.parametrize("solver", ["lagrangian", "eulerian"])
def test_a_checkpoint_from_another_box_is_refused(tmp_path, solver):
    # lengths that agree with 2 pi to five figures are another box: a 16^2
    # checkpoint on them does not resume under the default lengths
    grid = Grid((16, 16), (6.2832, 6.2832))
    kind = {"lagrangian": FlowState.zeros, "eulerian": EulerState.equilibrium}
    ckpt = str(tmp_path / "box.ckpt")
    write_checkpoint(ckpt, kind[solver](grid))
    assert read_checkpoint(ckpt).grid == grid
    cfg = RunConfig(dimension=2, sizes=(16, 16), solver=solver, checkpoint_in=ckpt,
                    output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="grid does not match"):
        run_simulation(cfg)


def test_eulerian_abort_leaves_checkpoint_and_report(tmp_path, monkeypatch):
    step = EulerianStepper.step
    calls = []

    def failing_step(self, state):
        calls.append(state.t)
        if len(calls) == 3:
            raise FloatingPointError("injected")
        return step(self, state)

    monkeypatch.setattr(EulerianStepper, "step", failing_step)
    cfg = small_config(tmp_path, solver="eulerian", sizes=(8, 8, 8), t_end=0.5)
    report = run_simulation(cfg)
    assert report.aborted
    assert "FloatingPointError" in report.abort_reason
    assert report.checkpoint_path == os.path.join(cfg.output_dir, "state_abort.ckpt")
    assert os.path.exists(report.checkpoint_path)
    assert os.path.exists(os.path.join(cfg.output_dir, "abort_report.txt"))
    assert read_checkpoint(report.checkpoint_path).t == pytest.approx(0.1)


def test_successful_run_removes_a_stale_abort_report(tmp_path):
    # an earlier run's report would claim an abort, and its abort checkpoint
    # would stand beside this run's final one as if it were current
    cfg = small_config(tmp_path, solver="eulerian", sizes=(8, 8, 8), t_end=0.5)
    report_path = os.path.join(cfg.output_dir, "abort_report.txt")
    stale_ckpt = os.path.join(cfg.output_dir, "state_abort.ckpt")
    with open(report_path, "w") as fh:
        fh.write("aborted at t = 0.1\nreason: FloatingPointError: earlier run\n")
    write_checkpoint(stale_ckpt, EulerState.equilibrium(Grid(cfg.sizes, cfg.lengths)))
    report = run_simulation(cfg)
    assert not report.aborted
    assert not os.path.exists(report_path)
    assert not os.path.exists(stale_ckpt) and os.path.exists(report.checkpoint_path)


def test_a_finished_run_removes_an_earlier_runs_abort_checkpoint(tmp_path):
    # a Lagrangian run far outside the smallness regime aborts; a small-data
    # run of the same config into the same output_dir then finishes
    cfg = small_config(
        tmp_path, sizes=(8, 8, 8), lengths=(2 * np.pi,) * 3, t_end=0.5,
        y0_modes_a=(), y0_modes_c=(), epsilon0=1e4,
    )
    assert run_simulation(cfg).aborted
    report = run_simulation(replace(cfg, epsilon0=1e-4))
    assert not report.aborted
    assert sorted(os.listdir(tmp_path)) == ["diagnostics.csv", "state_final.ckpt"]


def test_a_finished_run_keeps_the_abort_checkpoint_it_resumed_from(tmp_path):
    # resumed from the abort checkpoint of its own output_dir: that file is
    # this run's input, and it stays; the stale report goes
    ckpt = str(tmp_path / "state_abort.ckpt")
    cfg = small_config(tmp_path, solver="eulerian", sizes=(8, 8, 8), t_end=0.5,
                       checkpoint_in=ckpt)
    report_path = str(tmp_path / "abort_report.txt")
    with open(report_path, "w") as fh:
        fh.write("aborted at t = 0\nreason: FloatingPointError: earlier run\n")
    write_checkpoint(ckpt, EulerState.equilibrium(Grid(cfg.sizes, cfg.lengths)))
    report = run_simulation(cfg)
    assert not report.aborted
    assert not os.path.exists(report_path)
    assert os.path.exists(ckpt) and os.path.exists(report.checkpoint_path)


def test_compare_rejects_a_checkpoint(tmp_path):
    ckpt = str(tmp_path / "state.ckpt")
    cfg = small_config(tmp_path, solver="both", checkpoint_in=ckpt)
    write_checkpoint(ckpt, FlowState.zeros(Grid(cfg.sizes, cfg.lengths)))
    with pytest.raises(ConfigError, match="checkpoint"):
        compare_formulations(cfg)


def test_compare_zero_data(tmp_path):
    cfg = small_config(
        tmp_path, solver="both", y0_modes_a=(), y0_modes_c=(), y1_modes=()
    )
    report = compare_formulations(cfg)
    assert report.max_u_discrepancy == 0.0
    assert report.max_b_discrepancy == 0.0


def test_compare_discrepancy_halves_with_dt(tmp_path):
    discrepancies = []
    for dt in (0.1, 0.05):
        cfg = small_config(
            tmp_path,
            solver="both",
            dt=dt,
            cadence=dt,
            lengths=(2 * np.pi,) * 3,
            t_compare=1.0,
            y0_modes_a=(),
            y0_modes_c=(),
            y1_modes=(
                VelocityMode((1, 1, 0), axis=2, amp=1.0, phase=0.3),
                VelocityMode((0, 1, 1), axis=0, amp=0.7, phase=1.1),
            ),
        )
        rep = compare_formulations(cfg)
        discrepancies.append(max(rep.max_u_discrepancy, rep.max_b_discrepancy))
    assert 3.0 < discrepancies[0] / discrepancies[1] < 5.0

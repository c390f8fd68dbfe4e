import io
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import pytest

import lagmhd
from lagmhd import pressure
from lagmhd.checkpoint import read_checkpoint, write_checkpoint
from lagmhd.config import RunConfig, dump_config
from lagmhd.energy import (
    LEDGER_BAND_FACTOR,
    EnergyEvaluator,
    corrected_energy,
    dissipation_inequality_terms,
    lower_bound_margin,
)
from lagmhd.errors import ConfigError, InitialDataError, RunAbortedError
from lagmhd.evolution import EulerianStepper, EulerState
from lagmhd.geometry import FlowState
from lagmhd.grid import Grid
from lagmhd.initial_data import (
    VelocityMode,
    build_flow_state,
    default_spec,
    euler_from_flow,
    scaled_spec,
)
from lagmhd.runner import (
    CSV_COLUMNS,
    RunSample,
    _Audit,
    _drive,
    _grad_u_sup,
    _postprocess,
    compare_formulations,
    read_diagnostics,
    run_simulation,
    scaling_run,
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


# the columns that are no smooth function of dt: a count, a pass flag and
# the contraction estimate, a sup over Picard iterations
NOT_SMOOTH_IN_DT = ("pressure_iters", "ledger_pass", "contraction_est")


def test_every_float_column_is_second_order_in_dt(tmp_path):
    # Richardson audit on criterion 6's data (the strong3d run, 32^3 on the
    # (16, 2pi, 2pi) box to t = 1): at dt = 1/8, 1/16 and 1/32 the successive
    # differences of each float column fall by a factor in [3, 5], on the
    # t = 1 row, and for the ledger columns on the last row that has one.
    # Criterion 6 checks the order of the det drift alone; a first-order
    # defect in what a sample reads (the predictor state sampled, a Duhamel
    # weight off by O(dt)) fails here
    data = scaled_spec(default_spec(3, None), 0.05)
    rows = []
    for dt in (1 / 8, 1 / 16, 1 / 32):
        cfg = small_config(
            tmp_path / f"dt{round(1 / dt)}", sizes=(32, 32, 32), dt=dt, epsilon0=36.4,
            y0_modes_a=data.shear_a, y0_modes_c=data.shear_c, y1_modes=data.velocity,
        )
        csv = read_diagnostics(run_simulation(cfg).csv_path)
        assert np.array_equal(csv["t"], [0.0, 0.25, 0.5, 0.75, 1.0])
        rows.append(csv)
    factors = {}
    for name in CSV_COLUMNS[1:]:
        if name in NOT_SMOOTH_IN_DT:
            continue
        row = -2 if name.startswith("ledger_") else -1
        c8, c16, c32 = (csv[name][row] for csv in rows)
        factors[name] = (c8 - c16) / (c16 - c32)
    assert len(factors) == 21
    outside = {k: f for k, f in factors.items() if not 3.0 <= f <= 5.0}
    assert not outside, f"halving factors outside [3, 5]: {outside}"


def test_every_sample_carries_its_coercivity_margin(tmp_path):
    report = run_simulation(small_config(tmp_path / "lagrangian", t_end=0.5))
    # read from the sample's own table, it is the margin of the final state
    # evaluated cold, bit for bit
    final = report.final_state
    table = EnergyEvaluator(final.grid).sample_table(final)
    corrected = sum(corrected_energy(table, final.t))
    assert report.samples[-1].lower_bound_margin == lower_bound_margin(
        table, final.t, corrected
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


def test_the_running_audit_keeps_the_bits_of_the_whole_run_formulas():
    # the audit, one sample at a time, against whole-run formulas as the
    # reference: a running max plus a cumsum trapezoid for script_E, the
    # same trapezoid for grad_u_l1t, and the ledger's centred difference over
    # the first spacing, banded by the running max of |tilde_E| up to the
    # successor. Times accumulate a cadence of 0.1, as a run's do, so that
    # the spacings differ from the first in their last bits
    rng = np.random.default_rng(5)
    n = 40
    t = np.array(list(accumulate([0.3] + [0.1] * (n - 1))))
    assert len(set(np.diff(t).tolist())) > 1
    e = np.exp(rng.standard_normal(n))
    d, gu, rhs1, rhs2 = rng.uniform(0.0, 1.0, (4, n))
    c = rng.uniform(-1.0, 1.0, n)
    diss = rng.uniform(0.0, 0.5, (n, 5))
    rhs1 *= 8.0
    samples = [
        RunSample(t=t[i], grad_u_sup=gu[i], energy_total=e[i], dissipation_total=d[i],
                  corrected=c[i], dissipation=tuple(diss[i]), rhs1=rhs1[i], rhs2=rhs2[i])
        for i in range(n)
    ]
    out = io.StringIO()
    audit = _Audit(out)
    for i, s in enumerate(samples):
        _postprocess(audit, s)
        assert out.getvalue().count("\n") == i  # a row is written once final
    audit.close()
    assert out.getvalue().count("\n") == n

    def trapezoid(v):
        out = np.zeros_like(v)
        out[1:] = np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))
        return out

    spacing = np.diff(t)[0]
    lhs = (c[2:] - c[:-2]) / (2.0 * spacing) + np.array(
        [sum(dissipation_inequality_terms(x)) for x in diss[1:-1].tolist()]
    )
    band = LEDGER_BAND_FACTOR * spacing * spacing * np.maximum.accumulate(np.abs(c))[2:]
    passed = lhs <= (rhs1 + rhs2)[1:-1] + band
    assert 0 < passed.sum() < n - 2  # both outcomes occur
    column = {name: np.array([getattr(s, name) for s in samples])
              for name in ("script_e", "grad_u_l1t", "ledger_lhs", "ledger_rhs", "ledger_pass")}
    assert column["script_e"].tolist() == (np.maximum.accumulate(e) + trapezoid(d)).tolist()
    assert column["grad_u_l1t"].tolist() == trapezoid(gu).tolist()
    assert column["ledger_lhs"][1:-1].tolist() == lhs.tolist()
    assert column["ledger_rhs"][1:-1].tolist() == (rhs1 + rhs2)[1:-1].tolist()
    assert column["ledger_pass"][1:-1].tolist() == passed.astype(float).tolist()
    assert np.isnan([column[k][[0, -1]] for k in ("ledger_lhs", "ledger_pass")]).all()
    assert (audit.checked, audit.passed) == (n - 2, passed.sum())


def test_a_killed_run_leaves_the_complete_rows_of_an_uninterrupted_one(tmp_path):
    # a run killed with SIGKILL after at least three rows: every line it left
    # is whole and equals the same line of an uninterrupted run, header
    # included; no later row changes an earlier one, so the uninterrupted
    # run need only reach one sample past the last row left
    cfg = RunConfig(dimension=2, sizes=(16, 16), dt=0.05, t_end=1000.0, cadence=0.05)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(dump_config(cfg))
    csv_path = tmp_path / "killed" / "diagnostics.csv"
    # an earlier run's checkpoint, which the killed run's rows must not stand beside
    stale = csv_path.parent / "state_final.ckpt"
    csv_path.parent.mkdir()
    write_checkpoint(str(stale), FlowState.zeros(Grid(cfg.sizes, cfg.lengths)))
    src = os.path.dirname(os.path.dirname(lagmhd.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "lagmhd.cli", "run", "--config", str(cfg_path),
         "--output", str(csv_path.parent)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not (csv_path.exists() and csv_path.read_bytes().count(b"\n") >= 4):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    assert os.listdir(csv_path.parent) == ["diagnostics.csv"]
    text = csv_path.read_text()
    assert text.endswith("\n")  # no partial line
    lines = text.splitlines()
    rows = len(lines) - 1
    assert rows >= 3
    full = run_simulation(replace(cfg, t_end=rows * cfg.cadence, output_dir=str(tmp_path / "full")))
    with open(full.csv_path) as fh:
        assert fh.read().splitlines()[: len(lines)] == lines


@pytest.mark.parametrize("resumed", [False, True], ids=["data", "resumed"])
def test_a_refused_schedule_makes_nothing(tmp_path, resumed):
    # t_end - t0 = 0.52 from the data, and 0.48 from a checkpoint at t = 0.52,
    # is no multiple of dt = 0.05; t0 comes from the checkpoint's header
    cfg = RunConfig(dimension=2, sizes=(16, 16), dt=0.05, t_end=0.52,
                    output_dir=str(tmp_path / "out"))
    if resumed:
        ckpt = str(tmp_path / "start.ckpt")
        write_checkpoint(ckpt, FlowState.zeros(Grid(cfg.sizes, cfg.lengths), t=0.52))
        cfg = replace(cfg, t_end=1.0, checkpoint_in=ckpt)
    with pytest.raises(ConfigError, match="multiple of dt"):
        run_simulation(cfg)
    assert not os.path.exists(cfg.output_dir)


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
    # a checkpoint holds the state's bands, so the resumed run continues
    # the same trajectory bit for bit
    for name in ("Y", "Yt") if solver == "lagrangian" else ("u", "b"):
        want = getattr(full.final_state, name)
        assert np.array_equal(getattr(resumed.final_state, name), want), name


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
    assert np.isfinite(state.Y).all() and np.isfinite(state.Yt).all()


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


def test_an_aborted_run_removes_an_earlier_runs_final_checkpoint(tmp_path):
    # the other way round: a finished run, then an aborted one into the same
    # output_dir; a resume from state_final.ckpt would continue the first run
    cfg = small_config(
        tmp_path, sizes=(8, 8, 8), lengths=(2 * np.pi,) * 3, t_end=0.5,
        y0_modes_a=(), y0_modes_c=(), epsilon0=1e-4,
    )
    assert not run_simulation(cfg).aborted
    report = run_simulation(replace(cfg, epsilon0=1e4))
    assert report.aborted
    assert sorted(os.listdir(tmp_path)) == [
        "abort_report.txt", "diagnostics.csv", "state_abort.ckpt"
    ]


def test_an_aborted_run_keeps_the_final_checkpoint_it_resumed_from(tmp_path, monkeypatch):
    cfg = small_config(tmp_path, solver="eulerian", sizes=(8, 8, 8), t_end=0.5)
    first = run_simulation(cfg)
    step = EulerianStepper.step

    def failing_step(self, state):
        if state.t > 0.6:
            raise FloatingPointError("injected")
        return step(self, state)

    monkeypatch.setattr(EulerianStepper, "step", failing_step)
    report = run_simulation(replace(cfg, t_end=1.0, checkpoint_in=first.checkpoint_path))
    assert report.aborted
    assert sorted(os.listdir(tmp_path)) == [
        "abort_report.txt", "diagnostics.csv", "state_abort.ckpt", "state_final.ckpt"
    ]
    assert read_checkpoint(first.checkpoint_path).t == pytest.approx(0.5)


def test_a_run_refused_by_its_data_check_leaves_no_earlier_checkpoint(tmp_path):
    # a finished run, then the criterion-6 data on the same box, which the
    # data check refuses once the CSV is open: the finished run's checkpoint
    # must not stand beside the refused run's header as if it were its own
    assert not run_simulation(small_config(tmp_path, t_end=0.1, cadence=0.05)).aborted
    with pytest.raises(InitialDataError, match="4.891e-06"):
        run_simulation(strong_config(tmp_path))
    assert os.listdir(tmp_path) == ["diagnostics.csv"]
    assert (tmp_path / "diagnostics.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_an_interrupted_run_leaves_no_earlier_checkpoint_or_report(tmp_path, monkeypatch):
    # a run in a used output_dir, stopped by an interrupt that no solver
    # failure handler catches: it leaves its rows, and none of the earlier
    # run's checkpoints or its report
    cfg = small_config(tmp_path, solver="eulerian", sizes=(8, 8, 8), t_end=0.5)
    full = run_simulation(replace(cfg, output_dir=str(tmp_path / "full")))
    full = read_diagnostics(full.csv_path)
    grid = Grid(cfg.sizes, cfg.lengths)
    for name in ("state_final.ckpt", "state_abort.ckpt"):
        write_checkpoint(str(tmp_path / name), EulerState.equilibrium(grid))
    (tmp_path / "abort_report.txt").write_text("aborted at t = 0.1\nreason: earlier run\n")
    step = EulerianStepper.step
    calls = []

    def interrupted_step(self, state):
        calls.append(state.t)
        if len(calls) == 6:
            raise KeyboardInterrupt
        return step(self, state)

    monkeypatch.setattr(EulerianStepper, "step", interrupted_step)
    with pytest.raises(KeyboardInterrupt):
        run_simulation(cfg)
    assert sorted(os.listdir(tmp_path)) == ["diagnostics.csv", "full"]
    # the samples at t = 0 and 0.25 were recorded: both rows are written,
    # each the uninterrupted run's (an Eulerian run has no ledger columns)
    rows = read_diagnostics(str(tmp_path / "diagnostics.csv"))
    assert rows["t"].tolist() == [0.0, 0.25]
    for name, column in rows.items():
        np.testing.assert_array_equal(column, full[name][:2])


class _Counter(NamedTuple):
    t: float
    n: int


def test_drive_returns_what_it_reached_when_a_step_fails(tmp_path, monkeypatch):
    # ten steps of 0.05, a sample every other one; the seventh step fails
    monkeypatch.chdir(tmp_path)
    cfg = small_config(tmp_path / "out", t_end=0.5, cadence=0.1)
    failure = FloatingPointError("injected")

    def step(state, f):
        if state.n == 6:
            raise failure
        return _Counter((state.n + 1) * cfg.dt, state.n + 1)

    state, samples, got = _drive(
        cfg, lambda: _Counter(0.0, 0), lambda state: None, step, lambda state, f: state.n
    )
    assert got is failure
    assert state.n == 6 and samples == [0, 2, 4, 6]
    assert os.listdir(tmp_path) == []


def test_compare_and_scaling_write_nothing(tmp_path, monkeypatch):
    # output_dir unset: a writer would write into the working directory
    monkeypatch.chdir(tmp_path)
    cfg = small_config(tmp_path, solver="both", sizes=(8, 8, 8), t_end=0.5,
                       y0_modes_a=(), y0_modes_c=(), output_dir="")
    compare_formulations(cfg)
    plane = RunConfig(dimension=2, sizes=(16, 16), dt=0.05, t_end=0.5, cadence=0.25)
    script_e, rhs_integral = scaling_run(plane, 2.5e-3)
    assert script_e > 0.0 and rhs_integral > 0.0
    assert os.listdir(tmp_path) == []
    # a step that fails raises, its failure the cause, and still writes nothing
    injected = FloatingPointError("injected")

    def failing_step(self, state):
        raise injected

    monkeypatch.setattr(EulerianStepper, "step", failing_step)
    with pytest.raises(RunAbortedError, match="^FloatingPointError: injected$") as info:
        compare_formulations(cfg)
    assert info.value.__cause__ is injected
    assert os.listdir(tmp_path) == []


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

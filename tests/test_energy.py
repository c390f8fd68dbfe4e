import numpy as np
import pytest

from lagmhd.energy import (
    CORRECTED_COEFFS,
    D1_H2,
    DISSIPATION_COEFFS,
    GRAD_D1_H1,
    GRAD_D1_H2,
    GRAD_D11_H1,
    GRAD_H2,
    H2,
    LAP_D1_H1,
    LAP_H2,
    LOWER_BOUND_COEFFS,
    LOWER_BOUND_TOL,
    EnergyEvaluator,
    corrected_energy,
    dissipation_inequality_terms,
    dissipation_report,
    energy_report,
    fit_decay_rate,
    forcing_pairings,
    ledger_check,
    lower_bound_margin,
    lower_bound_value,
    nonlinear_scaling_study,
    running_trapezoid,
)
from lagmhd.config import RunConfig
from lagmhd.evolution import LinearPropagator
from lagmhd.fields import VectorField
from lagmhd.geometry import FlowState
from lagmhd.grid import Grid
from lagmhd.runner import CSV_COLUMNS, run_simulation
from lagmhd.spectral import weighted_norm_sq

from conftest import (
    FullSpectrum,
    narrow,
    mesh,
    mirror,
    random_band_limited,
    weighted_inner,
    zero_band,
)


@pytest.fixture(scope="module")
def ev3():
    return EnergyEvaluator(Grid((16, 16, 16), (2 * np.pi,) * 3))


ENERGY_COLUMNS = CSV_COLUMNS[1:8]  # the names of energy_report's components


def random_state(grid, rng, t=0.0, scale=1.0):
    return FlowState(
        grid,
        random_band_limited(grid, rng, rank=1, kmax=4, scale=scale).band,
        random_band_limited(grid, rng, rank=1, kmax=4, scale=scale).band,
        t,
    )


def full_weights(grid):
    """The eight weights over the full spectrum, from the full-spectrum tables:
    the oracle of the band table, which carries the Hermitian multiplicity."""
    full = FullSpectrum(grid)
    w1, w2, k2, k1sq = full.hs_weight(1), full.hs_weight(2), full.k2, full.k1sq
    return {
        "w_h2": w2,
        "w_d1_h2": k1sq * w2,
        "w_lap_h2": k2 * k2 * w2,
        "w_grad_h2": k2 * w2,
        "w_grad_d1_h2": k2 * k1sq * w2,
        "w_grad_d1_h1": k2 * k1sq * w1,
        "w_grad_d11_h1": k2 * k1sq * k1sq * w1,
        "w_lap_d1_h1": k2 * k2 * k1sq * w1,
    }


# -- coefficients exactly as displayed -----------------------------------------


def test_coefficient_tables():
    assert CORRECTED_COEFFS == (
        0.5, 0.5, 1 / 8, -1 / 4, 1 / 8, 1 / 8, 1 / 32, -1 / 16, -1 / 32, 1 / 64, 1 / 64,
    )
    assert LOWER_BOUND_COEFFS == (1 / 4, 1 / 2, 1 / 32, 1 / 16, 1 / 16, 1 / 64, 1 / 64, 1 / 64)
    assert DISSIPATION_COEFFS == (5 / 8, 3 / 32, 1 / 16, 1 / 32, 1 / 32)


# -- energy and dissipation components -----------------------------------------


def test_zero_state_all_components_vanish(ev3):
    state = FlowState.zeros(ev3.grid)
    assert sum(energy_report(ev3, state)) == 0.0
    assert sum(dissipation_report(ev3, state)) == 0.0
    assert sum(corrected_energy(ev3, state)) == 0.0


def test_weights_are_one_at_time_zero(ev3, rng):
    grid = ev3.grid
    state0 = random_state(grid, rng, t=0.0)
    e0 = dict(zip(ENERGY_COLUMNS, energy_report(ev3, state0), strict=True))
    state3 = FlowState(grid, state0.Y, state0.Yt, 3.0)
    e3 = dict(zip(ENERGY_COLUMNS, energy_report(ev3, state3), strict=True))
    # the (t+1) and (t+1)^2 weighted components scale literally
    assert e3["E_w_grad_yt_h2"] == pytest.approx(4.0 * e0["E_w_grad_yt_h2"], rel=1e-13)
    assert e3["E_w_grad_d1y_h2"] == pytest.approx(4.0 * e0["E_w_grad_d1y_h2"], rel=1e-13)
    for name in ("E_w2_grad_d1yt_h1", "E_w2_grad_d11y_h1"):
        assert e3[name] == pytest.approx(16.0 * e0[name], rel=1e-13)
    # unweighted components do not move
    assert e3["E_yt_h2"] == e0["E_yt_h2"] and e3["E_lap_y_h2"] == e0["E_lap_y_h2"]


def test_single_mode_energy_component_analytic(ev3):
    grid = ev3.grid
    y1 = mesh(grid)[0]
    eps = 1e-3
    vals = np.zeros((3,) + grid.shape)
    vals[1] = eps * np.sin(y1)
    state = FlowState(
        grid, VectorField.from_values(grid, vals).band, zero_band(grid), 0.0
    )
    e = energy_report(ev3, state)
    expect = eps**2 * 3.0 * (2 * np.pi) ** 3 / 2.0
    assert e[ENERGY_COLUMNS.index("E_d1y_h2")] == pytest.approx(expect, rel=1e-12)


def test_corrected_energy_coefficient_audit_without_velocity(ev3, rng):
    # with Yt = 0 the cross terms vanish and six terms survive
    grid = ev3.grid
    y = random_band_limited(grid, rng, rank=1, kmax=3)
    t = 1.7
    state = FlowState(grid, y.band, zero_band(grid), t)
    ce = corrected_energy(ev3, state)
    yh = y.spec
    w = t + 1.0
    full = full_weights(grid)

    def nsq(name):
        return weighted_norm_sq(yh, full[name], grid)

    expect = (
        0.5 * nsq("w_d1_h2")
        + 0.125 * nsq("w_lap_h2")
        + 0.125 * w * nsq("w_grad_d1_h2")
        + (1 / 32) * w * nsq("w_lap_d1_h1")
        - (1 / 32) * nsq("w_grad_d1_h1")
        + (1 / 64) * w * w * nsq("w_grad_d11_h1")
    )
    assert sum(ce) == pytest.approx(expect, rel=1e-13)
    assert ce[0] == 0.0 and ce[3] == 0.0 and ce[7] == 0.0


def test_lower_bound_holds_for_random_states(ev3, rng):
    worst = np.inf
    for i in range(100):
        state = random_state(ev3.grid, rng, t=float(rng.uniform(0, 5)))
        margin = lower_bound_margin(ev3, state)
        assert margin >= -LOWER_BOUND_TOL
        worst = min(worst, margin)
    assert worst >= -1e-12


def test_corrected_energy_bounded_by_initial_norm(ev3, rng):
    # corrected(0) <= C * smallness functional; record the observed C
    ratios = []
    for _ in range(50):
        state = random_state(ev3.grid, rng, t=0.0)
        ce = sum(corrected_energy(ev3, state))
        ratios.append(ce / ev3.initial_norm(state))
    assert max(ratios) < 4.0


# -- one weight table per sample ----------------------------------------------


def _literal_functionals(state, f_spec):
    """Every sample functional written out term by term on full spectra."""
    grid = state.grid
    yh, yth = mirror(grid, state.Y), mirror(grid, state.Yt)
    w = state.t + 1.0
    c, b, q = CORRECTED_COEFFS, LOWER_BOUND_COEFFS, DISSIPATION_COEFFS
    tables = FullSpectrum(grid)
    k2, k1sq = tables.k2, tables.k1sq
    test1 = yth + 0.25 * k2 * yh + 0.25 * w * k2 * yth
    test2 = (w / 16.0) * k2 * k1sq * yh + (w * w / 32.0) * k2 * k1sq * yth
    full = full_weights(grid)

    def nsq(spec, name):
        return weighted_norm_sq(spec, full[name], grid)

    def ip(a, b, weight):
        return weighted_inner(a, b, weight, grid)

    return {
        "energy": (
            nsq(yth, "w_h2"),
            nsq(yh, "w_d1_h2"),
            nsq(yh, "w_lap_h2"),
            w * nsq(yth, "w_grad_h2"),
            w * nsq(yh, "w_grad_d1_h2"),
            w * w * nsq(yth, "w_grad_d1_h1"),
            w * w * nsq(yh, "w_grad_d11_h1"),
        ),
        "dissipation": (
            nsq(yth, "w_grad_h2"),
            nsq(yh, "w_grad_d1_h2"),
            w * nsq(yh, "w_grad_d11_h1"),
            w * nsq(yth, "w_lap_h2"),
            w * w * nsq(yth, "w_lap_d1_h1"),
        ),
        "corrected": (
            c[0] * nsq(yth, "w_h2"),
            c[1] * nsq(yh, "w_d1_h2"),
            c[2] * nsq(yh, "w_lap_h2"),
            # (Yt | lap Y)_{H^2}: the Laplacian is -k2 inside the H^2 weight
            c[3] * -ip(yth, yh, full["w_grad_h2"]),
            c[4] * w * nsq(yth, "w_grad_h2"),
            c[5] * w * nsq(yh, "w_grad_d1_h2"),
            c[6] * w * nsq(yh, "w_lap_d1_h1"),
            c[7] * w * -ip(yh, yth, full["w_grad_d1_h1"]),
            c[8] * nsq(yh, "w_grad_d1_h1"),
            c[9] * w * w * nsq(yth, "w_grad_d1_h1"),
            c[10] * w * w * nsq(yh, "w_grad_d11_h1"),
        ),
        "lower_bound": (
            b[0] * nsq(yth, "w_h2")
            + b[1] * nsq(yh, "w_d1_h2")
            + b[2] * nsq(yh, "w_lap_h2")
            + b[3] * w * nsq(yth, "w_grad_h2")
            + b[4] * w * nsq(yh, "w_grad_d1_h2")
            + b[5] * w * nsq(yh, "w_lap_d1_h1")
            + b[6] * w * w * nsq(yth, "w_grad_d1_h1")
            + b[7] * w * w * nsq(yh, "w_grad_d11_h1"),
        ),
        "dissipation_terms": (
            q[0] * nsq(yth, "w_grad_h2"),
            q[1] * nsq(yh, "w_grad_d1_h2"),
            q[2] * w * nsq(yth, "w_lap_h2"),
            q[3] * w * nsq(yh, "w_grad_d11_h1"),
            q[4] * w * w * nsq(yth, "w_lap_d1_h1"),
        ),
        "rhs": (
            abs(ip(f_spec, test1, full["w_h2"])),
            abs(ip(f_spec, test2, tables.hs_weight(1))),
        ),
    }


@pytest.mark.parametrize(
    "grid",
    [Grid((16, 16, 16), (8.0, 2 * np.pi, 2 * np.pi)), Grid((32, 32), (16.0, 2 * np.pi))],
    ids=["3D", "2D"],
)
@pytest.mark.parametrize("t", [0.0, 1.7])
def test_table_functionals_match_literal_formulas(grid, t, rng):
    ev = EnergyEvaluator(grid)
    state = random_state(grid, rng, t=t)
    f = random_band_limited(grid, rng, rank=1, kmax=4)
    table = ev.sample_table(state, f.band)
    got = {
        "energy": energy_report(ev, state, table),
        "dissipation": dissipation_report(ev, state, table),
        "corrected": corrected_energy(ev, state, table),
        "lower_bound": (lower_bound_value(ev, state, table),),
        "dissipation_terms": dissipation_inequality_terms(ev, state, table),
        "rhs": forcing_pairings(ev, state, f.band, table),
    }
    for name, expect in _literal_functionals(state, f.spec).items():
        scale = abs(sum(expect))
        assert scale > 0.0, name
        err = max(abs(a - e) for a, e in zip(got[name], expect, strict=True))
        assert err <= 1e-14 * scale, (name, err / scale)
    # without a table each function builds its own, with the same result
    assert energy_report(ev, state) == got["energy"]
    assert forcing_pairings(ev, state, f.band) == got["rhs"]


def test_weights_are_rows_of_one_table(ev3):
    rows = {
        "w_h2": H2, "w_d1_h2": D1_H2, "w_lap_h2": LAP_H2, "w_grad_h2": GRAD_H2,
        "w_grad_d1_h2": GRAD_D1_H2, "w_grad_d1_h1": GRAD_D1_H1,
        "w_grad_d11_h1": GRAD_D11_H1, "w_lap_d1_h1": LAP_D1_H1,
    }
    nb = ev3.grid.band_shape[-1]
    assert ev3.weights.shape == (len(rows),) + ev3.grid.band_shape
    assert sorted(rows.values()) == list(range(len(rows)))
    full = full_weights(ev3.grid)
    for name, row in rows.items():
        weight = ev3.weights[row]
        # the full weight on the band's modes, k_last = 0 once, others twice
        cut = narrow(ev3.grid, np.broadcast_to(full[name], ev3.grid.shape))
        assert np.array_equal(weight[..., 0], cut[..., 0])
        assert np.array_equal(weight[..., 1:], 2.0 * cut[..., 1:nb])


def test_record_sample_builds_one_table_and_no_reductions(monkeypatch):
    import lagmhd.energy as energy
    import lagmhd.spectral as spectral
    from lagmhd.evolution import compute_force
    from lagmhd.initial_data import build_flow_state, default_spec, scaled_spec
    from lagmhd.runner import _record_sample

    grid = Grid((16, 16, 16), (16.0, 2 * np.pi, 2 * np.pi))
    state = build_flow_state(grid, scaled_spec(default_spec(3, None), 0.05))
    force = compute_force(state)
    ev = EnergyEvaluator(grid)
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        EnergyEvaluator, "sample_table", counted("table", EnergyEvaluator.sample_table)
    )
    for module, name in (
        (energy, "weighted_norm_sq"),
        (spectral, "weighted_norm_sq"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    sample = _record_sample(ev, state, force)
    assert calls == {"table": 1}
    assert sample.energy_total > 0.0 and sample.rhs1 > 0.0


# -- ledger ------------------------------------------------------------------


def _linear_ledger(grid, ev, state0, cadence, nsamples):
    """ledger_check's per-sample sequences along a forcing-free linear run."""
    prop = LinearPropagator(grid, cadence)
    yh, yth = state0.Y.copy(), state0.Yt.copy()
    times, corrected, dissipation = [], [], []
    t = 0.0
    for _ in range(nsamples):
        st = FlowState(grid, yh, yth, t)
        times.append(t)
        corrected.append(sum(corrected_energy(ev, st)))
        dissipation.append(dissipation_inequality_terms(ev, st))
        yh, yth = prop.apply(yh, yth)
        t += cadence
    return times, corrected, dissipation, [0.0] * nsamples


def test_ledger_linear_run_all_pass(ev3, rng):
    grid = ev3.grid
    state0 = random_state(grid, rng, scale=0.01, t=0.0)
    for cadence in (0.2, 0.1):
        sequences = _linear_ledger(grid, ev3, state0, cadence, 41)
        lhs, passed, band = ledger_check(*sequences)
        assert passed.all()
        # the forcing-free inequality is strict: lhs stays below the band
        assert lhs.max() <= band


def test_ledger_band_shrinks_with_cadence(ev3, rng):
    grid = ev3.grid
    state0 = random_state(grid, rng, scale=0.01, t=0.0)
    bands = []
    for cadence in (0.2, 0.1):
        sequences = _linear_ledger(grid, ev3, state0, cadence, 41)
        bands.append(ledger_check(*sequences)[2])
    assert bands[0] / bands[1] == pytest.approx(4.0, rel=0.15)


def test_ledger_requires_uniform_cadence_and_samples():
    def check(times):
        n = len(times)
        return ledger_check(times, [1.0] * n, [(0.0,) * 5] * n, [0.0] * n)

    with pytest.raises(ValueError):
        check([0.0, 0.1])
    with pytest.raises(ValueError):
        check([0.0, 0.1, 0.3])


def test_forcing_pairings_zero_force(ev3, rng):
    state = random_state(ev3.grid, rng)
    rhs1, rhs2 = forcing_pairings(ev3, state, np.zeros_like(state.Y))
    assert rhs1 == 0.0 and rhs2 == 0.0


def test_integrated_rhs_trapezoid(tmp_path):
    # a run's forcing budget is the trapezoid of its samples' rhs1 + rhs2
    cfg = RunConfig(
        dimension=2, sizes=(16, 16), dt=0.05, t_end=0.2, cadence=0.05,
        output_dir=str(tmp_path),
    )
    report = run_simulation(cfg)
    times = [s.t for s in report.samples]
    rhs = [s.rhs1 + s.rhs2 for s in report.samples]
    assert len(times) == 5 and report.rhs_integral > 0.0
    assert report.rhs_integral == np.trapezoid(rhs, times)


# -- fits, integrals, studies ---------------------------------------------------


def test_fit_decay_rate_synthetic_power_law():
    t = np.linspace(0.0, 100.0, 400)
    v = (t + 1.0) ** -0.5
    fit = fit_decay_rate(t, v, (2.0, 90.0))
    assert fit.slope == pytest.approx(-0.5, abs=1e-6)
    assert fit.r_squared > 1.0 - 1e-12


def test_fit_decay_rate_validation():
    t = np.linspace(0.0, 10.0, 50)
    with pytest.raises(ValueError):
        fit_decay_rate(t, np.ones_like(t) * -1.0, (1.0, 9.0))
    with pytest.raises(ValueError):
        fit_decay_rate(t, np.ones_like(t), (9.0, 1.0))
    with pytest.raises(ValueError):
        fit_decay_rate(t[:5], np.ones(5), (0.0, 10.0))


def test_grad_u_integral_zero_and_closed_form():
    t = np.linspace(0.0, 5.0, 2001)
    assert running_trapezoid(t, np.zeros_like(t)).max() == 0.0
    vals = np.exp(-t)
    integral = running_trapezoid(t, vals)
    expect = 1.0 - np.exp(-t)
    assert np.abs(integral - expect).max() < 1e-6  # trapezoid, O(dt^2)


def test_scaling_study_validation():
    with pytest.raises(ValueError):
        nonlinear_scaling_study([1e-2, 5e-3], lambda a: (a, a))
    with pytest.raises(ValueError):
        nonlinear_scaling_study([1e-2, 3e-3, 2.5e-3], lambda a: (a, a))
    with pytest.raises(RuntimeError, match="amplitude"):
        nonlinear_scaling_study(
            [1e-2, 5e-3, 2.5e-3], lambda a: (_ for _ in ()).throw(RuntimeError("boom"))
        )


def test_scaling_study_recovers_exponent():
    study = nonlinear_scaling_study(
        [1e-2, 5e-3, 2.5e-3, 0.0], lambda a: (a * a, (a * a) ** 1.5)
    )
    assert study.slope == pytest.approx(1.5, rel=1e-12)
    assert study.monotone
    assert len(study.amplitudes) == 3


def test_grad_u_integral_damped_oscillator_closed_form():
    # single mode k = (1,0,0): the sup norm follows the scalar damped
    # oscillator y'' + y' + y = 0; trapezoid error is O(cadence^2)
    from scipy.integrate import quad

    w = np.sqrt(3.0) / 2.0

    def amplitude(t):
        return np.abs(np.exp(-0.5 * t) * (np.cos(w * t) + (0.5 / w) * np.sin(w * t)))

    ref = quad(amplitude, 0.0, 10.0, limit=400, epsabs=1e-12)[0]
    errs = []
    for cadence in (0.05, 0.025):
        t = np.arange(0.0, 10.0 + cadence / 2, cadence)
        integral = running_trapezoid(t, amplitude(t))
        errs.append(abs(integral[-1] - ref))
    assert errs[0] < 1e-3 and errs[1] < errs[0]
    # kinks at the zero crossings keep it second order on average
    assert errs[0] / errs[1] > 2.0

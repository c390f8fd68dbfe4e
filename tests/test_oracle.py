import numpy as np
import pytest

from lagmhd.energy import fit_decay_rate
from lagmhd.errors import OracleQuadratureError
from lagmhd.oracle import (
    PowerLawProfile,
    TransverseOnlyProfile,
    linear_decay_oracle,
)


def test_profile_validation():
    with pytest.raises(ValueError):
        PowerLawProfile(k_min=1.0, k_max=0.5)
    with pytest.raises(ValueError):
        linear_decay_oracle([1.0], norms=("no_such_norm",))
    with pytest.raises(ValueError):
        linear_decay_oracle([-1.0])


def test_transverse_only_data_heat_decay_and_frozen_map():
    # spectrum concentrated near k1 = 0: Yt decays like heat, Y freezes
    profile = TransverseOnlyProfile()
    t_grid = np.array([0.0, 10.0, 20.0, 40.0])
    res = linear_decay_oracle(
        t_grid, norms=("yt_h2", "lap_y_h2"), profile=profile, n_radial=200
    )
    yt = res["yt_h2"]
    # rate at least 2 * k_min^2 / 2 per unit time in the squared norm
    assert yt[2] / yt[1] < np.exp(-0.25 * 10.0 * 0.9)
    lap = res["lap_y_h2"]
    assert lap[3] == pytest.approx(lap[2], rel=1e-3)  # frozen
    assert lap[3] > 0


def test_power_law_slopes_short_window():
    t_grid = np.geomspace(100.0, 1000.0, 11)
    res = linear_decay_oracle(t_grid)
    fit1 = fit_decay_rate(t_grid, res["grad_yt_h2"], (90.0, 1100.0))
    fit2 = fit_decay_rate(t_grid, res["grad_d1yt_h1"], (90.0, 1100.0))
    assert fit1.slope == pytest.approx(-0.5, abs=0.08)
    assert fit2.slope == pytest.approx(-1.0, abs=0.08)


def test_quadrature_failure_flags_region():
    prof = PowerLawProfile(k_min=0.5, k_max=1.0)
    with pytest.raises(OracleQuadratureError) as err:
        linear_decay_oracle([1e9], profile=prof)
    assert err.value.region is not None

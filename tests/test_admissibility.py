import numpy as np
import pytest
from scipy.integrate import quad

from lagmhd.admissibility import _integrate_batch, check_admissible
from lagmhd.errors import NonTransversalError

K = np.pi


def bump(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < K
    xi = x[inside] / K
    out[inside] = np.exp(-1.0 / (1.0 - xi * xi))
    return out


def dbump(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < K
    xi = x[inside] / K
    core = np.exp(-1.0 / (1.0 - xi * xi))
    out[inside] = core * (-2.0 * xi / (1.0 - xi * xi) ** 2) / K
    return out


def curl_field(amp, zero_mean):
    """b0 = e1 + curl(0,0,psi) with psi = chi(x1) sin(x2)."""

    def chi(x):
        return amp * (x / K) * bump(x) if zero_mean else amp * bump(x)

    def dchi(x):
        if zero_mean:
            return amp * (bump(x) / K + (x / K) * dbump(x))
        return amp * dbump(x)

    def b0(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros_like(pts)
        out[:, 0] = 1.0 + chi(pts[:, 0]) * np.cos(pts[:, 1])
        out[:, 1] = -dchi(pts[:, 0]) * np.sin(pts[:, 1])
        return out

    return b0


def uniform_b0(pts):
    pts = np.atleast_2d(pts)
    out = np.zeros_like(pts)
    out[:, 0] = 1.0
    return out


SEEDS = np.stack(
    np.meshgrid(
        np.linspace(0, 2 * np.pi, 4, endpoint=False),
        np.linspace(0, 2 * np.pi, 4, endpoint=False),
        indexing="ij",
    ),
    axis=-1,
).reshape(-1, 2)


# -- trajectories ---------------------------------------------------------------


def test_uniform_field_gives_straight_lines():
    seed = np.array([0.0, 1.0, 2.0])
    times, positions = _integrate_batch(uniform_b0, [seed], 0.05, K, 0.2)
    traj = positions[:, 0]
    expect = np.zeros_like(traj)
    expect[:, 0] = times
    expect[:, 1] = 1.0
    expect[:, 2] = 2.0
    assert np.abs(traj - expect).max() < 1e-13
    assert traj[0, 0] < -K and traj[-1, 0] > K  # both branches left the slab
    i0 = np.argmin(np.abs(times))
    assert np.abs(traj[i0] - seed).max() == 0.0


def test_trajectory_step_continuity():
    b0 = curl_field(0.2, zero_mean=True)
    _, positions = _integrate_batch(b0, [[0.0, 0.7, 0.1]], 0.02, K, 0.08)
    steps = np.abs(np.diff(positions[:, 0], axis=0)).max(axis=1)
    bmax = 1.3  # |b0| bound for this amplitude
    assert steps.max() <= 2.0 * bmax * 0.02


def test_trajectory_self_convergence_fourth_order():
    b0 = curl_field(1e-2, zero_mean=True)
    seed = np.array([0.0, 0.9, 0.4])
    t_common = 4.0  # past slab exit for every step size below
    ends = []
    for dt in (0.1, 0.05, 0.025):
        times, positions = _integrate_batch(b0, [seed], dt, K, 0.8)
        idx = int(np.argmin(np.abs(times - t_common)))
        assert abs(times[idx] - t_common) < 1e-12
        ends.append(positions[idx, 0])
    e1 = np.abs(ends[0] - ends[2]).max()
    e2 = np.abs(ends[1] - ends[2]).max()
    # Richardson against the finest level: at least 16x per halving (the flat
    # bump edges can suppress the leading error term, so superconvergence is
    # allowed, sub-fourth-order is not)
    assert np.log2(e1 / e2) > 3.5


def test_time_reversal_returns_to_seed():
    b0 = curl_field(0.1, zero_mean=False)
    seed = np.array([0.0, 1.3, 2.2])
    times, positions = _integrate_batch(b0, [seed], 0.01, K, 0.04)
    end = positions[-1, 0]
    nsteps = int(round(times[-1] / 0.01))

    def back(pts):
        return -b0(pts)

    z = end[None, :].copy()
    for _ in range(nsteps):
        k1 = back(z)
        k2 = back(z + 0.005 * k1)
        k3 = back(z + 0.005 * k2)
        k4 = back(z + 0.01 * k3)
        z = z + (0.01 / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.abs(z[0] - seed).max() < 1e-8


def test_trapped_trajectory_raises():
    def stalled(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros_like(pts)
        out[:, 0] = 0.0  # b0^1 = 0: never traverses
        out[:, 1] = 1.0
        return out

    with pytest.raises(NonTransversalError):
        _integrate_batch(stalled, [[0.0, 0.0, 0.0]], 0.05, K, 0.2)


# -- integrals ------------------------------------------------------------------


def test_integral_zero_field():
    def zero(pts):
        return np.zeros_like(np.atleast_2d(pts))

    report = check_admissible(uniform_b0, K, 1e-6, [[0.5, 0.5]], test_field=zero)
    assert np.abs(report.integrals).max() == 0.0


def test_integral_reduces_to_line_quadrature_for_uniform_b0():
    # straight trajectories: integral = h(y2, y3) * int g(x1) dx1
    def g(x):
        return np.sin(2.0 * x) * bump(x)  # odd: zero mean

    def h(y2, y3):
        return 1.0 + 0.5 * np.cos(y2) * np.sin(y3)

    def f(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros_like(pts)
        out[:, 1] = g(pts[:, 0]) * h(pts[:, 1], pts[:, 2])
        return out

    seed = np.array([0.0, 0.8, 1.9])
    got = check_admissible(uniform_b0, K, 1e-6, [seed[1:]], test_field=f)
    got = got.integrals[0]
    line = quad(g, -K, K, epsabs=1e-13)[0]
    assert abs(got[1] - line * h(seed[1], seed[2])) < 1e-10
    assert abs(got[0]) < 1e-14

    def g_pos(x):
        return bump(x)  # nonzero mean

    def f_pos(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros_like(pts)
        out[:, 1] = g_pos(pts[:, 0]) * h(pts[:, 1], pts[:, 2])
        return out

    got_pos = check_admissible(uniform_b0, K, 1e-6, [seed[1:]], test_field=f_pos)
    got_pos = got_pos.integrals[0]
    line_pos = quad(g_pos, -K, K, epsabs=1e-13)[0]
    assert got_pos[1] == pytest.approx(line_pos * h(seed[1], seed[2]), rel=1e-9)


def test_integral_rejects_unsupported_field():
    def everywhere(pts):
        return np.ones_like(np.atleast_2d(pts))

    with pytest.raises(ValueError, match="not supported"):
        check_admissible(uniform_b0, K, 1e-6, [[0.0, 0.0]], test_field=everywhere)


# -- verdicts -------------------------------------------------------------------


def test_uniform_field_admissible():
    report = check_admissible(uniform_b0, K, 1e-6, SEEDS)
    assert report.admissible
    assert report.max_abs_integral == 0.0


def test_zero_mean_profile_admissible():
    b0 = curl_field(1e-7, zero_mean=True)
    report = check_admissible(b0, K, 1e-6, SEEDS)
    assert report.admissible


def test_nonzero_mean_profile_rejected():
    b0 = curl_field(1e-7, zero_mean=False)
    report = check_admissible(b0, K, 1e-6, SEEDS)
    assert not report.admissible


def test_verdict_stable_under_seed_refinement():
    b0 = curl_field(1e-7, zero_mean=True)
    r1 = check_admissible(b0, K, 1e-6, SEEDS)
    fine = np.stack(
        np.meshgrid(
            np.linspace(0, 2 * np.pi, 8, endpoint=False),
            np.linspace(0, 2 * np.pi, 8, endpoint=False),
            indexing="ij",
        ),
        axis=-1,
    ).reshape(-1, 2)
    r2 = check_admissible(b0, K, 1e-6, fine)
    assert r1.admissible == r2.admissible
    assert abs(r1.max_abs_integral - r2.max_abs_integral) <= r1.tolerance


def test_report_csv_block():
    report = check_admissible(uniform_b0, K, 1e-6, SEEDS)
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "seed_y2,seed_y3,integral_1,integral_2,integral_3,admissible"
    assert len(lines) == 1 + len(SEEDS)


def test_two_dimensional_plane_is_a_line():
    def b0_2d(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros_like(pts)
        out[:, 0] = 1.0
        out[:, 1] = 0.3 * bump(pts[:, 0])
        return out

    seeds = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)[:, None]
    report = check_admissible(b0_2d, K, 1e-6, seeds)
    assert report.integrals.shape == (5, 2)
    assert not report.admissible  # bump has nonzero mean

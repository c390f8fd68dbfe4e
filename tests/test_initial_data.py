import numpy as np
import pytest

from lagmhd import runner
from lagmhd.config import RunConfig
from lagmhd.energy import EnergyEvaluator
from lagmhd.errors import ConfigError
from lagmhd.grid import Grid
from lagmhd.initial_data import (
    InitialDataSpec,
    ShearMode,
    _shear_profile,
    build_flow_state,
    default_spec,
)


def _full_grid_profile(grid, modes, axes):
    """The profile summed literally on the full grid, mode by mode."""
    coords = [np.broadcast_to(c, grid.shape) for c in grid.coords]
    out = np.zeros(grid.shape)
    for m in modes:
        phase = np.zeros(grid.shape)
        for n_i, ax in zip(m.n, axes):
            phase = phase + n_i * (2.0 * np.pi / grid.lengths[ax]) * coords[ax]
        out = out + m.amp * np.cos(phase + m.phase)
    return out


@pytest.mark.parametrize(
    "sizes, axes", [((16, 8, 16), (0, 2)), ((32, 16), (0,))], ids=["3D", "2D"]
)
def test_shear_profile_on_its_plane_is_the_full_grid_sum(sizes, axes):
    grid = Grid(sizes, (64.0,) + (2 * np.pi,) * (len(sizes) - 1))
    modes = default_spec(grid.dim).shear_a
    plane = _shear_profile(grid, modes, axes)
    assert plane.shape == tuple(n if i in axes else 1 for i, n in enumerate(sizes))
    full = np.broadcast_to(plane, grid.shape)
    assert np.array_equal(full, _full_grid_profile(grid, modes, axes))


@pytest.mark.parametrize(
    "sizes, n", [((8, 8, 8), (1,)), ((8, 8, 8), (1, 1, 1)), ((16, 16), (1, 1))],
    ids=["3D-short", "3D-long", "2D-long"],
)
def test_a_shear_c_mode_with_the_wrong_index_count_is_a_config_error(sizes, n, tmp_path):
    # c(y2[, y3]) indexes d - 1 axes, as a(y1[, y3]) does
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    mode = ShearMode(n, amp=0.01)
    with pytest.raises(ConfigError, match="shear mode"):
        build_flow_state(grid, InitialDataSpec(shear_c=(mode,)))
    cfg = RunConfig(dimension=len(sizes), sizes=sizes, lengths=grid.lengths,
                    dt=0.05, t_end=0.1, y0_modes_c=(mode,), output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="shear mode"):
        runner.run_simulation(cfg)


def test_build_flow_state_transform_count(monkeypatch):
    # Y0 = (c, s a, 0) at scale s: the a-shear and the projected velocity are
    # linear in the scale, so a build transforms them once (a: 1 forward, its
    # gradient 3 inverse; the velocity 3 + 3); each assembly transforms c (1)
    # and its gradient (3), and Y1 (3). The data check reads the gradient of
    # Y0 that the last assembly formed, so a checked build takes no more.
    # Counted in last-axis stages, which every transform and gradient takes
    grid = Grid((16, 16, 16), (64.0, 2 * np.pi, 2 * np.pi))
    components = {"forward": 0, "inverse": 0}
    assemblies = []
    forward, inverse = Grid.last_forward, Grid.last_inverse
    norm = EnergyEvaluator.initial_norm

    def counted(name, method):
        def wrapper(self, array, *args, **kwargs):
            components[name] += int(np.prod(array.shape[: -grid.dim]))
            return method(self, array, *args, **kwargs)

        return wrapper

    def counted_norm(state):
        assemblies.append(state)
        return norm(state)

    monkeypatch.setattr(Grid, "last_forward", counted("forward", forward))
    monkeypatch.setattr(Grid, "last_inverse", counted("inverse", inverse))
    monkeypatch.setattr(EnergyEvaluator, "initial_norm", staticmethod(counted_norm))
    build_flow_state(grid, default_spec(3, 1e-4))
    n = len(assemblies)
    assert n == 4  # the scale at 1, then three rescaled assemblies
    assert components == {"forward": 4 + 4 * n, "inverse": 6 + 3 * n}
    runner._checked_data(grid, default_spec(3, 1e-4))
    assert len(assemblies) == 2 * n
    assert components == {"forward": 2 * (4 + 4 * n), "inverse": 2 * (6 + 3 * n)}

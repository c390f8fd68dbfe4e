import numpy as np
import pytest

from lagmhd.energy import EnergyEvaluator
from lagmhd.grid import Grid
from lagmhd.initial_data import _shear_profile, build_flow_state, default_spec


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


def test_build_flow_state_transform_count(monkeypatch):
    # Y0 = (c, s a, 0) at scale s: the a-shear and the projected velocity are
    # linear in the scale, so a build transforms them once (a: 1 forward, its
    # gradient 3 inverse; the velocity 3 + 3); each assembly transforms c (1)
    # and its gradient (3), and Y1 (3)
    grid = Grid((16, 16, 16), (64.0, 2 * np.pi, 2 * np.pi))
    components = {"rfft": 0, "irfft": 0}
    assemblies = []
    rfft, irfft, norm = Grid.rfft, Grid.irfft, EnergyEvaluator.initial_norm

    def counted(name, method):
        def wrapper(self, array, *args, **kwargs):
            components[name] += int(np.prod(array.shape[: -grid.dim]))
            return method(self, array, *args, **kwargs)

        return wrapper

    def counted_norm(state):
        assemblies.append(state)
        return norm(state)

    monkeypatch.setattr(Grid, "rfft", counted("rfft", rfft))
    monkeypatch.setattr(Grid, "irfft", counted("irfft", irfft))
    monkeypatch.setattr(EnergyEvaluator, "initial_norm", staticmethod(counted_norm))
    build_flow_state(grid, default_spec(3, 1e-4))
    n = len(assemblies)
    assert n == 4  # the scale at 1, then three rescaled assemblies
    assert components == {"rfft": 4 + 4 * n, "irfft": 6 + 3 * n}

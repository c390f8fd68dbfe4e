"""The force field of ``NonlinearForce``: a band with its grid.

No state holds one: ``FlowState`` and ``EulerState`` hold bands, the
normalized Fourier coefficients of the modes the 2/3 mask keeps with
k_last >= 0 (see ``grid``), and
b0 is given to ``construct_initial_map`` as samples and to
``check_admissible`` as a callable. A ``VectorField`` is left in one role:
``NonlinearForce.f``, because perfbench's scaled-force gate
(``_scaled_force`` in ``perfbench/tests/test_perfbench.py``) rebuilds that
force with ``from_spec`` from its ``spec``; it becomes a band with ROADMAP
item 3's benchmark change. ``from_values`` builds the tests' random fields.
``Grid.fft`` and ``Grid.ifft`` stay for ``_scaled_force`` and for
``test_rfft_matches_the_full_transform`` and
``test_gate_passes_transforms_through_rfft``.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


class VectorField:
    """A (d, *grid.shape) real field that is zero outside the band: it holds
    ``grid`` and ``band`` and nothing else, and forms ``values``, the
    ``Grid.irfft`` of the band, and ``spec``, the ``Grid.fft`` of those
    samples, on each read."""

    def __init__(self, grid: Grid, band):
        if band.shape != (grid.dim,) + grid.band_shape:
            raise ValueError(f"band shape {band.shape} does not match grid {grid.band_shape}")
        self.grid = grid
        self.band = band

    @classmethod
    def from_values(cls, grid: Grid, values):
        """Field of real samples: their band, ``Grid.rfft``."""
        return cls(grid, grid.rfft(np.asarray(values, dtype=float)))

    @classmethod
    def from_spec(cls, grid: Grid, spec):
        """Field of a full spectrum, its kept modes (``Grid.gather``): only
        perfbench's ``_scaled_force`` builds one (ROADMAP item 3)."""
        return cls(grid, grid.gather(np.asarray(spec, dtype=complex)))

    @classmethod
    def from_band(cls, grid: Grid, band):
        """Field that is zero outside the band."""
        return cls(grid, np.asarray(band, dtype=complex))

    @property
    def values(self):
        return self.grid.irfft(self.band)

    @property
    def spec(self):
        """The full spectrum: only perfbench's ``_scaled_force`` reads it
        (ROADMAP item 3)."""
        return self.grid.fft(self.values)

"""The force field of ``NonlinearForce``, with lazily cached representations.

No state holds one: ``FlowState`` and ``EulerState`` hold bands, the
normalized Fourier coefficients of the modes the 2/3 mask keeps with
k_last >= 0 (see ``grid``), and
b0 is given to ``construct_initial_map`` as samples and to
``check_admissible`` as a callable. A ``VectorField`` is left in one role:
``NonlinearForce.f``, because perfbench's scaled-force gate
(``_scaled_force`` in ``perfbench/tests/test_perfbench.py``) rebuilds that
force with ``from_spec`` from its ``spec``; it becomes a band with ROADMAP
item 3's benchmark change. ``from_values`` builds the tests' random fields.

The field is treated as immutable. It holds two views of the same data, each
computed on first access from the one the field was built with: the real
samples and the band. ``spec`` and ``from_spec``, the full spectrum, are kept
for ``_scaled_force`` only, and ``Grid.fft`` and ``Grid.ifft`` for it and for
``test_rfft_matches_the_full_transform`` and
``test_gate_passes_transforms_through_rfft``.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


class VectorField:
    """A (d, *grid.shape) real field, built from its samples, its band or
    its full spectrum. Its one role is ``NonlinearForce.f``; of the full
    spectrum, ``from_spec`` and ``spec`` are read only by perfbench's
    ``_scaled_force``."""

    def __init__(self, grid: Grid, values=None, spec=None, band=None):
        if values is None and spec is None and band is None:
            raise ValueError("field needs real values or spectral coefficients")
        for name, arr, shape in (
            ("values", values, grid.shape),
            ("spec", spec, grid.shape),
            ("band", band, grid.band_shape),
        ):
            expected = (grid.dim,) + shape
            if arr is not None and arr.shape != expected:
                raise ValueError(
                    f"{name} shape {arr.shape} does not match grid shape {expected}"
                )
        self.grid = grid
        self._values = values
        self._spec = spec
        self._band = band

    @classmethod
    def from_values(cls, grid: Grid, values):
        return cls(grid, values=np.asarray(values, dtype=float))

    @classmethod
    def from_spec(cls, grid: Grid, spec):
        """Field of a full spectrum; no run path builds one. It stays only
        for perfbench's ``_scaled_force``, and leaves with ROADMAP item 3."""
        return cls(grid, spec=np.asarray(spec, dtype=complex))

    @classmethod
    def from_band(cls, grid: Grid, band):
        """Field that is zero outside the band."""
        return cls(grid, band=np.asarray(band, dtype=complex))

    @property
    def values(self):
        if self._values is None:
            if self._spec is None:
                self._values = self.grid.irfft(self._band)
            else:
                self._values = self.grid.ifft(self._spec)
        return self._values

    @property
    def spec(self):
        """The full spectrum, ``Grid.fft`` of the samples unless the field was
        built from one. No run path reads it: it stays only for perfbench's
        ``_scaled_force``, and leaves with ROADMAP item 3."""
        if self._spec is None:
            self._spec = self.grid.fft(self.values)
        return self._spec

    @property
    def band(self):
        """The modes of the spectrum the 2/3 mask keeps; the rest is dropped."""
        if self._band is None:
            if self._spec is not None:
                self._band = self.grid.gather(self._spec)
            else:
                self._band = self.grid.rfft(self._values)
        return self._band

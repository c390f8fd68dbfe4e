"""Scalar, vector and matrix fields with lazily cached spectra.

Fields are treated as immutable: operations return fresh instances. A field
holds up to three views of the same data, each computed on first access from
the one the field was built with: the real samples, the band (``Grid.half``),
the first K last-axis planes of the normalized Fourier coefficients, which
is all a 2/3-dealiased field carries and what every run path works with,
and the full spectrum.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatchError
from .grid import Grid


class _Field:
    rank = 0

    def __init__(self, grid: Grid, values=None, spec=None, band=None):
        if values is None and spec is None and band is None:
            raise ValueError("field needs real values or spectral coefficients")
        lead = (grid.dim,) * self.rank
        for name, arr, expected in (
            ("values", values, lead + grid.shape),
            ("spec", spec, lead + grid.shape),
            ("band", band, lead + grid.half.shape),
        ):
            if arr is not None and arr.shape != expected:
                raise ValueError(
                    f"{name} shape {arr.shape} does not match grid shape {expected}"
                )
        self.grid = grid
        self._values = values
        self._spec = spec
        self._band = band
        # the full spectrum and the samples of a field built from its band
        # come from the band: it carries everything the field has
        self._from_band = band is not None

    @classmethod
    def _expected_shape(cls, grid: Grid):
        return (grid.dim,) * cls.rank + grid.shape

    @classmethod
    def from_values(cls, grid: Grid, values):
        return cls(grid, values=np.asarray(values, dtype=float))

    @classmethod
    def from_spec(cls, grid: Grid, spec):
        return cls(grid, spec=np.asarray(spec, dtype=complex))

    @classmethod
    def from_band(cls, grid: Grid, band):
        """Field that is zero outside the band; ``band`` is its first K planes."""
        return cls(grid, band=np.asarray(band, dtype=complex))

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, values=np.zeros(cls._expected_shape(grid)))

    @property
    def values(self):
        if self._values is None:
            if self._from_band:
                self._values = self.grid.irfft(self._band)
            else:
                self._values = self.grid.ifft(self._spec)
        return self._values

    @property
    def spec(self):
        if self._spec is None:
            if self._from_band:
                self._spec = self.grid.mirror(self._band)
            else:
                self._spec = self.grid.fft(self._values)
        return self._spec

    @property
    def band(self):
        """The first K last-axis planes of the spectrum; what lies outside is dropped."""
        if self._band is None:
            if self._spec is not None:
                self._band = self._spec[..., : self.grid.half.shape[-1]]
            else:
                self._band = self.grid.rfft(self._values)
        return self._band

    def check_same_grid(self, other):
        if not self.grid.same_as(other.grid):
            raise GridMismatchError("fields live on different grids")


class ScalarField(_Field):
    rank = 0


class VectorField(_Field):
    rank = 1


class MatrixField(_Field):
    rank = 2


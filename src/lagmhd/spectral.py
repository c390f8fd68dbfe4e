"""Spectral derivatives, divergence, the 2/3 mask, norms and the Riesz projector.

Every helper takes the ``Grid`` and works on bands, the first K last-axis
planes of the spectrum of a real field (see ``grid``). A norm over a band
carries ``grid.multiplicity``, or ``grid.norm_k2`` for the |k|^2 weight, so
that it equals the norm over the full spectrum.
"""

from __future__ import annotations

import numpy as np

from .fields import VectorField
from .grid import Grid


# -- derivatives --------------------------------------------------------------


def gradient_values(band, grid: Grid, out=None, work=None):
    """Real-space gradient of a vector band: out[i, j] = d_j v^i.

    All components and directions take one multiply by i k_j and go through
    one pruned ``grid.irfft``. With a ``ForceWorkspace`` (``work``), the
    products go into its ``mat_band`` and the transform uses its ``pad``;
    ``out`` receives the gradient.
    """
    if work is None:
        buf, pad = np.empty((band.shape[0], grid.dim) + grid.band_shape, dtype=complex), None
    else:
        buf, pad = work.mat_band, work.pad
    for j in range(grid.dim):
        np.multiply(band, 1j * grid.k_axes[j], out=buf[:, j])
    return grid.irfft(buf, out=out, pad=pad)


def _k_contract(spec, symbols, out=None, tmp=None):
    """sum_j symbols[j] * spec[j] over the leading axis, with one temporary
    (``tmp`` when given)."""
    out = np.multiply(symbols[0], spec[0], out=out)
    if tmp is None:
        tmp = np.empty_like(out)
    for j in range(1, len(symbols)):
        out += np.multiply(symbols[j], spec[j], out=tmp)
    return out


def divergence_spec(spec, grid: Grid, out=None):
    """Spectral divergence over the leading component axis."""
    return _k_contract(spec, [1j * k for k in grid.k_axes], out=out)


def dealias_spec(spec, grid: Grid, out=None):
    """spec times the 2/3 mask, a complex band times its complex copy."""
    mask = grid.dealias_mask_complex if np.iscomplexobj(spec) else grid.dealias_mask
    return np.multiply(spec, mask, out=out)


# -- norms --------------------------------------------------------------------


def weighted_norm_sq(spec, weight, grid: Grid) -> float:
    acc = np.sum(weight * (spec.real**2 + spec.imag**2), axis=grid.spatial_axes)
    return float(grid.volume * np.sum(acc))


# -- Riesz projector ----------------------------------------------------------


def riesz_apply_spec(spec, grid: Grid, out=None):
    """Riesz projector k (k . c) / |k|^2 on spectral coefficients, 0 on the
    mean mode: identity on gradients, zero on divergence-free fields.

    A given ``out``, which must not share memory with spec, also holds the
    intermediates, so the call then allocates no band.
    """
    k = grid.k_axes
    if out is None:
        out = np.empty((grid.dim,) + grid.band_shape, dtype=complex)
    # k . c lives in the last row of out until that row is written last
    kv = _k_contract(spec, k, out=out[-1], tmp=out[0])
    kv *= grid.inv_k2
    for i in range(grid.dim):
        np.multiply(k[i], kv, out=out[i])
    return out


def divergence_norm(v: VectorField) -> float:
    """L2 norm of the spectral divergence of the band of v; 0 for solenoidal fields."""
    grid = v.grid
    div = divergence_spec(v.band, grid)
    return float(np.sqrt(weighted_norm_sq(div, grid.multiplicity, grid)))


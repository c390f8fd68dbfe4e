"""Spectral derivatives, divergence, the 2/3 mask, norms and projectors.

``_k_contract``, ``divergence_spec``, ``dealias_spec``, ``riesz_apply_spec``
and ``weighted_norm_sq`` read only the grid's tables, so given ``grid.half``
they act on bands, the first K last-axis planes of a spectrum (with
``half.norm_k2`` as the doubled |k|^2 weight of a norm).
"""

from __future__ import annotations

import numpy as np

from .fields import VectorField
from .grid import Grid


# -- derivatives --------------------------------------------------------------


def gradient_values(spec, grid: Grid):
    """Real-space gradient of a spectral vector: out[i, j] = d_j v^i.

    ``spec`` is either a band (``grid.half``) or a full spectrum. A band takes
    one multiply by i k_j and one pruned ``grid.irfft``.

    A full spectrum gives bit for bit ``grid.ifft`` of the full products
    i k_j spec, Hermitian or not, with only the k_last >= 0 half multiplied.
    On the Nyquist hyperplanes of the leading axes (interior k_last) it forms
    the Hermitian part that ``Grid.ifft`` takes there, from the products at k
    and at -k of the full input. All components and directions go through
    one inverse transform.
    """
    half = grid.half
    if spec.shape[-1] != grid.sizes[-1]:
        buf = np.empty((spec.shape[0], grid.dim) + half.shape, dtype=complex)
        for j in range(grid.dim):
            np.multiply(spec, 1j * half.k_axes[j], out=buf[:, j])
        return grid.irfft(buf)
    nh = grid.sizes[-1] // 2 + 1
    buf = np.empty((spec.shape[0], grid.dim) + grid.sizes[:-1] + (nh,), dtype=complex)
    spec_half = spec[..., :nh]
    for j in range(grid.dim):
        np.multiply(spec_half, 1j * grid.k_axes[j][..., :nh], out=buf[:, j])
    dst, src, ik_dst, ik_src = grid._nyquist_ik
    part = np.conjugate(spec[src][:, None] * ik_src)
    part += spec[dst][:, None] * ik_dst
    part *= 0.5
    buf[dst] = part
    return grid._irfftn(buf)


def _k_contract(spec, symbols):
    """sum_j symbols[j] * spec[j] over the leading axis, with one temporary."""
    out = np.multiply(symbols[0], spec[0])
    tmp = np.empty_like(out)
    for j in range(1, len(symbols)):
        out += np.multiply(symbols[j], spec[j], out=tmp)
    return out


def divergence_spec(spec, grid: Grid):
    """Spectral divergence over the leading component axis."""
    return _k_contract(spec, [1j * k for k in grid.k_axes])


def dealias_spec(spec, grid: Grid):
    return spec * grid.dealias_mask


# -- inner products and norms -------------------------------------------------


def weighted_inner(spec_a, spec_b, weight, grid: Grid) -> float:
    """V * Re sum_k w(k) c_a(k) conj(c_b(k)), summed over component channels."""
    acc = np.sum(weight * (spec_a * np.conj(spec_b)).real, axis=grid.spatial_axes)
    return float(grid.volume * np.sum(acc))


def weighted_norm_sq(spec, weight, grid: Grid) -> float:
    acc = np.sum(weight * (spec.real**2 + spec.imag**2), axis=grid.spatial_axes)
    return float(grid.volume * np.sum(acc))


# -- Riesz / Leray projectors ---------------------------------------------


def riesz_apply_spec(spec, grid: Grid):
    """Riesz projector k (k . c) / |k|^2 on spectral coefficients, 0 on the
    mean mode: identity on gradients, zero on divergence-free fields."""
    k = grid.k_axes
    kv = _k_contract(spec, k)
    kv *= grid.inv_k2
    out = np.empty((grid.dim,) + grid.shape, dtype=complex)
    for i in range(grid.dim):
        np.multiply(k[i], kv, out=out[i])
    return out


def leray_project(v: VectorField) -> VectorField:
    """Project onto divergence-free fields: v - riesz_apply_spec(v)."""
    return VectorField.from_spec(v.grid, v.spec - riesz_apply_spec(v.spec, v.grid))


def divergence_norm(v: VectorField) -> float:
    """L2 norm of the spectral divergence; 0 for solenoidal fields."""
    return float(
        np.sqrt(weighted_norm_sq(divergence_spec(v.spec, v.grid), 1.0, v.grid))
    )


"""Spectral derivative multipliers, Sobolev/anisotropic norms, and projectors.

``_k_contract``, ``divergence_spec``, ``dealias_spec``, ``riesz_apply_spec``
and ``weighted_norm_sq`` read only the grid's tables, so given ``grid.half``
they act on bands, the first K last-axis planes of a spectrum (with
``half.norm_k2`` as the doubled |k|^2 weight of a norm).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import MatrixField, VectorField, _Field, magnitude
from .grid import Grid


# -- multipliers -------------------------------------------------------------


def derivative_multiplier(grid: Grid, alpha):
    """Multiplier prod_i (i k_i)^alpha_i; Nyquist lines zeroed for odd powers."""
    if len(alpha) != grid.dim:
        raise ValueError(f"multi-index length {len(alpha)} != dimension {grid.dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has a negative entry")
    if sum(alpha) > 4:
        raise ValueError(f"derivative order |{alpha}| > 4 not supported")
    mult = np.ones((1,) * grid.dim, dtype=complex)
    for i, a in enumerate(alpha):
        if a == 0:
            continue
        k = grid.k_axes[i].astype(complex).copy()
        if a % 2 == 1 and grid.sizes[i] % 2 == 0:
            # the Nyquist mode has no well-defined odd derivative
            k[np.isclose(np.abs(k), np.pi * grid.sizes[i] / grid.lengths[i])] = 0.0
        mult = mult * (1j * k) ** a
    return mult


def partial_derivative(field: _Field, alpha):
    """Spectral partial derivative; exact for band-limited fields."""
    mult = derivative_multiplier(field.grid, alpha)
    return type(field).from_spec(field.grid, field.spec * mult)


def gradient_values(spec, grid: Grid):
    """Real-space gradient of a spectral vector: out[i, j] = d_j v^i.

    ``spec`` is either a band (``grid.half``) or a full spectrum. A band of a
    masked grid takes one multiply by i k_j and one pruned ``grid.irfft``;
    under an open mask it is mirrored and taken as a full spectrum.

    A full spectrum gives bit for bit ``grid.ifft`` of the full products
    i k_j spec, Hermitian or not, with only the k_last >= 0 half multiplied.
    On the Nyquist hyperplanes of the leading axes (interior k_last) it forms
    the Hermitian part that ``Grid.ifft`` takes there, from the products at k
    and at -k of the full input. All components and directions go through
    one inverse transform.
    """
    half = grid.half
    if spec.shape[-1] != grid.sizes[-1]:
        if grid.dealias:
            buf = np.empty((spec.shape[0], grid.dim) + half.shape, dtype=complex)
            for j in range(grid.dim):
                np.multiply(spec, 1j * half.k_axes[j], out=buf[:, j])
            return grid.irfft(buf)
        spec = grid.mirror(spec)
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


def dealias(field: _Field):
    """Zero the top-third spectrum (2/3 rule); idempotent."""
    return type(field).from_spec(field.grid, dealias_spec(field.spec, field.grid))


# -- inner products and norms -------------------------------------------------


def weighted_inner(spec_a, spec_b, weight, grid: Grid) -> float:
    """V * Re sum_k w(k) c_a(k) conj(c_b(k)), summed over component channels."""
    acc = np.sum(weight * (spec_a * np.conj(spec_b)).real, axis=grid.spatial_axes)
    return float(grid.volume * np.sum(acc))


def weighted_norm_sq(spec, weight, grid: Grid) -> float:
    acc = np.sum(weight * (spec.real**2 + spec.imag**2), axis=grid.spatial_axes)
    return float(grid.volume * np.sum(acc))


def hs_inner_product(f: _Field, g: _Field, s: int) -> float:
    """(f|g)_{H^s} = sum_{|alpha|<=s} integral d^alpha f . d^alpha g, via Parseval."""
    f.check_same_grid(g)
    if f.rank != g.rank:
        raise ValueError("fields must have the same rank")
    w = f.grid.hs_weight(s)
    return weighted_inner(f.spec, g.spec, w, f.grid)


def l2_inner_quadrature(f: _Field, g: _Field) -> float:
    """Real-space trapezoid (= exact periodic) quadrature of f.g; test oracle."""
    f.check_same_grid(g)
    cell = np.prod(f.grid.spacings)
    return float(cell * np.sum(f.values * g.values))


def anisotropic_norm(field: _Field, p_outer, q_inner) -> float:
    """Iterated norm: L^q along the distinguished y1 axis first, then L^p in y'."""
    if q_inner not in (2, np.inf) or p_outer not in (2, 4, 6, np.inf):
        raise ValueError(f"unsupported exponent pair ({p_outer}, {q_inner})")
    g = field.grid
    mag = magnitude(field)
    h1 = g.spacings[0]
    if q_inner == 2:
        inner = np.sqrt(h1 * np.sum(mag**2, axis=0))
    else:
        inner = np.max(mag, axis=0)
    cell = float(np.prod(g.spacings[1:]))
    if p_outer == np.inf:
        return float(np.max(inner))
    return float((cell * np.sum(inner**p_outer)) ** (1.0 / p_outer))


# -- Riesz / Leray projectors ---------------------------------------------


def riesz_projector(field) -> VectorField:
    """Apply inverse_laplacian(grad(div .)); identity on gradients, 0 on div-free.

    Vector input: per-mode k (k . c) / |k|^2.  Matrix input: the second-order
    form inverse_laplacian(grad(div div .)), i k (k_i k_j c_ij) / |k|^2.
    Zero mode maps to 0.
    """
    grid = field.grid
    if isinstance(field, VectorField) or (field.rank == 1):
        return VectorField.from_spec(grid, riesz_apply_spec(field.spec, grid))
    if isinstance(field, MatrixField) or field.rank == 2:
        spec = field.spec
        kk = np.zeros(grid.shape, dtype=complex)
        for i in range(grid.dim):
            for j in range(grid.dim):
                kk += grid.k_axes[i] * grid.k_axes[j] * spec[i, j]
        kk *= grid.inv_k2
        out = np.stack([1j * grid.k_axes[i] * kk for i in range(grid.dim)])
        return VectorField.from_spec(grid, out)
    raise ValueError("riesz_projector expects a vector or matrix field")


def riesz_apply_spec(spec, grid: Grid):
    """Vector-form Riesz projector acting on raw spectral coefficients."""
    k = grid.k_axes
    kv = _k_contract(spec, k)
    kv *= grid.inv_k2
    out = np.empty((grid.dim,) + grid.shape, dtype=complex)
    for i in range(grid.dim):
        np.multiply(k[i], kv, out=out[i])
    return out


def leray_project(v: VectorField) -> VectorField:
    """Project onto divergence-free fields; complementary to riesz_projector."""
    return VectorField.from_spec(v.grid, v.spec - riesz_apply_spec(v.spec, v.grid))


def divergence_norm(v: VectorField) -> float:
    """L2 norm of the spectral divergence; 0 for solenoidal fields."""
    return float(
        np.sqrt(weighted_norm_sq(divergence_spec(v.spec, v.grid), 1.0, v.grid))
    )


# -- anisotropic gradient bound monitor ------------------------------------


@dataclass
class GradientBoundReport:
    lhs: float
    rhs: float
    ratio: float
    undefined: bool


def sobolev_interpolation_monitor(f: VectorField) -> GradientBoundReport:
    """Report both sides of the anisotropic sup-norm bound for grad(f).

    lhs = ||grad f||_Linf, rhs = ||grad^2 f||_{H^1}^{5/6} ||d1 grad^2 f||_{H^1}^{1/6}.
    The ratio is reported, never asserted: the constant is not pinned down.
    """
    grid = f.grid
    spec = f.spec
    grad = gradient_values(spec, grid)
    lhs = float(np.sqrt(np.sum(grad**2, axis=(0, 1))).max())
    w1 = grid.hs_weight(1)
    k4 = grid.k2**2
    grad2_h1 = np.sqrt(weighted_norm_sq(spec, k4 * w1, grid))
    d1grad2_h1 = np.sqrt(weighted_norm_sq(spec, grid.k1sq * k4 * w1, grid))
    rhs = grad2_h1 ** (5.0 / 6.0) * d1grad2_h1 ** (1.0 / 6.0)
    if rhs == 0.0:
        return GradientBoundReport(lhs, rhs, np.inf if lhs > 0 else 0.0, True)
    return GradientBoundReport(lhs, rhs, lhs / rhs, False)

"""Spectral derivatives, divergence, the 2/3 mask, norms and the Riesz projector.

Every helper takes the ``Grid`` and works on bands, the first K last-axis
planes of the spectrum of a real field (see ``grid``). A norm over a band
carries ``grid.multiplicity``, or ``grid.norm_k2`` for the |k|^2 weight, so
that it equals the norm over the full spectrum.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


# -- derivatives --------------------------------------------------------------


def gradient_values(band, grid: Grid, out=None, work=None, values=None):
    """Real-space gradient of a vector band: out[i, j] = d_j v^i; ``values``,
    when given, receives the samples of v, bit for bit ``grid.irfft(band)``.

    Slot j < d - 1 of each component is i k_j times slot d - 1 (v^i), formed
    just before the pass along axis j, which runs on the slots formed by
    then: 15 component passes for a 3D vector, not 18. Slot d - 1 times
    i k_last is d_last v^i. ``work``'s ``pad`` holds the slots when given.
    """
    d, nb = grid.dim, grid.band_shape[-1]
    ik = grid.ik
    if work is None:
        pad = np.empty((band.shape[0], d) + grid.pad_shape, dtype=complex)
    else:
        pad = work.pad[: band.shape[0]]
    slots = pad[..., :nb]
    slots[:, -1] = band
    for a in range(d - 1):
        np.multiply(slots[:, -1], ik[a], out=slots[:, a])
        grid.lead_pass(slots if a == d - 2 else slots[:, ::2], (a - d,), inverse=True)
    if values is not None:
        grid.last_inverse(pad[:, -1], nb, out=values)
    slots[:, -1] *= ik[-1]
    return grid.last_inverse(pad, nb, out=out)


def divergence_band(mat, grid: Grid, out=None, work=None, minus=None):
    """Band of sum_j d_j mat[i, j] - minus[i] from real samples, unmasked.

    The mirror image of ``gradient_values``: column d - 1 times i k_last,
    less ``minus``, is a running sum; leading axis j, in rfft's order, takes
    one pass over columns j, ..., d - 1, then column j times i k_j joins the
    sum: 15 component passes in 3D, not 24. ``work``'s ``mat_band`` and
    ``pad`` hold the stages when given.
    """
    d = grid.dim
    ik = grid.ik
    slots, pad = (None, None) if work is None else (work.mat_band, work.pad)
    slots = grid.last_forward(mat, out=slots, pad=pad)
    acc = slots[:, -1]
    acc *= ik[-1]
    if minus is not None:
        out = grid.last_forward(minus, out=out, pad=None if pad is None else pad[0])
        acc -= out
    for a in range(d - 1):
        grid.lead_pass(slots[:, a:], (a - d,))
        slots[:, a] *= ik[a]
        acc = np.add(acc, slots[:, a], out=out if a == d - 2 else acc)
    return acc


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
    return _k_contract(spec, grid.ik, out=out)


def dealias_spec(spec, grid: Grid, out=None):
    """spec times the 2/3 mask, a complex band times its complex copy."""
    mask = grid.dealias_mask_complex if np.iscomplexobj(spec) else grid.dealias_mask
    return np.multiply(spec, mask, out=out)


# -- norms --------------------------------------------------------------------


def weighted_norm_sq(spec, weight, grid: Grid, out=None) -> float:
    """volume * sum of weight |spec|^2: one weighted copy (into out), one vdot."""
    return grid.volume * float(np.vdot(spec, np.multiply(spec, weight, out=out)).real)


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


def divergence_norm(band, grid: Grid) -> float:
    """L2 norm of the spectral divergence of a vector band; 0 for solenoidal fields."""
    div = divergence_spec(band, grid)
    return float(np.sqrt(weighted_norm_sq(div, grid.multiplicity, grid)))


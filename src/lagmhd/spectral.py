"""Spectral derivatives, divergence, the 2/3 mask, norms and the Riesz projector.

Every helper takes the ``Grid`` and works on bands, the modes of the
spectrum of a real field that the 2/3 mask keeps with k_last >= 0 (see
``grid``). A norm over a band carries ``grid.multiplicity``, or
``grid.norm_k2`` for the |k|^2 weight, so that it equals the norm over the
full spectrum.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


# -- derivatives --------------------------------------------------------------


def gradient_values(band, grid: Grid, out=None, work=None, values=None):
    """Real-space gradient of a vector band: out[i, j] = d_j v^i; ``values``,
    when given, receives the samples of v, bit for bit ``grid.irfft(band)``.

    Each component takes d slots of the wide transform layout: slot d - 1 is
    v^i (``grid.scatter``, zero in the blocks the 2/3 mask drops), and slot
    j < d - 1 is i k_j times slot d - 1, formed just before the pass along
    axis j, which runs on the slots formed by then: 15 component passes for
    a 3D vector, not 18, the first 6 on the kept lines only. Slot d - 1
    times i k_last is d_last v^i. The symbols are the grid's tables on the
    wide layout. ``work``'s ``mat_band`` holds the slots when given,
    contiguous K planes, which numpy's c2r pads itself past
    ``MATMUL_MAX_LAST``.
    """
    d, ik = grid.dim, grid._wide_ik
    if work is None:
        wide = grid.pad_shape[:-1] + grid.band_shape[-1:]
        slots = np.empty((band.shape[0], d) + wide, dtype=complex)
    else:
        slots = work.mat_band[: band.shape[0]]
    grid.scatter(band, slots[:, -1])
    for a in range(d - 1):
        np.multiply(slots[:, -1], ik[a], out=slots[:, a])
        grid.lead_pass(slots if a == d - 2 else slots[:, ::2], (a - d,), inverse=True)
    if values is not None:
        grid.last_inverse(slots[:, -1], out=values)
    slots[:, -1] *= ik[-1]
    return grid.last_inverse(slots, out=out)


def divergence_band(mat, grid: Grid, out=None, work=None, minus=None):
    """Band of sum_j d_j mat[i, j] - minus[i] from real samples.

    The mirror image of ``gradient_values``: column d - 1 times i k_last,
    less ``minus``, is a running sum; leading axis j, in rfft's order, takes
    one pass over columns j, ..., d - 1, then column j times i k_j joins the
    sum: 15 component passes in 3D, not 24, the last 6 on the kept lines
    only; ``grid.gather`` takes the band of the sum. ``work``'s ``mat_band``
    and ``pad`` hold the stages when given.
    """
    d, ik = grid.dim, grid._wide_ik
    slots, pad = (None, None) if work is None else (work.mat_band, work.pad)
    slots = grid.last_forward(mat, out=slots, pad=pad)
    acc = slots[:, -1]
    acc *= ik[-1]
    if minus is not None:
        # the K planes of minus go to contiguous memory, pad[-1]'s, so the
        # subtraction is not buffered past MATMUL_MAX_LAST, where numpy's
        # r2c of minus fills pad[0]
        planes = None if pad is None else pad[-1].reshape(-1)[: acc.size].reshape(acc.shape)
        acc -= grid.last_forward(minus, out=planes, pad=None if pad is None else pad[0])
    for a in range(d - 1):
        grid.lead_pass(slots[:, a:], (a - d,))
        slots[:, a] *= ik[a]
        acc += slots[:, a]
    return grid.gather(acc, out=out)


def _k_contract(spec, symbols, out=None, tmp=None):
    """sum_j symbols[j] * spec[j] over the leading axis, with one temporary
    (``tmp`` when given)."""
    out = np.multiply(symbols[0], spec[0], out=out)
    if tmp is None:
        tmp = np.empty_like(out)
    for j in range(1, len(symbols)):
        out += np.multiply(symbols[j], spec[j], out=tmp)
    return out


def dealias_spec(spec, grid: Grid, out=None):
    """spec times the 2/3 mask, which keeps every mode of a band: a copy of
    the band (into out when given). No run path calls it; perfbench times
    it by name."""
    if out is None:
        return spec.copy()
    np.copyto(out, spec)
    return out


# -- norms --------------------------------------------------------------------


def weighted_norm_sq(spec, weight, grid: Grid, out=None) -> float:
    """volume * sum of weight |spec|^2: one weighted copy (into out), one vdot."""
    return grid.volume * float(np.vdot(spec, np.multiply(spec, weight, out=out)).real)


# -- Riesz projector ----------------------------------------------------------


def _riesz(spec, grid: Grid, out, phi, tmp):
    """R c = ik phi into out, with its potential phi = inv_lap (ik . c) =
    Delta^-1 div c into phi and one temporary, tmp; out may be spec."""
    _k_contract(spec, grid.ik, out=phi, tmp=tmp)
    phi *= grid.inv_lap
    for i, ik in enumerate(grid.ik):
        np.multiply(ik, phi, out=out[i])
    return out


def riesz_apply_spec(spec, grid: Grid, out=None):
    """Riesz projector R = grad Delta^-1 div on spectral coefficients, ik phi
    with phi = inv_lap (ik . c): k (k . c) / |k|^2, 0 on the mean mode,
    identity on gradients, zero on divergence-free fields.

    A given ``out``, which must not share memory with spec, also holds the
    intermediates, so the call then allocates no band.
    """
    if out is None:
        out = np.empty((grid.dim,) + grid.band_shape, dtype=complex)
    # phi lives in the last row of out until that row is written last
    return _riesz(spec, grid, out, out[-1], out[0])


def divergence_norm(band, grid: Grid) -> float:
    """L2 norm of the spectral divergence of a vector band; 0 for solenoidal fields."""
    div = _k_contract(band, grid.ik)
    return float(np.sqrt(weighted_norm_sq(div, grid.multiplicity, grid)))


"""Periodic grids and the spectral bookkeeping shared by every module.

Axis 0 of the spatial shape is the distinguished y1 direction: the background
magnetic field points along it, and all anisotropic weights single out k1.
Component axes of vector/matrix data always come first, so spatial axes are
the last ``dim`` axes and spectral transforms act on those.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a box of per-axis lengths L_i with N_i points.

    Wavevectors follow FFT ordering, k_i = (2*pi/L_i) * n_i with
    n_i in {0, ..., N_i/2 - 1, -N_i/2, ..., -1}. ``half`` holds the tables
    of the band, the last-axis planes that ``rfft`` and ``irfft`` work on.
    """

    sizes: tuple
    lengths: tuple

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        lengths = tuple(float(l) for l in self.lengths)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "lengths", lengths)
        if len(sizes) not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {len(sizes)}")
        if len(lengths) != len(sizes):
            raise ValueError("sizes and lengths must have matching dimension")
        for n in sizes:
            if not _is_power_of_two(n):
                raise ValueError(f"grid size {n} is not a power of two")
        for l in lengths:
            if not 0 < l < np.inf:
                raise ValueError(f"box length {l} must be positive and finite")

        dim = len(sizes)
        spacings = tuple(l / n for n, l in zip(sizes, lengths))
        k1d = tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=h) for n, h in zip(sizes, spacings)
        )
        # broadcastable views: k_axes[i] has shape (1,..,N_i,..,1)
        k_axes = tuple(
            k1d[i].reshape([-1 if j == i else 1 for j in range(dim)])
            for i in range(dim)
        )
        k2 = np.zeros(sizes)
        for ka in k_axes:
            k2 = k2 + ka**2
        # inverse Laplacian symbol, 0 on the mean mode
        inv_k2 = np.zeros(sizes)
        np.divide(1.0, k2, out=inv_k2, where=k2 > 0)
        # 2/3 rule: keep |n_i| < N_i/3 per axis so that products of retained
        # modes alias only onto discarded ones; stored as 0.0/1.0 so that a
        # multiply applies it
        mask = np.ones(sizes)
        for i, n in enumerate(sizes):
            ncut = int(np.ceil(n / 3.0)) - 1
            idx = np.abs(np.fft.fftfreq(n) * n) <= ncut
            mask = mask * idx.reshape([-1 if j == i else 1 for j in range(dim)])
        coords = tuple(
            (spacings[i] * np.arange(sizes[i])).reshape(
                [-1 if j == i else 1 for j in range(dim)]
            )
            for i in range(dim)
        )

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "spacings", spacings)
        object.__setattr__(self, "volume", float(np.prod(lengths)))
        object.__setattr__(self, "npoints", int(np.prod(sizes)))
        object.__setattr__(self, "k1d", k1d)
        object.__setattr__(self, "k_axes", k_axes)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "inv_k2", inv_k2)
        object.__setattr__(self, "k1sq", k_axes[0] ** 2)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dealias_mask", mask)
        # inverse Laplacian restricted to the retained band
        object.__setattr__(self, "masked_inv_k2", mask * inv_k2)
        object.__setattr__(self, "half", _band_tables(self))
        object.__setattr__(self, "_hs_weights", {})
        object.__setattr__(self, "_mirror_pairs", _mirror_pairs(sizes))
        object.__setattr__(self, "_nyquist_pairs", _nyquist_pairs(sizes))
        object.__setattr__(
            self, "_nyquist_ik", _nyquist_ik(k_axes, self._nyquist_pairs, sizes)
        )

    # -- transforms --------------------------------------------------------

    @property
    def shape(self):
        return self.sizes

    @property
    def spatial_axes(self):
        return tuple(range(-self.dim, 0))

    def rfft(self, values):
        """Real samples -> the band (``half``) of the normalized coefficients.

        The band is the first K = ceil(N_last/3) last-axis planes of the full
        spectrum, the k_last >= 0 planes the 2/3 mask keeps. A pruned
        real-data transform, scaled by 1/N (exact for power-of-two sizes):
        rfft along the last axis keeping the band, then fftn over the leading
        axes. The mask is not applied on the leading axes.
        """
        last = sfft.rfft(values, axis=-1, norm="forward")[..., : self.half.shape[-1]]
        return sfft.fftn(last, axes=self.spatial_axes[:-1], norm="forward")

    def irfft(self, band):
        """Band -> real samples; the argument is left unchanged.

        Takes any number of k_last >= 0 planes up to N_last/2 + 1 and treats
        the missing ones as zero: ifftn over the leading axes, then irfft
        along the last axis. The result is exact for a band the 2/3 mask has
        been applied to: it is zero, hence Hermitian, on the Nyquist
        hyperplanes of the leading axes.
        """
        n, k = self.sizes[-1], band.shape[-1]
        pad = np.zeros(band.shape[:-1] + (n // 2 + 1,), dtype=complex)
        part = pad[..., :k]
        part[...] = band
        lead = sfft.ifftn(
            part, axes=self.spatial_axes[:-1], norm="forward", overwrite_x=True
        )
        if not np.may_share_memory(lead, pad):  # overwrite_x is a hint only
            part[...] = lead
        return sfft.irfft(pad, n=n, axis=-1, norm="forward", overwrite_x=True)

    def mirror(self, band):
        """Full spectrum from k_last >= 0 planes by c(-k) = conj(c(k)).

        Accepts the band or the whole N_last/2 + 1 half; the planes the
        argument does not hold are zero.
        """
        n, k = self.sizes[-1], band.shape[-1]
        m = min(k, n // 2) - 1  # mirrored planes: k_last = 1..m
        full = np.empty(band.shape[: -self.dim] + self.sizes, dtype=complex)
        full[..., :k] = band
        full[..., k : n - m] = 0.0
        for dst, src in self._mirror_pairs:
            np.conjugate(
                band[src + (slice(m, 0, -1),)], out=full[dst + (slice(n - m, n),)]
            )
        return full

    def fft(self, values):
        """Real samples -> normalized coefficients c_k with f(y) = sum c_k e^{ik.y}.

        Returns the full spectrum: the mirror of the whole k_last >= 0 half.
        """
        return self.mirror(sfft.rfftn(values, axes=self.spatial_axes, norm="forward"))

    def ifft(self, spec):
        """Normalized coefficients -> real samples, as a contiguous float64 array.

        Equals the real part of the full inverse transform, that is, the inverse
        of the Hermitian part (s(k) + conj(s(-k)))/2. Only the k_last >= 0 half
        is read, so the input must be Hermitian off the Nyquist hyperplanes of
        the leading axes, as every product of a real field's spectrum with an
        even or odd multiplier is. On those hyperplanes (interior k_last only)
        the Hermitian part is taken explicitly: an odd multiplier leaves them
        non-Hermitian, because the stored wavenumber -N/2 is its own negative.
        """
        half = spec[..., : self.sizes[-1] // 2 + 1].astype(complex)
        # read spec, not half: the hyperplanes of two axes cross, and each
        # write must see the unprojected s(-k)
        for dst, src in self._nyquist_pairs:
            part = np.conjugate(spec[src])
            part += spec[dst]
            part *= 0.5
            half[dst] = part
        return self._irfftn(half)

    def _irfftn(self, half):
        """The whole k_last >= 0 half -> real samples; the argument is unchanged."""
        return sfft.irfftn(half, s=self.sizes, axes=self.spatial_axes, norm="forward")

    # -- norms and weights --------------------------------------------------

    def hs_weight(self, s: int):
        """Multi-index Sobolev weight sum_{|alpha|<=s} prod_i k_i^(2 alpha_i).

        Kept as the literal multi-index sum (each alpha counted once), not the
        equivalent (1+|k|^2)^s weight, so inner products reproduce the exact
        coefficients of the energy functionals.
        """
        if s not in (0, 1, 2, 3, 4):
            raise ValueError(f"Sobolev order s={s} outside supported range 0..4")
        cache = self._hs_weights
        if s not in cache:
            w = np.zeros(self.sizes)
            for alpha in multi_indices(self.dim, s):
                term = np.ones(self.sizes)
                for ka, a in zip(self.k_axes, alpha):
                    if a:
                        term = term * ka ** (2 * a)
                w += term
            cache[s] = w
        return cache[s]

    def same_as(self, other: "Grid") -> bool:
        return self.sizes == other.sizes and np.allclose(self.lengths, other.lengths)


@dataclass(frozen=True, eq=False)
class HalfGrid:
    """The spectral tables of a Grid restricted to its band.

    The band is the first K = ceil(N_last/3) last-axis planes
    (k_last = 0, ..., K - 1) of the full spectrum, exactly the k_last >= 0
    planes the 2/3 mask keeps. Every table is the first K planes of the full
    one. ``k2`` and ``k1sq`` are the |k|^2 and k1^2 symbols. ``norm_k2`` is a
    norm weight: |k|^2 times the Hermitian multiplicity (the k_last = 0 plane
    once, every other plane twice), so a norm weighted by it over the band
    equals the |k|^2-weighted norm over the full spectrum of a field that is
    zero outside the band.
    """

    dim: int
    shape: tuple
    spatial_axes: tuple
    volume: float
    k_axes: tuple
    k2: np.ndarray
    k1sq: np.ndarray
    inv_k2: np.ndarray
    masked_inv_k2: np.ndarray
    dealias_mask: np.ndarray
    norm_k2: np.ndarray


def _band_tables(grid: Grid) -> HalfGrid:
    nb = int(np.ceil(grid.sizes[-1] / 3.0))

    def cut(table):
        return np.ascontiguousarray(table[..., :nb])

    multiplicity = np.full(nb, 2.0)
    multiplicity[0] = 1.0
    return HalfGrid(
        dim=grid.dim,
        shape=grid.sizes[:-1] + (nb,),
        spatial_axes=grid.spatial_axes,
        volume=grid.volume,
        k_axes=tuple(cut(ka) for ka in grid.k_axes),
        k2=cut(grid.k2),
        k1sq=cut(grid.k1sq),
        inv_k2=cut(grid.inv_k2),
        masked_inv_k2=cut(grid.masked_inv_k2),
        dealias_mask=cut(grid.dealias_mask),
        norm_k2=cut(grid.k2) * multiplicity,
    )


def _negated(n: int):
    """(dst, src) slice pairs of one leading axis with src index = -dst mod n."""
    return ((slice(0, 1), slice(0, 1)), (slice(1, n), slice(n - 1, 0, -1)))


def _mirror_pairs(sizes):
    """(dst, src) leading-axis index pairs for c(-k) = conj(c(k)).

    One pair per choice of the zero or the nonzero block on each leading
    axis, so that ``Grid.mirror`` fills k_last < 0 with 2^(d-1) reversed-slice
    copies; the last-axis slices depend on the planes it is given.
    """
    pairs = []
    for lead in itertools.product(*(_negated(m) for m in sizes[:-1])):
        dst = (Ellipsis,) + tuple(p[0] for p in lead)
        src = (Ellipsis,) + tuple(p[1] for p in lead)
        pairs.append((dst, src))
    return tuple(pairs)


def _nyquist_pairs(sizes):
    """(dst, src) index pairs of each leading axis's Nyquist hyperplane.

    dst covers the hyperplane at interior k_last > 0; src is its negated
    wavevector, at k_last < 0 in the full spectrum.
    """
    n = sizes[-1]
    pairs = []
    for i, m in enumerate(sizes[:-1]):
        nyq = (slice(m // 2, m // 2 + 1),) * 2
        others = [
            (nyq,) if j == i else _negated(mj) for j, mj in enumerate(sizes[:-1])
        ]
        for lead in itertools.product(*others):
            dst = (Ellipsis,) + tuple(p[0] for p in lead) + (slice(1, n // 2),)
            src = (Ellipsis,) + tuple(p[1] for p in lead) + (slice(n - 1, n // 2, -1),)
            pairs.append((dst, src))
    return tuple(pairs)


def _nyquist_ik(k_axes, pairs, sizes):
    """The points of ``_nyquist_pairs`` and i k at both ends of each pair.

    Returns (dst, src, ik_dst, ik_src): dst and src are index tuples over
    the spatial axes (a dst index is the same in the k_last >= 0 half), and
    ik_dst, ik_src stack the multipliers of all directions on a leading axis.
    Where the hyperplanes of two axes cross, a point is listed twice with the
    same source, as ``Grid.ifft`` writes it twice.
    """
    index = np.arange(int(np.prod(sizes))).reshape(sizes)
    ends = []
    for end in (0, 1):
        flat = np.concatenate([index[pair[end]].ravel() for pair in pairs])
        ends.append((Ellipsis,) + np.unravel_index(flat, sizes))
    ik = [np.broadcast_to(1j * ka, sizes) for ka in k_axes]
    return tuple(ends) + tuple(np.stack([m[e] for m in ik]) for e in ends)


def multi_indices(dim: int, s: int):
    """All multi-indices alpha with |alpha| <= s, each exactly once."""
    return [
        alpha
        for alpha in itertools.product(range(s + 1), repeat=dim)
        if sum(alpha) <= s
    ]

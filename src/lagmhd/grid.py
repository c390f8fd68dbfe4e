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

    # -- transforms --------------------------------------------------------

    @property
    def shape(self):
        return self.sizes

    @property
    def spatial_axes(self):
        return tuple(range(-self.dim, 0))

    def rfft(self, values, out=None, pad=None):
        """Real samples -> the band (``half``) of the normalized coefficients.

        The band is the first K = ceil(N_last/3) last-axis planes of the full
        spectrum, the k_last >= 0 planes the 2/3 mask keeps. A pruned
        real-data transform, scaled by 1/N (exact for power-of-two sizes):
        rfft along the last axis into ``pad``, its first K planes into
        ``out``, then an in-place fftn over the leading axes. The mask is not
        applied on the leading axes.

        out (the band) and pad (N_last/2 + 1 last-axis planes, complex) are
        written when given and allocated when not; the result is ``out``.
        """
        lead, nb = values.shape[:-1], self.half.shape[-1]
        if pad is None:
            pad = np.empty(lead + (self.sizes[-1] // 2 + 1,), dtype=complex)
        if out is None:
            out = np.empty(lead + (nb,), dtype=complex)
        np.fft.rfft(values, axis=-1, norm="forward", out=pad)
        out[...] = pad[..., :nb]
        return self._in_place(sfft.fftn, out)

    def irfft(self, band, out=None, pad=None):
        """Band -> real samples; the argument is left unchanged.

        Takes any number of k_last >= 0 planes up to N_last/2 + 1 and treats
        the missing ones as zero: ifftn over the leading axes, then irfft
        along the last axis. The result is exact for a band the 2/3 mask has
        been applied to: it is zero, hence Hermitian, on the Nyquist
        hyperplanes of the leading axes.

        out (real samples) and pad (N_last/2 + 1 last-axis planes, complex;
        its contents are overwritten) are written when given and allocated
        when not; the result is ``out``.
        """
        n, k = self.sizes[-1], band.shape[-1]
        if pad is None:
            pad = np.empty(band.shape[:-1] + (n // 2 + 1,), dtype=complex)
        pad[..., k:] = 0.0
        part = pad[..., :k]
        part[...] = band
        self._in_place(sfft.ifftn, part)
        return np.fft.irfft(pad, n=n, axis=-1, norm="forward", out=out)

    def _in_place(self, c2c, arr):
        """c2c over the leading spatial axes of arr, written back into arr."""
        res = c2c(arr, axes=self.spatial_axes[:-1], norm="forward", overwrite_x=True)
        if not np.may_share_memory(res, arr):  # overwrite_x is a hint only
            arr[...] = res
        return arr

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
        """Spectrum of a real field -> real samples, as a contiguous float64 array.

        One irfftn of the k_last >= 0 half; the k_last < 0 planes are not read.
        """
        half = spec[..., : self.sizes[-1] // 2 + 1]
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
        if self is other:
            return True
        return self.sizes == other.sizes and np.allclose(self.lengths, other.lengths)


@dataclass(frozen=True, eq=False)
class HalfGrid:
    """The spectral tables of a Grid restricted to its band.

    The band is the first K = ceil(N_last/3) last-axis planes
    (k_last = 0, ..., K - 1) of the full spectrum, exactly the k_last >= 0
    planes the 2/3 mask keeps; it is the one spectral representation of a
    real field the solver works with. Every table is the first K planes of
    the full one. ``k2`` and ``k1sq`` are the |k|^2 and k1^2 symbols.
    ``multiplicity`` is the Hermitian multiplicity of each plane (the
    k_last = 0 plane once, every other plane twice, for its k_last < 0
    partner), so a sum over the band weighted by it equals the sum over the
    full spectrum of a real field that is zero outside the band.
    ``norm_k2`` is |k|^2 times that multiplicity.
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
    multiplicity: np.ndarray
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
        multiplicity=multiplicity,
        norm_k2=cut(grid.k2) * multiplicity,
    )


class ForceWorkspace:
    """The arrays one force evaluation writes its intermediates into.

    ``LagrangianStepper`` builds one from its grid and hands it to every
    force it computes, so a warm step allocates no array of grid size;
    ``compute_force`` without one builds a fresh one. Its arrays are
    overwritten by the next force on the same workspace. With d = grid.dim,
    real samples (float64, grid shape):

    - ``grad_y``, ``grad_yt``, ``a``: (d, d), grad Y, grad Yt and the
      cofactor A, which the force returns;
    - ``b``: (d, d), B1, then B = B1 + B2, then w x (A^T w) of the
      pressure right-hand side;
    - ``defect``: (d, d), D = A^T A - I, which the pressure solve reads;
    - ``flux``: (d, d), B2, then D grad Yt, then Z A of the pressure
      right-hand side;
    - ``vec``: (3, d), the samples of Yt and the vectors of the pressure
      right-hand side, then the Picard iterate and its product with D.

    Bands (complex, ``grid.half``):

    - ``y_band``, ``yt_band``: (d,), the masked bands of Y and Yt;
    - ``mat_band``: (d, d), the gradient spectra, then the flux and Z A
      spectra;
    - ``vec_band``: (3, d), the viscous force, the pressure right-hand
      side, and the spectra in between.

    ``pad`` is (d, d) arrays of N_last/2 + 1 last-axis planes, the plane
    buffer of ``Grid.rfft`` and ``Grid.irfft``; a vector uses ``pad[0]``.
    """

    def __init__(self, grid: Grid):
        d, half = grid.dim, grid.half
        mat = (d, d) + grid.shape
        self.grad_y = np.empty(mat)
        self.grad_yt = np.empty(mat)
        self.a = np.empty(mat)
        self.b = np.empty(mat)
        self.defect = np.empty(mat)
        self.flux = np.empty(mat)
        self.vec = np.empty((3, d) + grid.shape)
        self.y_band = np.empty((d,) + half.shape, dtype=complex)
        self.yt_band = np.empty((d,) + half.shape, dtype=complex)
        self.mat_band = np.empty((d, d) + half.shape, dtype=complex)
        self.vec_band = np.empty((3, d) + half.shape, dtype=complex)
        planes = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)
        self.pad = np.empty((d, d) + planes, dtype=complex)


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


def multi_indices(dim: int, s: int):
    """All multi-indices alpha with |alpha| <= s, each exactly once."""
    return [
        alpha
        for alpha in itertools.product(range(s + 1), repeat=dim)
        if sum(alpha) <= s
    ]

"""Periodic grids and the spectral bookkeeping shared by every module.

Axis 0 of the spatial shape is the distinguished y1 direction: the background
magnetic field points along it, and all anisotropic weights single out k1.
Component axes of vector/matrix data always come first, so spatial axes are
the last ``dim`` axes and spectral transforms act on those.

A real field has one spectral representation, its band: the first
K = ceil(N_last/3) last-axis planes (k_last = 0, ..., K - 1) of its
normalized Fourier coefficients, exactly the k_last >= 0 planes the 2/3 mask
keeps; the k_last < 0 planes are their complex conjugates. A ``Grid`` keeps
its spectral tables on the band only, and ``rfft``/``irfft`` go between
samples and bands in two stages: the leading axes by scipy's in-place c2c
(``lead_pass``), the last axis (``last_forward``, ``last_inverse``) by a
matmul against a pruned real DFT table for N_last <= MATMUL_MAX_LAST and
by numpy's r2c/c2r past that.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft


# Largest N_last whose last-axis stage is a matmul. Speed-up of the matmul
# over numpy.fft's rfft/irfft on that stage, for a 3-vector on one thread
# (2-core Xeon, numpy 2.4, OpenBLAS 0.3.31), forward / inverse: 16^3 3.7x /
# 5.0x, 32^3 3.5x / 3.7x, 64^3 1.7x / 2.3x, 128^2 0.57x / 0.95x, 256^2
# 0.51x / 0.46x. The matmul's work grows as N_last^2, the FFT's as
# N_last log N_last.
MATMUL_MAX_LAST = 64


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@functools.lru_cache(maxsize=None)
def _dft_tables(n: int):
    """(fwd, inv): the real DFT of n points as two read-only float64 tables.

    ``fwd`` is (n, 2K), K = ceil(n/3): its columns interleave
    cos(theta_jk) / n and -sin(theta_jk) / n, theta_jk = 2 pi ((j k) mod n) / n,
    so ``values @ fwd`` viewed as complex is the band of the forward
    transform along the last axis. ``inv`` is (2 (n/2 + 1), n): rows 2k and
    2k + 1 are m_k cos(theta_jk) and -m_k sin(theta_jk), with the Hermitian
    multiplicity m_k 1 on k = 0 and n/2 and 2 elsewhere, so the planes
    k = 0, ..., k_max - 1 viewed as float, times ``inv[:2 k_max]``, are the
    real samples. The -sin rows of k = 0 and n/2 are exact zeros: their
    imaginary parts are ignored, as irfft ignores them.
    """
    k = np.arange(n // 2 + 1)
    theta = 2.0 * np.pi * (np.outer(np.arange(n), k) % n) / n
    table = np.empty((n, k.size, 2))
    table[..., 0] = np.cos(theta)
    table[..., 1] = -np.sin(theta)
    table[:, [0, -1], 1] = 0.0
    nb = -(-n // 3)
    fwd = table[:, :nb].reshape(n, 2 * nb) / n
    multiplicity = np.full(k.size, 2.0)
    multiplicity[[0, -1]] = 1.0
    inv = (table * multiplicity[:, None]).reshape(n, 2 * k.size).T.copy()
    fwd.flags.writeable = False
    inv.flags.writeable = False
    return fwd, inv


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a box of per-axis lengths L_i with N_i points.

    Wavevectors follow FFT ordering, k_i = (2*pi/L_i) * n_i with
    n_i in {0, ..., N_i/2 - 1, -N_i/2, ..., -1} on the leading axes and
    n_last in {0, ..., K - 1} on the last: every spectral table is a table
    on the band, of shape ``band_shape``. ``k2``, ``k1sq`` and ``ik`` are
    the |k|^2, k1^2 and i k_j symbols. ``multiplicity`` is the Hermitian
    multiplicity of each plane (the k_last = 0 plane once, every other plane
    twice, for its k_last < 0 partner), so a sum over the band weighted by
    it equals the sum over the full spectrum of a real field that is zero
    outside the band. ``norm_k2`` is |k|^2 times that multiplicity.
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
        nb = int(np.ceil(sizes[-1] / 3.0))
        band_shape = sizes[:-1] + (nb,)

        def along(i, table):
            """Per-axis table as a view along axis i, the last axis on the band."""
            if i == dim - 1:
                table = table[:nb]
            return table.reshape([-1 if j == i else 1 for j in range(dim)])

        k_axes = tuple(
            along(i, 2.0 * np.pi * np.fft.fftfreq(n, d=h))
            for i, (n, h) in enumerate(zip(sizes, spacings))
        )
        k2 = np.zeros(band_shape)
        for ka in k_axes:
            k2 = k2 + ka**2
        # inverse Laplacian symbol, 0 on the mean mode
        inv_k2 = np.zeros(band_shape)
        np.divide(1.0, k2, out=inv_k2, where=k2 > 0)
        # 2/3 rule: keep |n_i| < N_i/3 per axis so that products of retained
        # modes alias only onto discarded ones; stored as 0.0/1.0 so that a
        # multiply applies it
        mask = np.ones(band_shape)
        for i, n in enumerate(sizes):
            ncut = int(np.ceil(n / 3.0)) - 1
            mask = mask * along(i, np.abs(np.fft.fftfreq(n) * n) <= ncut)
        multiplicity = np.full(nb, 2.0)
        multiplicity[0] = 1.0
        # a plane buffer's last axis: the band, all the matmul stage reads,
        # or the N_last/2 + 1 planes of numpy's c2r
        pad_last = nb if sizes[-1] <= MATMUL_MAX_LAST else sizes[-1] // 2 + 1
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
        object.__setattr__(self, "band_shape", band_shape)
        object.__setattr__(self, "pad_shape", sizes[:-1] + (pad_last,))
        object.__setattr__(self, "k_axes", k_axes)
        # the symbols i k_j on the whole band: numpy buffers a broadcast operand
        ik = tuple(np.broadcast_to(1j * k, band_shape).copy() for k in k_axes)
        object.__setattr__(self, "ik", ik)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "inv_k2", inv_k2)
        object.__setattr__(self, "k1sq", k_axes[0] ** 2)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dealias_mask", mask)
        # the mask as complex bands take it: numpy would cast it on every call
        object.__setattr__(self, "dealias_mask_complex", mask.astype(complex))
        # inverse Laplacian restricted to the retained band
        object.__setattr__(self, "masked_inv_k2", mask * inv_k2)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "norm_k2", k2 * multiplicity)
        object.__setattr__(self, "_hs_weights", {})

    # -- transforms --------------------------------------------------------

    @property
    def shape(self):
        return self.sizes

    @property
    def spatial_axes(self):
        return tuple(range(-self.dim, 0))

    def rfft(self, values, out=None, pad=None):
        """Real samples -> the band, the first K = ceil(N_last/3) last-axis
        planes of the normalized coefficients, which the 2/3 mask keeps:
        ``last_forward`` into ``out``, then one ``lead_pass``; the mask is
        not applied. out and pad (N_last/2 + 1 last-axis planes, complex)
        are allocated when not given; the result is ``out``."""
        out = self.last_forward(values, out=out, pad=pad)
        return self.lead_pass(out, self.spatial_axes[:-1])

    def irfft(self, band, out=None, pad=None):
        """Band -> real samples, the argument left unchanged: any k <= N_last/2
        + 1 planes k_last >= 0, the missing ones zero, go into the first k
        planes of ``pad`` (overwritten) for one inverse ``lead_pass`` and
        ``last_inverse``. Exact for a band the 2/3 mask has been applied to:
        it is zero, hence Hermitian, on the Nyquist hyperplanes of the
        leading axes. out and pad (``pad_shape``, or k planes if more) are
        allocated when not given."""
        k = band.shape[-1]
        if pad is None:
            pad = np.empty(band.shape[:-1] + (max(k, self.pad_shape[-1]),), dtype=complex)
        part = pad[..., :k]
        part[...] = band
        self.lead_pass(part, self.spatial_axes[:-1], inverse=True)
        return self.last_inverse(pad, k, out=out)

    def lead_pass(self, arr, axes, inverse=False):
        """scipy's c2c over the given leading spatial axes of arr (negative
        indices), written back into arr; the forward one scaled by 1/N per
        axis, exactly for power-of-two sizes. A symbol i k_j commutes with
        the passes along the other axes, so ``spectral.gradient_values`` and
        ``spectral.divergence_band`` apply it between them."""
        c2c = sfft.ifftn if inverse else sfft.fftn
        res = c2c(arr, axes=axes, norm="forward", overwrite_x=True)
        if not np.may_share_memory(res, arr):  # overwrite_x is a hint only
            arr[...] = res
        return arr

    def last_forward(self, values, out=None, pad=None):
        """Real samples -> their first K last-axis planes, scaled by 1/N_last:
        for N_last <= MATMUL_MAX_LAST one matmul against the cached table
        ``_dft_tables(N_last)[0]``, past it numpy's rfft into all N_last/2 + 1
        planes of ``pad`` and a copy of the first K into ``out``; both are
        allocated when needed."""
        lead, n, nb = values.shape[:-1], self.sizes[-1], self.band_shape[-1]
        if out is None:
            out = np.empty(lead + (nb,), dtype=complex)
        if n <= MATMUL_MAX_LAST:
            np.matmul(values, _dft_tables(n)[0], out=out.view(float))
        else:
            if pad is None:
                pad = np.empty(lead + (n // 2 + 1,), dtype=complex)
            np.fft.rfft(values, axis=-1, norm="forward", out=pad)
            out[...] = pad[..., :nb]
        return out

    def last_inverse(self, pad, k, out=None):
        """The first k last-axis planes of ``pad`` -> real samples, the planes
        past k taken as zero: for N_last <= MATMUL_MAX_LAST one matmul of the
        k planes, viewed as float, against the first 2k rows of
        ``_dft_tables(N_last)[1]``; past it numpy's irfft of all N_last/2 + 1
        planes of ``pad``, those past k zeroed first."""
        n = self.sizes[-1]
        if n > MATMUL_MAX_LAST:
            pad[..., k:] = 0.0
            return np.fft.irfft(pad, n=n, axis=-1, norm="forward", out=out)
        if out is None:
            out = np.empty(pad.shape[:-1] + (n,))
        return np.matmul(pad[..., :k].view(float), _dft_tables(n)[1][: 2 * k], out=out)

    def fft(self, values):
        """Real samples -> full spectrum c_k with f(y) = sum c_k e^{ik.y}. No run
        path calls it or ``ifft``: perfbench's ``_scaled_force`` (through
        the force's ``spec``), ``test_rfft_matches_the_full_transform`` and
        ``test_gate_passes_transforms_through_rfft`` do (ROADMAP item 3)."""
        return sfft.fftn(values, axes=self.spatial_axes, norm="forward")

    def ifft(self, spec):
        """Spectrum of a real field -> real samples: one irfftn of the k_last
        >= 0 half, the k_last < 0 planes not read. Kept for perfbench."""
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
            w = np.zeros(self.band_shape)
            for alpha in multi_indices(self.dim, s):
                term = np.ones(self.band_shape)
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


class ForceWorkspace:
    """The arrays one force evaluation writes its intermediates into.

    ``LagrangianStepper`` builds one from its grid and hands it to every
    force it computes, so a warm step allocates no array of grid size;
    ``compute_force`` without one builds a fresh one. Its arrays, those a
    force returns included, are overwritten by the next force on the same
    workspace. With d = grid.dim, real samples (float64, grid shape):

    - ``grad_y``, ``grad_yt``, ``a``: (d, d), grad Y, grad Yt and the
      cofactor A, which the force returns;
    - ``b``: (d, d), B = A - I, then in ``b[:2]`` the pair [d1 Y, Yt] of
      the pressure right-hand side;
    - ``defect``: (d, d), D = A^T A - I, which the pressure solve reads;
    - ``flux``: (d, d), Z A of the pressure right-hand side, then the
      viscous flux D grad Yt;
    - ``vec``: (3, d), A^T [d1 Y, Yt] and the vector of the pressure
      right-hand side, then the Picard iterate and its product with D,
      then grad_p and A grad_p.

    Bands (complex, ``grid.band_shape``):

    - ``y_band``, ``yt_band``: (d,), the masked bands of Y and Yt, where
      ``LagrangianStepper.step`` then forms its predictor state;
    - ``mat_band``: (d, d), the stages of each ``divergence_band``: of Z A,
      then of the viscous flux less A grad_p; the stepper's scratch in [0];
    - ``vec_band``: (2, d), [0] the pressure right-hand side, then f, and
      [1] the spectra of its assembly and of the Picard iteration, then grad_p;
    - ``q``: 4 scalar bands, the Picard potentials in [1] and [2] (the
      force returns one), a stepper's start in [0], temporaries in [3].

    ``pad`` is (d, d) arrays of ``grid.pad_shape``: the slots of
    ``gradient_values``, the plane buffer of ``Grid.irfft``, and of
    ``Grid.rfft`` for N_last past ``MATMUL_MAX_LAST``; a vector uses
    ``pad[0]``.
    """

    def __init__(self, grid: Grid):
        d, band = grid.dim, grid.band_shape
        mat = (d, d) + grid.shape
        self.grad_y = np.empty(mat)
        self.grad_yt = np.empty(mat)
        self.a = np.empty(mat)
        self.b = np.empty(mat)
        self.defect = np.empty(mat)
        self.flux = np.empty(mat)
        self.vec = np.empty((3, d) + grid.shape)
        self.y_band = np.empty((d,) + band, dtype=complex)
        self.yt_band = np.empty((d,) + band, dtype=complex)
        self.mat_band = np.empty((d, d) + band, dtype=complex)
        self.vec_band = np.empty((2, d) + band, dtype=complex)
        self.q = np.empty((4,) + band, dtype=complex)
        self.pad = np.empty((d, d) + grid.pad_shape, dtype=complex)


def multi_indices(dim: int, s: int):
    """All multi-indices alpha with |alpha| <= s, each exactly once."""
    return [
        alpha
        for alpha in itertools.product(range(s + 1), repeat=dim)
        if sum(alpha) <= s
    ]

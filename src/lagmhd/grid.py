"""Periodic grids and the spectral bookkeeping shared by every module.

Axis 0 of the spatial shape is the distinguished y1 direction: the background
magnetic field points along it, and all anisotropic weights single out k1.
Component axes of vector/matrix data always come first, so spatial axes are
the last ``dim`` axes and spectral transforms act on those.

A real field has one spectral representation, its band: the normalized
Fourier coefficients of the modes the 2/3 mask keeps with k_last >= 0,
|n_i| <= ceil(N_i/3) - 1 on each leading axis and the first K =
ceil(N_last/3) last-axis planes (k_last = 0, ..., K - 1), the k_last < 0
planes being their complex conjugates. The band is FFT-ordered with the
dropped middle block of each leading axis cut out, 2 ceil(N_i/3) - 1 modes
on it, so a negative index names the same wavenumber as in the full
spectrum (n = -1 is index -1). A ``Grid`` keeps its spectral tables on the
band only, and ``rfft``/``irfft`` go between samples and bands in two
stages on the wide (N0[, N1], K) layout, which only a transform's scratch
and the symbols of its stages hold: the leading axes by a single-axis c2c
(``lead_pass``), scipy's pocketfft extension's in either dimension, where
in 3D the pass that meets the mask runs on the lines it keeps only, the
last axis (``last_forward``, ``last_inverse``) by a matmul against a pruned
real DFT table for N_last <= MATMUL_MAX_LAST and by numpy's r2c/c2r past
that.
``scatter`` puts a band into that layout, zeros in the dropped blocks
(``zero_dropped``), and ``gather`` takes it back out, so no band holds a
mode the mask drops and none is masked.

No run imports a scipy module: the first ``Grid`` loads the one extension
its leading passes call, pocketfft's, by its path in the scipy package, and
only ``Grid.fft`` and ``Grid.ifft`` import scipy.fft.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass

import numpy as np

# scipy's pocketfft extension, loaded by the first Grid, whose leading
# passes call its c2c: numpy.fft's c2c takes the 3D middle-axis pass in
# chunks of lines, 1.5-2.1 times pocketfft's time there (544 / 355 us on a
# (9, 32, 32, 11) buffer, 99 / 47 us at (9, 16, 16, 6); 2-core Xeon, numpy
# 2.4, scipy 1.17), and on the 2D pass it gives numpy.fft's bits in 0.87-0.92
# of its time (70 / 76 us on a (2, 2, 128, 43) buffer). The extension alone
# adds 0.4-0.8 MB to a process, where importing scipy.fft to reach it loads
# 85 scipy modules and adds 26 MB and 0.25 s
sfft = None
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


@functools.lru_cache(maxsize=None)
def _pocketfft():
    """scipy's pocketfft extension, without importing a scipy module: the one
    scipy.fft holds when it is loaded, else the file in the scipy package,
    loaded under its full name, the last part of which names its init
    function. A missing file raises an ImportError."""
    if _POCKETFFT in sys.modules:
        return sys.modules[_POCKETFFT]
    scipy = importlib.util.find_spec("scipy")
    root = scipy.submodule_search_locations[0] if scipy else "<scipy not installed>"
    path = os.path.join(
        root, "fft", "_pocketfft", "pypocketfft" + importlib.machinery.EXTENSION_SUFFIXES[0]
    )
    if not os.path.isfile(path):
        raise ImportError(f"a grid needs scipy's pocketfft extension at {path}", path=path)
    spec = importlib.util.spec_from_file_location(_POCKETFFT, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Largest N_last whose last-axis stage is a matmul. Speed-up of the matmul
# over numpy.fft's rfft/irfft on that stage, for a 3-vector on one thread
# (2-core Xeon, numpy 2.4, OpenBLAS 0.3.31), forward / inverse: 16^3 3.7x /
# 5.0x, 32^3 3.5x / 3.7x, 64^3 1.7x / 2.3x, 128^2 0.57x / 0.95x, 256^2
# 0.51x / 0.46x. The matmul's work grows as N_last^2, the FFT's as
# N_last log N_last.
MATMUL_MAX_LAST = 64

# Fewest grid points on which a force runs the gradient of Yt, its metric
# defect and its viscous stages on a helper thread, beside the gradient of
# Y and the pressure right-hand side and solve (``evolution.compute_force``).
# Step time with the helper over the step without it, alternating in one
# process, seed-0 data, over 3 to 4 runs (2-core Xeon shared with other
# loads, numpy 2.4, one BLAS thread): 0.71-0.73 on slab3d's and 0.72-0.74
# on strong3d's at 32^3, 0.85-0.99 on plane2d's at 128^2, and, with the
# helper forced on, 1.06-1.21 on compare16's at 16^3, where the stages run
# in sequence. With only D and the viscous stages on the helper one run
# read 0.81, 0.82, 0.95 and 1.08
OVERLAP_MIN_POINTS = 128**2


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
    (nb,) = band_shape_of((n,))
    fwd = table[:, :nb].reshape(n, 2 * nb) / n
    multiplicity = np.full(k.size, 2.0)
    multiplicity[[0, -1]] = 1.0
    inv = (table * multiplicity[:, None]).reshape(n, 2 * k.size).T.copy()
    fwd.flags.writeable = False
    inv.flags.writeable = False
    return fwd, inv


def band_shape_of(sizes) -> tuple:
    """The shape of a band on a grid of these sizes. The 2/3 rule keeps
    |n_i| <= c_i = ceil(N_i/3) - 1 per axis, so that products of retained
    modes alias only onto discarded ones: 2 c_i + 1 modes on a leading axis,
    and K = ceil(N_last/3) planes k_last >= 0 on the last."""
    *lead, last = (-(-int(n) // 3) for n in sizes)
    return tuple(2 * c - 1 for c in lead) + (last,)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a box of per-axis lengths L_i with N_i points.

    Wavevectors follow FFT ordering, k_i = (2*pi/L_i) * n_i, on the band:
    ``modes[i]`` holds the n_i of axis i, {0, ..., c_i, -c_i, ..., -1} with
    c_i = ceil(N_i/3) - 1 on the leading axes and {0, ..., K - 1} on the
    last, and every spectral table is a table on the band, of shape
    ``band_shape``. ``k2``, ``k1sq``, ``ik`` and ``inv_lap`` are the |k|^2,
    k1^2, i k_j and inverse Laplacian (-1/|k|^2, 0 on the mean mode)
    symbols: the Riesz projector grad Delta^-1 div is ik (inv_lap (ik . c)).
    ``multiplicity`` is the Hermitian multiplicity of each plane (the
    k_last = 0 plane once, every other plane twice, for its k_last < 0
    partner), so a sum over the band weighted by it equals the sum over the
    full spectrum of a real field that is zero outside the band. ``norm_k2``
    is |k|^2 times that multiplicity. ``ik``, ``inv_lap`` and ``norm_k2``,
    which only multiply complex bands, are complex whole-band tables, the
    last two x + 0j: numpy casts a real table so and buffers a broadcast
    one, and the products keep their bits.
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
        global sfft
        sfft = _pocketfft()
        spacings = tuple(l / n for n, l in zip(sizes, lengths))
        band_shape = band_shape_of(sizes)
        # on a leading axis the band keeps n_i = 0..c_i and -c_i..-1,
        # FFT-ordered, on the last n = 0..K - 1
        ncuts, nb = [m // 2 for m in band_shape[:-1]], band_shape[-1]
        modes = tuple(np.r_[0 : c + 1, -c:0] for c in ncuts) + (np.arange(nb),)

        def along(i, table):
            """Per-axis table as a view along axis i."""
            return table.reshape([-1 if j == i else 1 for j in range(dim)])

        # k_i of the N_i FFT-ordered modes of each axis, the first K of the
        # last; the band's are the entries of its modes
        wide_k = tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=h)[: None if i < dim - 1 else nb]
            for i, (n, h) in enumerate(zip(sizes, spacings))
        )
        k_axes = tuple(along(i, k[modes[i] % len(k)]) for i, k in enumerate(wide_k))
        k2 = np.zeros(band_shape)
        for ka in k_axes:
            k2 = k2 + ka**2
        # inverse Laplacian symbol, 0 on the mean mode
        inv_lap = np.zeros(band_shape)
        np.divide(-1.0, k2, out=inv_lap, where=k2 > 0)
        # the wide layout of a transform's scratch, by leading axis i: the
        # (wide, band) slices of the kept blocks and the wide slice of the
        # dropped one. In 3D the leading pass that meets the mask runs on the
        # lines it keeps, by (inverse, axis): the forward one along axis -2
        # on the kept n0 rows, the inverse one along -3 on the kept n1
        # columns; every other pass runs on the whole scratch
        kept, dropped, lines_kept = [], [], []
        for i, (n, c) in enumerate(zip(sizes, ncuts)):
            rest = (slice(None),) * (dim - 1 - i)
            pairs = [(slice(0, c + 1), slice(0, c + 1))]
            if c:
                pairs.append((slice(n - c, n), slice(c + 1, 2 * c + 1)))
            kept.append(tuple(pairs))
            lines_kept.append(tuple((Ellipsis, w) + rest for w, _ in pairs))
            dropped.append((Ellipsis, slice(c + 1, n - c)) + rest)
        last = (slice(0, nb),)
        blocks = tuple(
            ((Ellipsis,) + tuple(w for w, _ in combo) + last,
             (Ellipsis,) + tuple(b for _, b in combo) + last)
            for combo in itertools.product(*kept)
        )
        lines = dict.fromkeys(itertools.product((False, True), (-3, -2)), ((Ellipsis,),))
        if dim == 3:
            lines.update({(False, -2): lines_kept[0], (True, -3): lines_kept[1]})
        multiplicity = np.full(nb, 2.0)
        multiplicity[0] = 1.0
        # a plane buffer's last axis: the band, all the matmul stage reads,
        # or the N_last/2 + 1 planes of numpy's r2c
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
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "band_shape", band_shape)
        object.__setattr__(self, "pad_shape", sizes[:-1] + (pad_last,))
        object.__setattr__(self, "k_axes", k_axes)
        # the symbols i k_j on the whole band: numpy buffers a broadcast operand
        ik = tuple(np.broadcast_to(1j * k, band_shape).copy() for k in k_axes)
        object.__setattr__(self, "ik", ik)
        # the same symbols on the wide layout, for the stages of the
        # transforms, where a symbol meets samples of the other axes: a
        # broadcast or blockwise product runs through numpy's iteration
        # buffers, 1.6-2.7 times the time of one on whole tables
        wide_ik = tuple(
            np.broadcast_to(1j * along(i, kw), sizes[:-1] + (nb,)).copy()
            for i, kw in enumerate(wide_k)
        )
        object.__setattr__(self, "_wide_ik", wide_ik)
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "inv_lap", inv_lap.astype(complex))
        object.__setattr__(self, "k1sq", k_axes[0] ** 2)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_dropped", tuple(dropped))
        object.__setattr__(self, "_lines", lines)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "norm_k2", (k2 * multiplicity).astype(complex))
        object.__setattr__(self, "_hs_weights", {})

    # -- transforms --------------------------------------------------------

    @property
    def shape(self):
        return self.sizes

    @property
    def spatial_axes(self):
        return tuple(range(-self.dim, 0))

    def rfft(self, values, out=None, pad=None):
        """Real samples -> the band: ``last_forward`` into the first K planes
        of pad, one ``lead_pass`` there and ``gather`` into out. out and pad
        (``pad_shape``, complex) are allocated when not given; the result is
        ``out``."""
        wide = self.last_forward(values, pad=pad)
        return self.gather(self.lead_pass(wide, self.spatial_axes[:-1]), out=out)

    def irfft(self, band, out=None, pad=None):
        """Band -> real samples, the argument left unchanged: ``scatter``
        into the first K planes of pad (overwritten), one inverse
        ``lead_pass`` there and ``last_inverse``. out and pad
        (``pad_shape``) are allocated when not given."""
        if pad is None:
            pad = np.empty(band.shape[: -self.dim] + self.pad_shape, dtype=complex)
        wide = self.scatter(band, pad)
        self.lead_pass(wide, self.spatial_axes[:-1], inverse=True)
        return self.last_inverse(wide, out=out)

    def scatter(self, band, wide):
        """The band into the first K last-axis planes of ``wide``, a
        transform buffer of (N0[, N1]) leading modes: each mode at its place
        in FFT order, zeros in the blocks the 2/3 mask drops. Returns those
        K planes."""
        part = wide[..., : self.band_shape[-1]]
        for w, b in self._blocks:
            part[w] = band[b]
        return self.zero_dropped(part)

    def gather(self, wide, out=None):
        """The band of ``wide``, a spectrum or a transform buffer of (N0[,
        N1]) leading modes and at least K last-axis planes: the modes the
        2/3 mask keeps, into out (allocated when not given)."""
        if out is None:
            out = np.empty(wide.shape[: -self.dim] + self.band_shape, dtype=complex)
        for w, b in self._blocks:
            out[b] = wide[w]
        return out

    def zero_dropped(self, wide):
        """A transform buffer zeroed in place in the leading blocks the 2/3
        mask drops (it keeps every plane)."""
        for block in self._dropped:
            wide[block] = 0.0
        return wide

    def lead_pass(self, arr, axes, inverse=False):
        """A single-axis c2c along each given leading spatial axis of arr, a
        transform buffer (negative indices), written back into arr; the
        forward one scaled by 1/N, exactly for power-of-two sizes. pocketfft's
        c2c (``sfft``) writes each into its blocks of lines (out=), the call,
        and so the bits, of scipy.fft's fft or ifft with ``norm="forward"``
        and ``overwrite_x``; in 2D, where the one pass runs on the whole
        buffer, those are also numpy.fft's bits. A transform's passes run
        along axis -3 before -2, the forward ones ahead of ``gather`` and the
        inverse ones on a ``scatter``, zero in the dropped blocks, so in 3D
        the pass that meets the mask runs on the lines it keeps only. A
        symbol i k_j commutes with the passes along the other axes, so
        ``spectral.gradient_values`` and ``spectral.divergence_band`` apply
        it between them."""
        norm = 0 if inverse else 2  # pocketfft's codes: 2 scales by 1/N, 0 not at all
        for axis in axes:
            for block in self._lines[inverse, axis]:
                part = arr[block]
                sfft.c2c(part, (axis,), not inverse, norm, part, 1)
        return arr

    def last_forward(self, values, out=None, pad=None):
        """Real samples -> their first K last-axis planes, scaled by 1/N_last,
        on every leading sample, into out, by default the first K planes of
        pad: for N_last <= MATMUL_MAX_LAST one matmul against the cached
        table ``_dft_tables(N_last)[0]``, past it numpy's rfft into all
        N_last/2 + 1 planes of pad, the first K of which are copied into a
        given out. pad (``pad_shape``) is allocated when needed."""
        lead, n, nb = values.shape[:-1], self.sizes[-1], self.band_shape[-1]
        if pad is None and (out is None or n > MATMUL_MAX_LAST):
            pad = np.empty(lead + self.pad_shape[-1:], dtype=complex)
        if n <= MATMUL_MAX_LAST:
            out = pad[..., :nb] if out is None else out
            np.matmul(values, _dft_tables(n)[0], out=out.view(float))
            return out
        np.fft.rfft(values, axis=-1, norm="forward", out=pad)
        if out is None:
            return pad[..., :nb]
        out[...] = pad[..., :nb]
        return out

    def last_inverse(self, planes, out=None):
        """The k last-axis planes of ``planes`` -> real samples, the planes
        past k taken as zero: for N_last <= MATMUL_MAX_LAST one matmul
        of the planes, viewed as float, against the first 2k rows of
        ``_dft_tables(N_last)[1]``; past it numpy's irfft, which pads them
        to N_last/2 + 1 planes itself."""
        n, k = self.sizes[-1], planes.shape[-1]
        if n > MATMUL_MAX_LAST:
            return np.fft.irfft(planes, n=n, axis=-1, norm="forward", out=out)
        if out is None:
            out = np.empty(planes.shape[:-1] + (n,))
        return np.matmul(planes.view(float), _dft_tables(n)[1][: 2 * k], out=out)

    def fft(self, values):
        """Real samples -> full spectrum c_k with f(y) = sum c_k e^{ik.y}, by
        scipy.fft's fftn, imported here and in ``ifft`` only. No run path
        calls it or ``ifft``: perfbench's ``_scaled_force`` (through the
        force's ``spec``), ``test_rfft_matches_the_full_transform`` and
        ``test_gate_passes_transforms_through_rfft`` do (ROADMAP item 3)."""
        import scipy.fft

        return scipy.fft.fftn(values, axes=self.spatial_axes, norm="forward")

    def ifft(self, spec):
        """Spectrum of a real field -> real samples: one scipy.fft irfftn of
        the k_last >= 0 half, the k_last < 0 planes not read. Kept for
        perfbench."""
        import scipy.fft

        half = spec[..., : self.sizes[-1] // 2 + 1]
        return scipy.fft.irfftn(half, s=self.sizes, axes=self.spatial_axes, norm="forward")

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


class ForceWorkspace:
    """The arrays one force evaluation writes its intermediates into.

    ``LagrangianStepper`` builds one from its grid and hands it to every
    force it computes, so a warm step allocates no array of grid size;
    ``compute_force`` without one builds a fresh one. Its arrays, those a
    force returns included, are overwritten by the next force on the same
    workspace. With d = grid.dim, real samples (float64, grid shape), six
    (d, d) tensors in 3D:

    - ``grad_y``, ``grad_yt``, ``a``: (d, d), grad Y, grad Yt and the
      cofactor A, which the force returns;
    - ``b``: (d, d), B = A - I until D is formed, then, below
      ``OVERLAP_MIN_POINTS``, Z A of the pressure right-hand side, then the
      viscous flux D grad Yt;
    - ``defect``: (d, d), D = A^T A - I, which the pressure solve reads;
    - ``vec``: (3, d), [0] the samples of Yt, which with d1 Y in
      ``grad_y[:, 0]`` make the pair [v, w] of the pressure right-hand
      side, [1:] A^T v and -A^T w, then the vector of the right-hand side;
      then the Picard iterate and its product with D, then grad_p and
      A grad_p.

    Bands (complex, ``grid.band_shape``):

    - ``y_band``, ``yt_band``: (d,), where ``LagrangianStepper.step`` forms
      its predictor state;
    - ``vec_band``: (3, d), [0] the pressure right-hand side, then f, [1]
      the spectra of its assembly and of the Picard iteration, then grad_p,
      and [2] the stepper's scratch;
    - ``q``: 4 scalar bands, the Picard potentials in [1] and [2] (the
      force returns one), a stepper's start in [0], temporaries in [3].

    Transform scratch, on the wide (N0[, N1]) leading modes: ``mat_band``,
    (d, d) arrays of K last-axis planes, holds the slots of the gradient of
    Y and the stages of the divergence of Z A, and, below
    ``OVERLAP_MIN_POINTS``, the slots of the gradient of Yt and the stages
    of the viscous flux less A grad_p; ``pad``, arrays of
    ``grid.pad_shape``, keeps only the rows a force reads: past
    ``MATMUL_MAX_LAST`` (d, d), which numpy's r2c of a matrix fills, and at
    or below it one vector row, (1, d). ``pad[0]`` is the plane buffer of
    ``Grid.irfft`` and ``Grid.rfft`` on a vector, and the K planes of
    ``divergence_finish``'s ``minus`` go to the memory of ``pad[-1]``: at
    or below ``MATMUL_MAX_LAST`` that is the same row, which no transform
    reads then.

    From ``OVERLAP_MIN_POINTS`` grid points on, the helper thread of
    ``evolution.compute_force`` has arrays of its own: ``flux_slots``, laid
    out as ``mat_band``, the slots of the gradient of Yt, then the planes
    of the viscous flux D grad Yt, less A grad_p at the end, and
    ``flux_row``, (1, d) samples, one row of the flux at a time, whose
    numpy r2c past ``MATMUL_MAX_LAST`` fills ``pad[-1]``, a row the calling
    thread does not read meanwhile. While the helper forms D from B, the
    pressure right-hand side forms Z A a row at a time in ``za_row``, (1,
    d) samples, its r2c in ``pad[0]``. Below that size the workspace has
    none of the three, and Z A and the flux take ``b`` and ``mat_band``.
    """

    def __init__(self, grid: Grid):
        d, band = grid.dim, grid.band_shape
        mat = (d, d) + grid.shape
        self.grad_y = np.empty(mat)
        self.grad_yt = np.empty(mat)
        self.a = np.empty(mat)
        self.b = np.empty(mat)
        self.defect = np.empty(mat)
        self.vec = np.empty((3, d) + grid.shape)
        self.y_band = np.empty((d,) + band, dtype=complex)
        self.yt_band = np.empty((d,) + band, dtype=complex)
        self.vec_band = np.empty((3, d) + band, dtype=complex)
        self.q = np.empty((4,) + band, dtype=complex)
        wide = grid.pad_shape[:-1] + band[-1:]
        self.mat_band = np.empty((d, d) + wide, dtype=complex)
        rows = d if grid.sizes[-1] > MATMUL_MAX_LAST else 1
        self.pad = np.empty((rows, d) + grid.pad_shape, dtype=complex)
        if grid.npoints >= OVERLAP_MIN_POINTS:
            self.za_row = np.empty((1, d) + grid.shape)
            self.flux_row = np.empty((1, d) + grid.shape)
            self.flux_slots = np.empty((d, d) + wide, dtype=complex)


def multi_indices(dim: int, s: int):
    """All multi-indices alpha with |alpha| <= s, each exactly once."""
    return [
        alpha
        for alpha in itertools.product(range(s + 1), repeat=dim)
        if sum(alpha) <= s
    ]

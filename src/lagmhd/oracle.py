"""Whole-space linear decay oracle by continuous-wavevector quadrature.

The torus cannot decay algebraically forever, so the weighted-energy decay
content is verified at the linear level on R^3 directly: per-mode exact
evolution of an initial profile specified as a function of continuous k,
integrated in spherical shells. The Sobolev weights are averaged analytically
over the azimuthal angle, leaving a 2D (radius, cos-angle) Gauss-Legendre
quadrature whose angular resolution tracks the largest phase in the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleQuadratureError
from .evolution import _phi_entries


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 - 15.0 * x + 6.0 * x * x)


# PowerLawProfile's envelopes r^EXPONENT_Y and r^EXPONENT_YT, each tapered
# over TAPER_OCTAVES at both ends of [k_min, k_max]
EXPONENT_Y, EXPONENT_YT, TAPER_OCTAVES = -2.5, -1.5, 1.0


@dataclass
class PowerLawProfile:
    """Radial power-law envelopes for (Y, Yt), smoothly cut to [k_min, k_max].

    The exponents put the data at the borderline regularity the
    smallness functional allows (lap Y in H^2, Yt in H^3 up to logarithms),
    which is where the temporal weights are saturated.
    """

    k_min: float = 1e-3
    k_max: float = 2.0

    def __post_init__(self):
        if not 0 < self.k_min < self.k_max:
            raise ValueError("need 0 < k_min < k_max")

    def cutoff(self, r):
        lr = np.log(r)
        width = TAPER_OCTAVES * np.log(2.0)
        lo = _smoothstep((lr - np.log(self.k_min)) / width)
        hi = _smoothstep((np.log(self.k_max) - lr) / width)
        return lo * hi

    def amplitudes(self, r, u):
        """(y, yt) initial spectral amplitudes at radius r, direction cosine u."""
        c = self.cutoff(r)
        return r**EXPONENT_Y * c, r**EXPONENT_YT * c


@dataclass
class TransverseOnlyProfile:
    """Profile concentrated near the k1 = 0 plane (neutral-direction data)."""

    k_min: float = 0.5
    k_max: float = 1.0
    width: float = 1e-3

    def cutoff(self, r):
        return _smoothstep((r - self.k_min) / (0.2 * self.k_min)) * _smoothstep(
            (self.k_max - r) / (0.2 * self.k_max)
        )

    def amplitudes(self, r, u):
        c = self.cutoff(r) * np.exp(-((u / self.width) ** 2))
        return c, c


def _w1_phi_avg(k1sq, kp2):
    return 1.0 + k1sq + kp2


def _w2_phi_avg(k1sq, kp2):
    # azimuthal averages: <k2^4 + k3^4 + k2^2 k3^2> = (7/8) kperp^4
    return _w1_phi_avg(k1sq, kp2) + k1sq * k1sq + k1sq * kp2 + 0.875 * kp2 * kp2


# name -> (which amplitude, weight as function of (k1sq, kperp^2))
NORM_WEIGHTS = {
    "grad_yt_h2": ("yt", lambda k1sq, kp2: (k1sq + kp2) * _w2_phi_avg(k1sq, kp2)),
    "grad_d1yt_h1": (
        "yt",
        lambda k1sq, kp2: k1sq * (k1sq + kp2) * _w1_phi_avg(k1sq, kp2),
    ),
    "yt_h2": ("yt", _w2_phi_avg),
    "lap_y_h2": (
        "y",
        lambda k1sq, kp2: (k1sq + kp2) ** 2 * _w2_phi_avg(k1sq, kp2),
    ),
    "d1y_h2": ("y", lambda k1sq, kp2: k1sq * _w2_phi_avg(k1sq, kp2)),
}


MAX_ANGULAR = 8000  # cap on the Gauss-Legendre nodes in the direction cosine


def linear_decay_oracle(
    t_grid,
    norms=("grad_yt_h2", "grad_d1yt_h1"),
    profile: PowerLawProfile = None,
    n_radial: int = 360,
) -> dict:
    """Whole-space linear-solution norms on t_grid by quadrature, {name: array}."""
    profile = profile if profile is not None else PowerLawProfile()
    unknown = [n for n in norms if n not in NORM_WEIGHTS]
    if unknown:
        raise ValueError(f"unknown norm(s) {unknown}; choose from {sorted(NORM_WEIGHTS)}")
    t_grid = np.asarray(t_grid, dtype=float)
    out = {name: np.empty_like(t_grid) for name in norms}
    xr_ref, wr_ref = np.polynomial.legendre.leggauss(n_radial)

    for it, t in enumerate(t_grid):
        if t < 0:
            raise ValueError("oracle times must be nonnegative")
        # radial cut where exp(-r^2 t) is below 4e-35; envelope handles the rest
        r_hi = profile.k_max if t == 0 else min(profile.k_max, np.sqrt(80.0 / t))
        if not r_hi > profile.k_min:
            raise OracleQuadratureError(
                f"decay window empty at t={t:g}", region=(profile.k_min, r_hi)
            )
        log_lo, log_hi = np.log(profile.k_min), np.log(r_hi)
        r = np.exp(0.5 * (xr_ref + 1.0) * (log_hi - log_lo) + log_lo)
        w_log = wr_ref * 0.5 * (log_hi - log_lo)
        n_u = min(int(200 + 1.5 * r_hi * t), MAX_ANGULAR)
        xu, wu = np.polynomial.legendre.leggauss(n_u)

        rr = r[:, None]
        uu = xu[None, :]
        a = rr * rr
        b = (rr * uu) ** 2
        phi0, phi1, dphi1 = _phi_entries(a, b, t)
        g_y, g_yt = profile.amplitudes(rr, uu)
        amp = {
            "y": phi0 * g_y + phi1 * g_yt,
            "yt": -b * phi1 * g_y + dphi1 * g_yt,
        }
        k1sq = b
        kp2 = a - b
        measure = 2.0 * np.pi * rr**3 * w_log[:, None] * wu[None, :]
        for name in norms:
            which, weight = NORM_WEIGHTS[name]
            val = np.sum(weight(k1sq, kp2) * amp[which] ** 2 * measure)
            if not np.isfinite(val) or val < 0:
                raise OracleQuadratureError(
                    f"non-finite quadrature for {name} at t={t:g}",
                    region=(profile.k_min, r_hi),
                )
            out[name][it] = np.sqrt(val)
    return out

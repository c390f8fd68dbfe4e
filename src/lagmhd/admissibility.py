"""Integrals of a field along the trajectories of a transversal b0 from the seed plane.

A field f is admissible for b0 on the plane {x1 = 0} when the integral of f
along every b0-trajectory seeded there vanishes. The integral over all of
time is truncated at slab exit: outside the support slab [-K, K] the
integrand is zero by hypothesis, and b0 = e1 carries trajectories straight
out, so both branches terminate in finite time whenever b0^1 >= 1/2.

``check_admissible`` is the one entry point: it integrates the trajectories
of all seeds as one batch (RK4 from ``geometry``, both branches) and takes
the integrals by Simpson's rule over the time axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from io import StringIO

import numpy as np
from scipy.integrate import simpson

from .errors import NonTransversalError
from .geometry import _rk4_batch


def _integrate_batch(fn, seeds, dt_ode, slab_halfwidth, margin):
    """Forward and backward branches for a batch of seeds, concatenated in time.

    Returns the uniform times, ascending and containing 0, and the positions,
    shape (times, seeds, d). Raises NonTransversalError unless every branch
    has left the slab.
    """
    reach = slab_halfwidth + margin
    # speed along x1 is at least 1/2 inside the slab and 1 outside
    nsteps = int(np.ceil(2.0 * reach / dt_ode)) + 2
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    fwd = _rk4_batch(fn, seeds, dt_ode, nsteps)

    def back_fn(z):
        return -fn(z)

    bwd = _rk4_batch(back_fn, seeds, dt_ode, nsteps)
    exited_f = np.abs(fwd[-1, :, 0]) > reach - margin * 0.5
    exited_b = np.abs(bwd[-1, :, 0]) > reach - margin * 0.5
    if not (exited_f.all() and exited_b.all()):
        stuck = int(np.argmin(exited_f & exited_b))
        raise NonTransversalError(
            f"trajectory from seed {seeds[stuck]} trapped inside the slab after "
            f"{nsteps} steps; b0 is not transversal"
        )
    times = np.concatenate(
        [-dt_ode * np.arange(nsteps, 0, -1), dt_ode * np.arange(nsteps + 1)]
    )
    positions = np.concatenate([bwd[:0:-1], fwd], axis=0)  # (2*nsteps+1, M, d)
    return times, positions


def _slab_integral(vals, positions, times, slab_halfwidth):
    """Simpson integral over the times (axis 0) of the integrand samples
    ``vals`` taken at ``positions``, and sup |vals|.

    Raises ValueError unless the integrand vanishes, relative to its sup,
    wherever a position lies outside the slab |x1| <= slab_halfwidth.
    """
    outside = np.abs(positions[..., 0]) > slab_halfwidth
    fmax = float(np.abs(vals).max())
    if fmax > 0.0 and outside.any():
        fmax_out = float(np.abs(vals[outside]).max())
        if fmax_out > 1e-12 * fmax:
            x1 = positions[outside][:, 0]
            raise ValueError(
                "integrand not supported in the slab: |f| reaches "
                f"{fmax_out:.3e} at x1 in [{x1.min():.3g}, {x1.max():.3g}]"
            )
    dt = times[1] - times[0]
    return np.asarray(simpson(vals, dx=dt, axis=0)), fmax


@dataclass
class AdmissibilityReport:
    seeds: np.ndarray  # (M, d-1) transverse coordinates
    integrals: np.ndarray  # (M, d)
    max_abs_integral: float
    tolerance: float
    admissible: bool

    def to_csv(self) -> str:
        d = self.integrals.shape[1]
        buf = StringIO()
        seed_cols = ",".join(f"seed_y{i + 2}" for i in range(self.seeds.shape[1]))
        int_cols = ",".join(f"integral_{i + 1}" for i in range(d))
        buf.write(f"{seed_cols},{int_cols},admissible\n")
        for s, v in zip(self.seeds, self.integrals):
            row_ok = bool(np.abs(v).max() <= self.tolerance)
            buf.write(
                ",".join(f"{x:.17g}" for x in s)
                + ","
                + ",".join(f"{x:.17g}" for x in v)
                + f",{int(row_ok)}\n"
            )
        return buf.getvalue()


def check_admissible(
    b0,
    slab_halfwidth: float,
    tol: float,
    seed_grid,
    dt_ode: float = None,
    test_field=None,
) -> AdmissibilityReport:
    """Run the plane-seeded admissibility integrals for f = b0 - e1.

    b0 and test_field are callables, points (M, d) -> values (M, d). The
    tolerance is dimensional: tol scaled by sup|f| * (slab width). Pass
    test_field to audit a different integrand along the same trajectories.
    The integrand for b0 itself is interpreted through the same slab
    truncation as b0 - e1 (the drift part integrates trivially).
    """
    seeds = np.atleast_2d(np.asarray(seed_grid, dtype=float))
    dim = seeds.shape[1] + 1
    if dt_ode is None:
        dt_ode = slab_halfwidth / 128.0
    margin = 4.0 * dt_ode

    f_fn = test_field
    if f_fn is None:
        e1 = np.zeros(dim)
        e1[0] = 1.0

        def f_fn(pts):
            return b0(pts) - e1

    plane_seeds = np.zeros((seeds.shape[0], dim))
    plane_seeds[:, 1:] = seeds
    times, positions = _integrate_batch(b0, plane_seeds, dt_ode, slab_halfwidth, margin)
    npts, m, _ = positions.shape
    vals = f_fn(positions.reshape(npts * m, dim)).reshape(npts, m, dim)
    integrals, fmax = _slab_integral(vals, positions, times, slab_halfwidth)  # (M, d)
    max_abs = float(np.abs(integrals).max()) if integrals.size else 0.0
    tolerance = tol * fmax * 2.0 * slab_halfwidth
    return AdmissibilityReport(
        seeds=seeds,
        integrals=integrals,
        max_abs_integral=max_abs,
        tolerance=tolerance,
        admissible=bool(max_abs <= tolerance),
    )

"""The four benchmark workloads, built from a seed.

The seed draws only the phases of the configured modes. Wavenumbers,
amplitudes and epsilon0 stay fixed, so every seed asks the solver for the
same steps and samples; only the Picard count of strong3d moves with the
phases, by a few percent. Seed 0 keeps the phases of the acceptance-criterion
configurations verbatim; the stored reference values belong to it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from lagmhd import runner
from lagmhd.config import RunConfig
from lagmhd.initial_data import VelocityMode, default_spec, scaled_spec

DEFAULT_SEED = 0

# smallness functional of the built-in 3D profile at raw amplitude 0.05 on
# the (16, 2pi, 2pi) box, the criterion-6 data (36.40327986636332 exactly)
STRONG_EPSILON0 = 36.4

# Probe horizons: in 3D, three samples at cadence 0.25, the fewest the ledger
# checks; in 2D, 20 steps, after which the step time has settled (the first
# ~15 steps of a process run slower while the allocator warms up).
PROBE_T_END_3D = 0.5
PROBE_T_END_2D = 1.0

CRITERION7_VELOCITY = (
    VelocityMode((1, 1, 0), axis=2, amp=1.0, phase=0.3),
    VelocityMode((0, 1, 1), axis=0, amp=0.7, phase=1.1),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" -> runner.run_simulation, "compare" -> runner.compare_formulations
    config: RunConfig  # the timed call
    probe_t_end: float  # t_end of the default-seed reference probe
    call_seconds: float  # wall time of one untraced call on the reference machine
    gauge_ms: float  # median time of the host gauge on the reference machine


def host_gauge(sizes):
    """The host-speed gauge of a workload, in three parts sized like a step's
    own work: a forward and inverse numpy FFT of a fixed 3-component complex
    field on the workload's grid, 16 elementwise passes over a 3-component
    real field, and 600 numpy calls on a 3-vector, for the per-call overhead.

    The benchmark runs it after every timed step. It does not touch lagmhd,
    so a change to the program does not move it; a change of the host's
    speed does. On a large grid the array parts dominate it, on a small grid
    the calls, as they dominate the solver's steps.
    """
    rng = np.random.default_rng(0)
    spec = rng.standard_normal((3, *sizes)) + 0j
    field = rng.standard_normal((3, *sizes))
    axes = tuple(range(1, len(sizes) + 1))

    def run():
        np.fft.ifftn(np.fft.fftn(spec, axes=axes), axes=axes)
        for _ in range(16):
            out = field * field + field
            out *= 0.5
        x = np.zeros(3)
        for i in range(600):
            x = x + np.float64(i)

    return run


def _rephase(modes, rng: random.Random):
    return tuple(replace(m, phase=rng.uniform(0.0, 2.0 * math.pi)) for m in modes)


def _modes(shear_a, shear_c, velocity, seed: int):
    if seed == DEFAULT_SEED:
        return tuple(shear_a), tuple(shear_c), tuple(velocity)
    rng = random.Random(seed)
    return _rephase(shear_a, rng), _rephase(shear_c, rng), _rephase(velocity, rng)


def build(name: str, seed: int, output_dir: str = ".") -> Workload:
    """The workload's timed-call configuration for this seed."""
    if name == "slab3d":
        base = default_spec(3, 1e-4)
        a, c, v = _modes(base.shear_a, base.shear_c, base.velocity, seed)
        cfg = RunConfig(
            dimension=3,
            sizes=(32, 32, 32),
            lengths=(64.0, 2 * np.pi, 2 * np.pi),
            dt=0.05,
            t_end=1.0,
            cadence=0.25,
            epsilon0=1e-4,
            y0_modes_a=a,
            y0_modes_c=c,
            y1_modes=v,
            output_dir=output_dir,
        )
        return Workload(name, "run", cfg, PROBE_T_END_3D, call_seconds=6.0, gauge_ms=12.0)
    if name == "strong3d":
        base = scaled_spec(default_spec(3, None), 0.05)
        a, c, v = _modes(base.shear_a, base.shear_c, base.velocity, seed)
        cfg = RunConfig(
            dimension=3,
            sizes=(32, 32, 32),
            lengths=(16.0, 2 * np.pi, 2 * np.pi),
            dt=0.05,
            t_end=1.0,
            cadence=0.25,
            epsilon0=STRONG_EPSILON0,
            y0_modes_a=a,
            y0_modes_c=c,
            y1_modes=v,
            output_dir=output_dir,
        )
        return Workload(name, "run", cfg, PROBE_T_END_3D, call_seconds=8.2, gauge_ms=12.0)
    if name == "plane2d":
        base = default_spec(2, 1e-4)
        a, c, v = _modes(base.shear_a, base.shear_c, base.velocity, seed)
        cfg = RunConfig(
            dimension=2,
            sizes=(128, 128),
            lengths=(64.0, 2 * np.pi),
            dt=0.05,
            t_end=5.0,
            cadence=0.05,
            epsilon0=1e-4,
            y0_modes_a=a,
            y0_modes_c=c,
            y1_modes=v,
            output_dir=output_dir,
        )
        return Workload(name, "run", cfg, PROBE_T_END_2D, call_seconds=5.8, gauge_ms=4.2)
    if name == "compare16":
        _, _, v = _modes((), (), CRITERION7_VELOCITY, seed)
        cfg = RunConfig(
            dimension=3,
            sizes=(16, 16, 16),
            lengths=(2 * np.pi,) * 3,
            dt=0.025,
            t_end=1.0,
            cadence=0.025,
            t_compare=1.0,
            solver="both",
            epsilon0=1e-4,
            y0_modes_a=(),
            y0_modes_c=(),
            y1_modes=v,
            output_dir=output_dir,
        )
        return Workload(name, "compare", cfg, probe_t_end=1.0, call_seconds=1.9,
                        gauge_ms=2.0)
    raise ValueError(f"unknown workload {name!r}")


def probe_config(wl: Workload, output_dir: str) -> RunConfig:
    """Default-seed configuration of the reference probe."""
    cfg = build(wl.name, DEFAULT_SEED, output_dir).config
    if wl.kind == "compare":
        return cfg
    return replace(cfg, t_end=wl.probe_t_end)


def invoke(wl: Workload, cfg: RunConfig):
    """One call of the workload's entry point; returns its report."""
    if wl.kind == "compare":
        return runner.compare_formulations(cfg)
    return runner.run_simulation(cfg)

"""Run configuration: key=value text format with strict validation."""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigError
from .initial_data import InitialDataSpec, ShearMode, VelocityMode, default_spec

SOLVERS = ("lagrangian", "eulerian", "both")


@dataclass
class RunConfig:
    dimension: int
    sizes: tuple
    lengths: tuple = None  # default 2*pi per axis
    dt: float = 0.05
    t_end: float = 1.0
    cadence: float = None  # sample interval; default snaps 0.25 to a dt multiple
    solver: str = "lagrangian"
    epsilon0: float = 1e-4
    pressure_tol: float = 1e-10
    pressure_max_iter: int = 50
    y0_modes_a: tuple = None  # None -> built-in profile
    y0_modes_c: tuple = None
    y1_modes: tuple = None
    checkpoint_in: str = ""
    output_dir: str = "."
    t_compare: float = 1.0

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {self.dimension}")
        self.sizes = tuple(int(n) for n in self.sizes)
        if len(self.sizes) != self.dimension:
            raise ConfigError("sizes must list one entry per dimension")
        for n in self.sizes:
            if n < 4 or (n & (n - 1)) != 0:
                raise ConfigError(f"grid size {n} must be a power of two >= 4")
        if self.lengths is None:
            self.lengths = (2.0 * np.pi,) * self.dimension
        self.lengths = tuple(float(x) for x in self.lengths)
        if len(self.lengths) != self.dimension:
            raise ConfigError("lengths must list one entry per dimension")
        if not all(0 < x < np.inf for x in self.lengths):  # nan fails too
            raise ConfigError("lengths must be positive and finite")
        for key in ("dt", "t_end", "cadence", "epsilon0", "t_compare"):
            value = getattr(self, key)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_end >= self.dt:
            raise ConfigError("t_end must be at least dt")
        if self.cadence is None:
            self.cadence = self.dt * max(1, round(0.25 / self.dt))
        ratio = self.cadence / self.dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"cadence {self.cadence} must be a positive multiple of dt {self.dt}"
            )
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver must be one of {SOLVERS}")
        if not self.epsilon0 > 0:
            raise ConfigError("epsilon0 must be positive")
        if not self.pressure_tol > 0 or self.pressure_max_iter < 1:
            raise ConfigError("pressure_tol must be > 0 and pressure_max_iter >= 1")

    def initial_data_spec(self) -> InitialDataSpec:
        base = default_spec(self.dimension, self.epsilon0)
        shear_a = base.shear_a if self.y0_modes_a is None else self.y0_modes_a
        shear_c = base.shear_c if self.y0_modes_c is None else self.y0_modes_c
        velocity = base.velocity if self.y1_modes is None else self.y1_modes
        return InitialDataSpec(
            shear_a=tuple(shear_a),
            shear_c=tuple(shear_c),
            velocity=tuple(velocity),
            epsilon0=self.epsilon0,
        )


_REQUIRED = ("dimension", "sizes", "dt", "t_end")


def _tuple_of(kind):
    """Parser of a comma-separated tuple of kind."""
    return lambda text: tuple(kind(b) for b in text.split(",") if b.strip())


# Every key, in RunConfig field order: the parser of its text, or the mode
# type of a mode list.
KEYS = {
    "dimension": int,
    "sizes": _tuple_of(int),
    "lengths": _tuple_of(float),
    "dt": float,
    "t_end": float,
    "cadence": float,
    "solver": str,
    "epsilon0": float,
    "pressure_tol": float,
    "pressure_max_iter": int,
    "y0_modes_a": ShearMode,
    "y0_modes_c": ShearMode,
    "y1_modes": VelocityMode,
    "checkpoint_in": str,
    "output_dir": str,
    "t_compare": float,
}
_MODES = (ShearMode, VelocityMode)


def _parse_modes(mode, value: str, line: int, dim: int):
    """';'-separated modes: the indices n (d - 1 for a shear mode, d for a
    velocity mode), a velocity mode's axis, then amp and phase."""
    has_axis = mode is VelocityMode
    nn = dim - 1 + has_axis
    what = "velocity" if has_axis else "shear"
    modes = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = [b.strip() for b in part.split(",")]
        if len(bits) != nn + has_axis + 2:
            needs = f"{nn} indices{', axis' * has_axis}, amp, phase"
            raise ConfigError(f"{what} mode '{part}' needs {needs}", line)
        try:
            ints = tuple(int(b) for b in bits[: nn + has_axis])
            amp, phase = float(bits[-2]), float(bits[-1])
        except ValueError as exc:
            raise ConfigError(f"malformed {what} mode '{part}': {exc}", line) from exc
        modes.append(mode(ints[:nn], *ints[nn:], amp, phase))
    return tuple(modes)


def parse_config(text: str) -> RunConfig:
    """Parse UTF-8 key=value lines with '#' comments into a validated RunConfig."""
    raw = {}
    raw_lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key=value, got '{stripped}'", lineno)
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"unknown key '{key}'", lineno)
        if key in raw:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        raw[key] = value
        raw_lines[key] = lineno
    for req in _REQUIRED:
        if req not in raw:
            raise ConfigError(f"missing required key '{req}'")

    kwargs = {}
    try:
        dim = int(raw["dimension"])
    except ValueError as exc:
        raise ConfigError("dimension must be an integer", raw_lines["dimension"]) from exc
    for key, value in raw.items():
        line = raw_lines[key]
        parse = KEYS[key]
        try:
            if parse in _MODES:
                kwargs[key] = _parse_modes(parse, value, line, dim)
            else:
                kwargs[key] = parse(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"malformed value for '{key}': {exc}", line) from exc
    try:
        return RunConfig(**kwargs)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _format(value) -> str:
    """.17g for a float, comma-joined entries for a tuple."""
    if isinstance(value, tuple):
        return ",".join(_format(x) for x in value)
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def dump_config(config: RunConfig) -> str:
    """Serialize a config so that parse_config(dump_config(c)) round-trips.

    A mode is n, then a velocity mode's axis, then amp and phase; modes are
    joined by "; ". Keys left None and an empty checkpoint_in are omitted.
    """
    out = []
    for key, parse in KEYS.items():
        value = getattr(config, key)
        if value is None or (key == "checkpoint_in" and not value):
            continue
        if parse in _MODES:
            text = "; ".join(_format(m.n + astuple(m)[1:]) for m in value)
        else:
            text = _format(value)
        out.append(f"{key} = {text}")
    return "\n".join(out) + "\n"

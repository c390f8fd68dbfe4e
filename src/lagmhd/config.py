"""Run configuration: key=value text format with strict validation."""

from __future__ import annotations

from dataclasses import dataclass

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
    fit_window: tuple = (5.0, 50.0)

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
        if len(self.fit_window) != 2 or not self.fit_window[1] > self.fit_window[0]:
            raise ConfigError("fit_window must be an increasing pair")

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

_INT_KEYS = {"dimension", "pressure_max_iter"}
_FLOAT_KEYS = {
    "dt",
    "t_end",
    "cadence",
    "epsilon0",
    "pressure_tol",
    "t_compare",
}
_STR_KEYS = {"solver", "checkpoint_in", "output_dir"}
_TUPLE_FLOAT_KEYS = {"lengths", "fit_window"}
_TUPLE_INT_KEYS = {"sizes"}
_MODE_KEYS = {"y0_modes_a", "y0_modes_c", "y1_modes"}

KNOWN_KEYS = (
    _INT_KEYS
    | _FLOAT_KEYS
    | _STR_KEYS
    | _TUPLE_FLOAT_KEYS
    | _TUPLE_INT_KEYS
    | _MODE_KEYS
)


def _parse_shear_modes(value: str, line: int, dim: int):
    modes = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = [b.strip() for b in part.split(",")]
        nn = dim - 1  # profile indices per shear mode
        if len(bits) != nn + 2:
            raise ConfigError(
                f"shear mode '{part}' needs {nn} indices, amp, phase", line
            )
        try:
            n = tuple(int(b) for b in bits[:nn])
            amp, phase = float(bits[nn]), float(bits[nn + 1])
        except ValueError as exc:
            raise ConfigError(f"malformed shear mode '{part}': {exc}", line) from exc
        modes.append(ShearMode(n, amp, phase))
    return tuple(modes)


def _parse_velocity_modes(value: str, line: int, dim: int):
    modes = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = [b.strip() for b in part.split(",")]
        if len(bits) != dim + 3:
            raise ConfigError(
                f"velocity mode '{part}' needs {dim} indices, axis, amp, phase", line
            )
        try:
            n = tuple(int(b) for b in bits[:dim])
            axis = int(bits[dim])
            amp, phase = float(bits[dim + 1]), float(bits[dim + 2])
        except ValueError as exc:
            raise ConfigError(f"malformed velocity mode '{part}': {exc}", line) from exc
        modes.append(VelocityMode(n, axis, amp, phase))
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
        if key not in KNOWN_KEYS:
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
        try:
            if key in _INT_KEYS:
                kwargs[key] = int(value)
            elif key in _FLOAT_KEYS:
                kwargs[key] = float(value)
            elif key in _STR_KEYS:
                kwargs[key] = value
            elif key in _TUPLE_INT_KEYS:
                kwargs[key] = tuple(int(b) for b in value.split(",") if b.strip())
            elif key in _TUPLE_FLOAT_KEYS:
                kwargs[key] = tuple(float(b) for b in value.split(",") if b.strip())
            elif key == "y1_modes":
                kwargs[key] = _parse_velocity_modes(value, line, dim)
            elif key in _MODE_KEYS:
                kwargs[key] = _parse_shear_modes(value, line, dim)
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


def _dump_mode(mode) -> str:
    """n, then the axis of a VelocityMode, then amp and phase, comma-separated."""
    n = ",".join(str(i) for i in mode.n)
    axis = f",{mode.axis}" if isinstance(mode, VelocityMode) else ""
    return f"{n}{axis},{mode.amp:.17g},{mode.phase:.17g}"


def dump_config(config: RunConfig) -> str:
    """Serialize a config so that parse_config(dump_config(c)) round-trips."""
    out = []
    out.append(f"dimension = {config.dimension}")
    out.append("sizes = " + ",".join(str(n) for n in config.sizes))
    out.append("lengths = " + ",".join(f"{x:.17g}" for x in config.lengths))
    out.append(f"dt = {config.dt:.17g}")
    out.append(f"t_end = {config.t_end:.17g}")
    out.append(f"cadence = {config.cadence:.17g}")
    out.append(f"solver = {config.solver}")
    out.append(f"epsilon0 = {config.epsilon0:.17g}")
    out.append(f"pressure_tol = {config.pressure_tol:.17g}")
    out.append(f"pressure_max_iter = {config.pressure_max_iter}")
    for key in ("y0_modes_a", "y0_modes_c", "y1_modes"):
        modes = getattr(config, key)
        if modes is not None:
            out.append(f"{key} = " + "; ".join(_dump_mode(m) for m in modes))
    if config.checkpoint_in:
        out.append(f"checkpoint_in = {config.checkpoint_in}")
    out.append(f"output_dir = {config.output_dir}")
    out.append(f"t_compare = {config.t_compare:.17g}")
    out.append(
        "fit_window = " + ",".join(f"{x:.17g}" for x in config.fit_window)
    )
    return "\n".join(out) + "\n"

import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from lagmhd.checkpoint import read_checkpoint, write_checkpoint
from lagmhd.config import (
    KEYS,
    SOLVERS,
    UNREAD,
    RunConfig,
    dump_config,
    parse_config,
    read_keys,
)
from lagmhd.errors import CheckpointFormatError, ConfigError
from lagmhd.evolution import EulerState
from lagmhd.geometry import FlowState
from lagmhd.grid import Grid
from lagmhd.initial_data import VelocityMode, default_spec, scaled_spec

from conftest import random_band_limited, same_bits, wide_irfft, widen


MINIMAL = """
# minimal configuration
dimension = 3
sizes = 16,16,16
dt = 0.05
t_end = 1.0
"""


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.lengths == (2 * np.pi,) * 3
    assert cfg.solver == "lagrangian"
    assert cfg.epsilon0 == 1e-4
    assert cfg.cadence == pytest.approx(0.25)


def test_negative_dt_rejected_with_key_name():
    with pytest.raises(ConfigError, match="dt"):
        parse_config(MINIMAL.replace("dt = 0.05", "dt = -0.1"))


def test_unknown_key_reports_line_number():
    text = MINIMAL + "wibble = 3\n"
    with pytest.raises(ConfigError, match="line 7"):
        parse_config(text)


def test_malformed_number_reports_line():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(MINIMAL.replace("0.05", "zero.05"))


def test_duplicate_and_missing_keys():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "dt = 0.1\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("dimension = 3\nsizes = 16,16,16\ndt = 0.05\n")


def test_cadence_must_align_with_dt():
    with pytest.raises(ConfigError, match="cadence"):
        parse_config(MINIMAL + "cadence = 0.13\n")


def test_sizes_power_of_two():
    with pytest.raises(ConfigError, match="power of two"):
        parse_config(MINIMAL.replace("16,16,16", "12,16,16"))


def test_dump_parse_round_trip():
    text = (
        MINIMAL
        + "lengths = 64,6.283185307179586,6.283185307179586\n"
        + "cadence = 0.25\nsolver = lagrangian\nepsilon0 = 2e-4\n"
        + "y0_modes_a = 1,1,0.5,0.1; 2,-1,0.25,1.0\n"
        + "y0_modes_c = 1,1,0.2,0.3\n"
        + "y1_modes = 0,1,0,2,1.0,0.2; 1,1,0,2,0.3,2.1\n"
    )
    cfg = parse_config(text)
    dumped = dump_config(cfg)
    cfg2 = parse_config(dumped)
    assert dump_config(cfg2) == dumped
    assert cfg2 == cfg


def test_config_table_lists_every_field_in_order():
    # a RunConfig field without a parser in the table fails here; t_compare
    # is a field but no key
    assert list(KEYS) == [f.name for f in fields(RunConfig) if f.name != "t_compare"]


def test_t_compare_must_equal_t_end():
    assert RunConfig(dimension=3, sizes=(8, 8, 8), t_end=0.5, t_compare=0.5).t_compare == 0.5
    with pytest.raises(ConfigError, match="t_compare"):
        RunConfig(dimension=3, sizes=(8, 8, 8), t_end=0.5, t_compare=1.0)


def _unread_at_defaults(cfg):
    """cfg with every field that its run does not read at its default."""
    reads = read_keys(cfg)
    return replace(
        cfg, **{f.name: f.default for f in fields(RunConfig) if f.name not in reads}
    )


# every key set away from its default
FULL = RunConfig(
    dimension=3, sizes=(16, 16, 32), lengths=(64.0, 2 * np.pi, 2 * np.pi), dt=0.05,
    t_end=0.5, cadence=0.1, epsilon0=2e-4,
    y0_modes_a=default_spec(3, 1e-4).shear_a, y0_modes_c=(),
    y1_modes=(VelocityMode((0, 1, 0), axis=2, amp=1.0, phase=0.2),),
    checkpoint_in="first/state_final.ckpt", output_dir="out",
)
# each key's line in a dump of FULL
FULL_LINES = {
    line.split(" = ", 1)[0]: line
    for cfg in (FULL, replace(FULL, checkpoint_in=""))
    for line in dump_config(cfg).splitlines()
}


@pytest.mark.parametrize("resumed", [False, True], ids=["data", "resumed"])
@pytest.mark.parametrize("solver", SOLVERS)
def test_a_full_config_of_each_solver_round_trips(solver, resumed):
    cfg = replace(FULL, solver=solver, checkpoint_in=FULL.checkpoint_in * resumed)
    cfg = _unread_at_defaults(cfg)
    text = dump_config(cfg)
    keys = [k for k in read_keys(cfg) if k != "checkpoint_in" or resumed]
    assert [line.split(" = ")[0] for line in text.splitlines()] == keys
    assert parse_config(text) == cfg


NOT_READ = [(solver, False, key) for solver in SOLVERS for key in UNREAD[solver]]
NOT_READ += [
    (solver, True, key) for solver in ("lagrangian", "eulerian")
    for key in KEYS
    if key not in read_keys(replace(FULL, solver=solver)) + UNREAD[solver]
]


@pytest.mark.parametrize(
    "solver, resumed, key", NOT_READ,
    ids=[f"{s}{'-resumed' * r}-{k}" for s, r, k in NOT_READ],
)
def test_a_key_the_solver_does_not_read_is_an_error(solver, resumed, key):
    cfg = _unread_at_defaults(
        replace(FULL, solver=solver, checkpoint_in=FULL.checkpoint_in * resumed)
    )
    text = dump_config(cfg)
    parse_config(text)
    who = "a resumed run" if resumed else f"solver {solver}"
    with pytest.raises(ConfigError, match=f"{who} does not read '{key}'"):
        parse_config(text + FULL_LINES[key] + "\n")


def _modes(spec):
    return dict(y0_modes_a=spec.shear_a, y0_modes_c=spec.shear_c, y1_modes=spec.velocity)


TWO_PI = 2 * np.pi
WORKLOAD_CONFIGS = {
    "slab3d": RunConfig(
        dimension=3, sizes=(32, 32, 32), lengths=(64.0, TWO_PI, TWO_PI), dt=0.05,
        cadence=0.25, **_modes(default_spec(3, 1e-4)), output_dir="out",
    ),
    "strong3d": RunConfig(
        dimension=3, sizes=(32, 32, 32), lengths=(16.0, TWO_PI, TWO_PI), dt=0.05,
        cadence=0.25, epsilon0=36.4,
        **_modes(scaled_spec(default_spec(3, None), 0.05)), output_dir="out",
    ),
    "plane2d": RunConfig(
        dimension=2, sizes=(128, 128), lengths=(64.0, TWO_PI), dt=0.05, t_end=5.0,
        cadence=0.05, **_modes(default_spec(2, 1e-4)), output_dir="out",
    ),
    "compare16": RunConfig(
        dimension=3, sizes=(16, 16, 16), dt=0.025, cadence=0.025, solver="both",
        y0_modes_a=(), y0_modes_c=(),
        y1_modes=(
            VelocityMode((1, 1, 0), axis=2, amp=1.0, phase=0.3),
            VelocityMode((0, 1, 1), axis=0, amp=0.7, phase=1.1),
        ),
        output_dir="out",
    ),
}


@pytest.mark.parametrize(
    "key", [k for k in KEYS if k not in ("checkpoint_in", "output_dir")]
)
def test_every_data_key_takes_two_values_across_the_workloads(key):
    # a key that every workload leaves at one value is a constant of the
    # method: it belongs in the module that reads it, not in the config
    values = [getattr(cfg, key) for cfg in WORKLOAD_CONFIGS.values()]
    assert any(v != values[0] for v in values[1:])


@pytest.mark.parametrize("checkpoint_in", ["", "first/state_final.ckpt"])
@pytest.mark.parametrize("name", list(WORKLOAD_CONFIGS))
def test_workload_configs_round_trip(name, checkpoint_in):
    # the dump holds the keys the run reads; the others come back as defaults
    cfg = replace(WORKLOAD_CONFIGS[name], checkpoint_in=checkpoint_in)
    text = dump_config(cfg)
    back = parse_config(text)
    assert dump_config(back) == text
    assert back == _unread_at_defaults(cfg)  # empty mode lists come back as (), not as None
    assert ("checkpoint_in" in text) == bool(back.checkpoint_in)


@pytest.mark.parametrize(
    "key",
    [
        "seed", "script_e_cap", "dealias", "fit_window", "t_compare", "pressure_tol",
        "pressure_max_iter",
    ],
)
def test_removed_keys_are_unknown(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(MINIMAL + f"{key} = 3\n")


def test_mode_parsing_validation():
    with pytest.raises(ConfigError, match="shear mode"):
        parse_config(MINIMAL + "y0_modes_a = 1,0.5\n")
    with pytest.raises(ConfigError, match="velocity mode"):
        parse_config(MINIMAL + "y1_modes = 1,1,0,2,1.0\n")


# -- checkpoints -----------------------------------------------------------------


def test_flow_checkpoint_round_trip(tmp_path, grid3, rng):
    state = FlowState(
        grid3,
        random_band_limited(grid3, rng, rank=1).band,
        random_band_limited(grid3, rng, rank=1).band,
        t=2.25,
    )
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, state)
    # the file holds the samples of the bands, and reading takes their rfft
    back = read_checkpoint(path)
    assert isinstance(back, FlowState)
    assert back.t == state.t
    assert np.array_equal(back.Y, grid3.rfft(grid3.irfft(state.Y)))
    assert np.array_equal(back.Yt, grid3.rfft(grid3.irfft(state.Yt)))
    assert back.grid == grid3


@pytest.mark.parametrize(
    "sizes", [(16, 8, 32), (32, 16), (16, 128)], ids=["3D", "2D", "2D-128"]
)
@pytest.mark.parametrize("kind", [FlowState, EulerState], ids=["flow", "euler"])
def test_a_checkpoint_holds_the_samples_of_the_wide_reference(
    tmp_path, sizes, kind, rng
):
    # the payload of a state of kept modes only is, bit for bit, the real
    # samples of its bands laid out wide, zeros in the dropped blocks,
    # through every leading pass on every line
    grid = Grid(sizes, (2 * np.pi,) * len(sizes))
    shape = (grid.dim,) + grid.shape
    bands = [grid.rfft(rng.standard_normal(shape)) for _ in range(2)]
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, kind(grid, *bands, 0.5))
    blob = path.read_bytes()
    header = 12 + 12 * grid.dim + 12
    payload = np.frombuffer(blob, dtype="<f8", offset=header).reshape((-1,) + grid.shape)
    assert payload.shape[0] == 2 * grid.dim + (kind is EulerState)
    for band, samples in zip(bands, payload[: 2 * grid.dim].reshape((2,) + shape)):
        assert same_bits(samples.astype(float), wide_irfft(grid, widen(grid, band)))


def test_euler_checkpoint_round_trip(tmp_path, grid2, rng):
    u = random_band_limited(grid2, rng, rank=1)
    b = random_band_limited(grid2, rng, rank=1)
    state = EulerState(grid2, u.band, b.band, 0.5)
    path = tmp_path / "euler.ckpt"
    write_checkpoint(path, state)
    back = read_checkpoint(path)
    assert isinstance(back, EulerState)
    assert back.t == state.t
    assert np.array_equal(back.u, grid2.rfft(grid2.irfft(state.u)))
    assert np.array_equal(back.b, grid2.rfft(grid2.irfft(state.b)))
    # the scalar block after u and b is written as zeros
    tail = path.read_bytes()[-u.values[0].nbytes :]
    assert tail == bytes(len(tail))


def test_euler_checkpoint_with_a_stored_pressure_loads(tmp_path, grid2, rng):
    # files of earlier versions hold a diagnostic pressure in the last
    # block; it is skipped, and u and b load bit for bit
    state = EulerState(
        grid2,
        random_band_limited(grid2, rng, rank=1).band,
        random_band_limited(grid2, rng, rank=1).band,
        0.75,
    )
    path = tmp_path / "euler.ckpt"
    write_checkpoint(path, state)
    blob = bytearray(path.read_bytes())
    p = random_band_limited(grid2, rng, rank=0)
    blob[-p.nbytes :] = np.ascontiguousarray(p, dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    back = read_checkpoint(path)
    assert isinstance(back, EulerState)
    assert back.t == state.t
    assert np.array_equal(back.u, grid2.rfft(grid2.irfft(state.u)))
    assert np.array_equal(back.b, grid2.rfft(grid2.irfft(state.b)))


def test_checkpoint_bytes_are_deterministic(tmp_path, grid3, rng):
    state = FlowState(
        grid3,
        random_band_limited(grid3, rng, rank=1).band,
        random_band_limited(grid3, rng, rank=1).band,
        t=1.0,
    )
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    write_checkpoint(p1, state)
    write_checkpoint(p2, state)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_checkpoint_rejected(tmp_path, grid3, rng):
    state = FlowState(
        grid3,
        random_band_limited(grid3, rng, rank=1).band,
        random_band_limited(grid3, rng, rank=1).band,
    )
    path = tmp_path / "t.ckpt"
    write_checkpoint(path, state)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(CheckpointFormatError, match="length"):
        read_checkpoint(path)


def test_bad_magic_and_version(tmp_path, grid3):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError, match="magic"):
        read_checkpoint(path)
    state = FlowState.zeros(grid3)
    good = tmp_path / "good.ckpt"
    write_checkpoint(good, state)
    blob = bytearray(good.read_bytes())
    blob[4] = 99  # version field
    bad = tmp_path / "vers.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="version"):
        read_checkpoint(bad)


@pytest.mark.parametrize(
    "fmt, offset, value",
    [
        ("<I", 12, 6),
        ("<I", 12, 0),
        ("<d", 24, -1.0),
        ("<d", 24, np.inf),
        ("<d", 48, np.nan),
        ("<d", 48, np.inf),
    ],
    ids=["size-6", "size-0", "length-negative", "length-inf", "time-nan", "time-inf"],
)
def test_corrupt_header_raises_format_error(tmp_path, fmt, offset, value):
    # a valid 8^3 snapshot whose first size, first length or time is patched:
    # sizes start after magic, version and dimension, lengths after 3 sizes,
    # the time after 3 lengths
    good = tmp_path / "good.ckpt"
    write_checkpoint(good, FlowState.zeros(Grid((8, 8, 8), (2 * np.pi,) * 3)))
    blob = bytearray(good.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError):
        read_checkpoint(bad)

"""Binary field snapshots for exact restart.

Layout (little endian): magic b"MHDL", version u32, dimension u32,
sizes u32 per axis, lengths f64 per axis, time f64, solver tag u32
(0 = lagrangian, 1 = eulerian), then raw f64 field data in axis-major
(C) order: Y then Yt for the Lagrangian form, u, b, p for the Eulerian one.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CheckpointFormatError
from .evolution import EulerState
from .fields import ScalarField, VectorField
from .geometry import FlowState
from .grid import Grid

MAGIC = b"MHDL"
VERSION = 1
_TAGS = {"lagrangian": 0, "eulerian": 1}
_TAG_NAMES = {v: k for k, v in _TAGS.items()}


def write_checkpoint(path, state) -> None:
    if isinstance(state, FlowState):
        tag = _TAGS["lagrangian"]
        arrays = [state.Y.values, state.Yt.values]
    elif isinstance(state, EulerState):
        tag = _TAGS["eulerian"]
        p = state.p.values if state.p is not None else np.zeros(state.grid.shape)
        arrays = [state.u.values, state.b.values, p]
    else:
        raise TypeError("checkpoint expects a FlowState or EulerState")
    grid = state.grid
    dim = grid.dim
    header = MAGIC + struct.pack("<II", VERSION, dim)
    header += struct.pack(f"<{dim}I", *grid.sizes)
    header += struct.pack(f"<{dim}d", *grid.lengths)
    header += struct.pack("<dI", float(state.t), tag)
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path):
    """Read a snapshot; returns a FlowState or EulerState on a fresh grid."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise CheckpointFormatError("bad magic; not a field snapshot")
    version, dim = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported snapshot version {version}")
    if dim not in (2, 3):
        raise CheckpointFormatError(f"bad dimension {dim}")
    off = 12
    need = dim * 4 + dim * 8 + 8 + 4
    if len(blob) < off + need:
        raise CheckpointFormatError("truncated header")
    sizes = struct.unpack_from(f"<{dim}I", blob, off)
    off += dim * 4
    lengths = struct.unpack_from(f"<{dim}d", blob, off)
    off += dim * 8
    t, tag = struct.unpack_from("<dI", blob, off)
    off += 12
    if tag not in _TAG_NAMES:
        raise CheckpointFormatError(f"unknown solver tag {tag}")
    # the payload is checked before a grid is built, so a header that
    # claims a huge grid allocates nothing
    npoints = math.prod(sizes)
    nfields = 2 * dim if tag == 0 else 2 * dim + 1
    expected = off + nfields * npoints * 8
    if len(blob) != expected:
        raise CheckpointFormatError(
            f"payload length {len(blob) - off} bytes, expected {expected - off}"
        )
    try:
        grid = Grid(sizes, lengths)
    except ValueError as exc:
        raise CheckpointFormatError(f"bad grid in header: {exc}") from exc
    data = np.frombuffer(blob, dtype="<f8", offset=off).astype(float)
    shape = (dim,) + grid.shape
    if tag == 0:
        y = data[: dim * npoints].reshape(shape)
        yt = data[dim * npoints :].reshape(shape)
        return FlowState(
            VectorField.from_values(grid, y), VectorField.from_values(grid, yt), t
        )
    u = data[: dim * npoints].reshape(shape)
    b = data[dim * npoints : 2 * dim * npoints].reshape(shape)
    p = data[2 * dim * npoints :].reshape(grid.shape)
    return EulerState(
        VectorField.from_values(grid, u),
        VectorField.from_values(grid, b),
        t,
        p=ScalarField.from_values(grid, p),
    )

"""Binary field snapshots for restart.

Layout (little endian): magic b"MHDL", version u32, dimension u32,
sizes u32 per axis, lengths f64 per axis, time f64, solver tag u32
(0 = lagrangian, 1 = eulerian), then raw f64 field data in axis-major
(C) order: Y then Yt for the Lagrangian form, u then b for the Eulerian
one. The data are the real samples of the state's bands, ``Grid.irfft``
of each, and reading them back takes their ``Grid.rfft``: that moves a
band's modes by round-off, up to 2e-16 relative, so a restart is not bit
for bit (ROADMAP item 2). An Eulerian file
ends in one more scalar block, where earlier versions of the program
stored a diagnostic pressure: it is written as zeros and never read, so
those files load too.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CheckpointFormatError
from .evolution import EulerState
from .geometry import FlowState
from .grid import Grid

MAGIC = b"MHDL"
VERSION = 1


def write_checkpoint(path, state) -> None:
    if isinstance(state, FlowState):
        tag, bands = 0, [state.Y, state.Yt]
    elif isinstance(state, EulerState):
        tag, bands = 1, [state.u, state.b]
    else:
        raise TypeError("checkpoint expects a FlowState or EulerState")
    grid = state.grid
    arrays = [grid.irfft(band) for band in bands]
    if tag == 1:
        arrays.append(np.zeros(grid.shape))
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
    if tag not in (0, 1):
        raise CheckpointFormatError(f"unknown solver tag {tag}")
    if not math.isfinite(t):
        raise CheckpointFormatError(f"non-finite time {t} in header")
    # the payload is checked before a grid is built, so a header that
    # claims a huge grid allocates nothing
    npoints = math.prod(sizes)
    expected = off + (2 * dim + tag) * npoints * 8
    if len(blob) != expected:
        raise CheckpointFormatError(
            f"payload length {len(blob) - off} bytes, expected {expected - off}"
        )
    try:
        grid = Grid(sizes, lengths)
    except ValueError as exc:
        raise CheckpointFormatError(f"bad grid in header: {exc}") from exc
    # (Y, Yt) or (u, b); an Eulerian file's last block is not read
    data = np.frombuffer(blob, dtype="<f8", count=2 * dim * npoints, offset=off)
    pair = data.astype(float).reshape((2, dim) + grid.shape)
    return (FlowState, EulerState)[tag](grid, *(grid.rfft(v) for v in pair), t)

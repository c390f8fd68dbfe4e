"""Binary field snapshots for restart.

Layout (little endian): magic b"MHDL", version u32 (2), dimension u32,
sizes u32 per axis, lengths f64 per axis, time f64, solver tag u32
(0 = lagrangian, 1 = eulerian), then the state's bands, each (d,
*band_shape) complex128 in C order: Y then Yt, or u then b. A read gives
back every bit written; a file of another version is refused. A snapshot
is written next to its path and moved onto it, so an interrupted write
leaves the earlier file as it was.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import CheckpointFormatError
from .evolution import EulerState
from .geometry import FlowState
from .grid import Grid, band_shape_of

MAGIC = b"MHDL"
VERSION = 2


@contextmanager
def replaced(path, mode="wb"):
    """A file opened at path + ".tmp" and moved onto path by os.replace when
    the block ends. When the block or the move fails, the temporary file
    goes and path keeps what it held: a write is never seen half done."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_checkpoint(path, state) -> None:
    if isinstance(state, FlowState):
        tag, bands = 0, [state.Y, state.Yt]
    elif isinstance(state, EulerState):
        tag, bands = 1, [state.u, state.b]
    else:
        raise TypeError("checkpoint expects a FlowState or EulerState")
    grid = state.grid
    dim = grid.dim  # "<" packs without padding: the fields follow one another
    header = MAGIC + struct.pack(
        f"<II{dim}I{dim}ddI", VERSION, dim, *grid.sizes, *grid.lengths, float(state.t), tag
    )
    with replaced(path) as fh:
        fh.write(header)
        for band in bands:
            fh.write(np.ascontiguousarray(band, dtype="<c16"))


def read_header(fh):
    """(sizes, lengths, t, state class) of the snapshot open as fh, read
    from its header alone: the solver tag names the class, FlowState or
    EulerState. fh is left at the payload."""
    blob = fh.read(12)
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise CheckpointFormatError("bad magic; not a field snapshot")
    version, dim = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported snapshot version {version}")
    if dim not in (2, 3):
        raise CheckpointFormatError(f"bad dimension {dim}")
    need = dim * 4 + dim * 8 + 8 + 4
    blob = fh.read(need)
    if len(blob) < need:
        raise CheckpointFormatError("truncated header")
    fields = struct.unpack(f"<{dim}I{dim}ddI", blob)
    sizes, lengths, (t, tag) = fields[:dim], fields[dim:-2], fields[-2:]
    if tag not in (0, 1):
        raise CheckpointFormatError(f"unknown solver tag {tag}")
    if not math.isfinite(t):
        raise CheckpointFormatError(f"non-finite time {t} in header")
    return sizes, lengths, t, (FlowState, EulerState)[tag]


def read_checkpoint(path):
    """Read a snapshot; returns a FlowState or EulerState on a fresh grid."""
    with open(path, "rb") as fh:
        sizes, lengths, t, kind = read_header(fh)
        payload = fh.read()
    # the payload is checked before a grid is built, so a header that
    # claims a huge grid allocates nothing
    dim, band_shape = len(sizes), band_shape_of(sizes)
    expected = 2 * dim * math.prod(band_shape) * 16
    if len(payload) != expected:
        raise CheckpointFormatError(f"payload length {len(payload)} bytes, expected {expected}")
    try:
        grid = Grid(sizes, lengths)
    except ValueError as exc:
        raise CheckpointFormatError(f"bad grid in header: {exc}") from exc
    pair = np.frombuffer(payload, dtype="<c16").reshape((2, dim) + band_shape)
    return kind(grid, *pair.astype(complex), t)  # (Y, Yt) or (u, b)

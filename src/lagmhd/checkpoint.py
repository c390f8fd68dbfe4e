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
those files load too. A snapshot is written next to its path and moved
onto it, so an interrupted write leaves the earlier file as it was.
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
from .grid import Grid

MAGIC = b"MHDL"
VERSION = 1


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
    arrays = [grid.irfft(band) for band in bands]
    if tag == 1:
        arrays.append(np.zeros(grid.shape))
    dim = grid.dim  # "<" packs without padding: the fields follow one another
    header = MAGIC + struct.pack(
        f"<II{dim}I{dim}ddI", VERSION, dim, *grid.sizes, *grid.lengths, float(state.t), tag
    )
    with replaced(path) as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_header(fh):
    """(sizes, lengths, t, solver tag) of the snapshot open as fh, read from
    its header alone; fh is left at the payload."""
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
    return sizes, lengths, t, tag


def read_checkpoint(path):
    """Read a snapshot; returns a FlowState or EulerState on a fresh grid."""
    with open(path, "rb") as fh:
        sizes, lengths, t, tag = read_header(fh)
        payload = fh.read()
    # the payload is checked before a grid is built, so a header that
    # claims a huge grid allocates nothing
    dim, npoints = len(sizes), math.prod(sizes)
    expected = (2 * dim + tag) * npoints * 8
    if len(payload) != expected:
        raise CheckpointFormatError(f"payload length {len(payload)} bytes, expected {expected}")
    try:
        grid = Grid(sizes, lengths)
    except ValueError as exc:
        raise CheckpointFormatError(f"bad grid in header: {exc}") from exc
    # (Y, Yt) or (u, b); an Eulerian file's last block is not read
    data = np.frombuffer(payload, dtype="<f8", count=2 * dim * npoints)
    pair = data.astype(float).reshape((2, dim) + grid.shape)
    return (FlowState, EulerState)[tag](grid, *(grid.rfft(v) for v in pair), t)

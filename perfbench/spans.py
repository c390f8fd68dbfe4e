"""In-memory span recording around the public names of lagmhd.

Spans are recorded from the benchmark's own code: each target is a
module-level name or class attribute that lagmhd's callers look up at call
time, and installing a target rebinds it to a wrapper for the duration of a
``with`` block. Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Spans of one process: name, start, end, parent index and run id.

    Spans stay in parallel lists until ``to_json`` writes them out. ``attrs``
    holds the numbers a span counts (transforms, bytes, Picard iterations).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.runs = []
        self.attrs = {}
        self.run_id = -1
        self._stack = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def wrap(self, fn, name: str, count=None):
        """Wrapper of ``fn`` that records one span per call.

        ``count(args, result)`` returns a dict of numbers stored with the span.
        """

        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                self.attrs[idx] = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "runs": self.runs,
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }


@contextmanager
def patched(targets):
    """Rebind ``(owner, attribute, replacement)`` triples, restoring on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in starts]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, kids in enumerate(children):
        covered = 0.0
        cursor = starts[idx]
        for k in sorted(kids, key=lambda j: starts[j]):
            lo = max(starts[k], cursor)
            hi = min(ends[k], ends[idx])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(ends[idx] - starts[idx] - covered)
    return out

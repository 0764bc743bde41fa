"""In-memory span recorder and the wrappers that put spans around calls.

A span is one call into a wrapped name: its name, start, end and the span
that was open when it started (its parent).  Spans are appended to flat
arrays while the round runs and summarised once at the end.  A span's self
time is its duration minus the time its child spans cover; the program is
single-threaded, so children nest inside their parent and never overlap.
"""
from __future__ import annotations

import time
from array import array

import numpy as np


def clock() -> float:
    """System-wide monotonic clock, comparable between processes on Linux."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpanRecorder:
    """Records nested spans and plain counters for one process."""

    def __init__(self, clock=clock):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(self.clock())
        self.end.append(float("nan"))
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict]:
        a = self.arrays()
        return summarise(self.names, a["name_id"], a["parent"], a["start"], a["end"])

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarise(names, name_id, parent, start, end) -> dict[str, dict]:
    """Per name: number of calls, total time and self time of its spans."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    own = dur - covered
    out = {}
    for nid, name in enumerate(names):
        sel = name_id == nid
        out[name] = {
            "calls": int(np.count_nonzero(sel)),
            "total_s": float(np.sum(dur[sel])),
            "self_s": float(np.sum(own[sel])),
        }
    return out


def spanned(rec: SpanRecorder, fn, name: str, on_call=None, on_return=None):
    """Wrap fn so that every call records a span called name.

    on_call(args, kwargs) may return another span name for this call;
    on_return(result) is shown each result, to count what it reports.
    """
    def wrapper(*args, **kwargs):
        label = (on_call(args, kwargs) or name) if on_call else name
        idx = rec.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if on_return is not None:
            on_return(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def counted(rec: SpanRecorder, fn, name: str):
    """Wrap fn so that every call adds one to the counter called name."""
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def wrap_attr(owners, attr: str, make) -> bool:
    """Replace owner.attr by make(function) on every owner that holds it.

    The function is read from the first owner; the other owners are the
    modules that imported the same function under the same name.  Returns
    False, and changes nothing, when the first owner no longer has the
    name: a function the program has removed is reported as absent.
    """
    fn = getattr(owners[0], attr, None)
    if fn is None:
        return False
    wrapper = make(fn)
    for owner in owners:
        if getattr(owner, attr, None) is fn:
            setattr(owner, attr, wrapper)
    return True

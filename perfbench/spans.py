"""In-memory span recorder for the traced benchmark run.

`Tracer.install` wraps a function of the program by rebinding every name
that refers to it, in every loaded `dsmsched` module (a class attribute for
methods), so callers that imported the function pick up the wrapper too.
Nothing under `src/` changes.  Each call records one span (name, start,
end, parent) in flat arrays; a layer's self time is its span duration minus
the time covered by its child spans.  `restore` puts the originals back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._name = array("H")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """`fn` recording a span per call; `after(args, result)` sees returns."""
        nid = len(self.names)
        self.names.append(name)
        starts, ends, parents, names, stack = (
            self._start, self._end, self._parent, self._name, self._stack)
        counts = self.counts
        clock = time.perf_counter_ns
        errors = name + ".errors"

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            names.append(nid)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, owner: object, attr: str, name: str,
                after: Callable | None = None) -> None:
        """Replace `owner.attr` by a traced wrapper wherever it is bound.

        A class owner gets the wrapper as a method.  A module owner gets it in
        every loaded `dsmsched` module that holds the same function object.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, after)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "dsmsched" or mod_name.startswith("dsmsched.")
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for target, key in targets:
            self._undo.append((target, key, original))
            setattr(target, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    # results ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span table: name id, parent index, start and end in ns."""
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).astype(np.int64),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, per-call durations (us)."""
        spans = self.arrays()
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        parent = spans["parent"]
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child_time
        out: dict[str, dict] = {}
        for nid, name in enumerate(self.names):
            mask = spans["name"] == nid
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "dur_us": []})
            entry["calls"] += int(mask.sum())
            entry["total_s"] += float(dur[mask].sum()) / 1e9
            entry["self_s"] += float(own[mask].sum()) / 1e9
            entry["dur_us"].append(dur[mask] / 1e3)
        for entry in out.values():
            entry["dur_us"] = np.concatenate(entry["dur_us"])
        return out

    def parent_names(self, name: str) -> Counter:
        """How often each span name is the direct parent of `name` spans."""
        spans = self.arrays()
        nid = [i for i, n in enumerate(self.names) if n == name]
        mask = np.isin(spans["name"], nid)
        parents = spans["parent"][mask]
        out: Counter = Counter()
        top = parents < 0
        if top.any():
            out[None] = int(top.sum())
        ids, freq = np.unique(spans["name"][parents[~top]], return_counts=True)
        for i, f in zip(ids, freq):
            out[self.names[int(i)]] += int(f)
        return out

    def write(self, path, meta: dict) -> None:
        """Save the span table, span names, counts and `meta` as one .npz."""
        np.savez(
            path,
            names=np.array(self.names),
            counts=np.array([f"{k}={v}" for k, v in sorted(self.counts.items())]),
            meta=np.array([f"{k}={v}" for k, v in sorted(meta.items())]),
            **self.arrays(),
        )

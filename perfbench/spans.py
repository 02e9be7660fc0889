"""In-memory layer spans recorded by the benchmark's own wrappers.

A span is one call into a layer's public API: its name, start, end and
the span that was open when it began (its parent).  Spans live in flat
typed arrays, so a traced run that makes a million calls costs tens of
megabytes, and they are written out once, when the run ends.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Because a
child's interval always nests inside its parent's, this is exact for
the single-threaded programs measured here.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path


def layer_of(name: str) -> str:
    """Layer of a span name: everything before the last dot."""
    return name.rsplit(".", 1)[0] if "." in name else name


class SpanRecorder:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._stack_names: list[int] = []
        #: ``owner.attr`` names that :meth:`patch` could not find.
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        """``fn`` wrapped so every call records a span named ``name``.

        A call made while a span of the same name is already innermost
        (a ``super()`` chain or a method calling its own alias) is passed
        through, so each logical call is counted once.
        """
        nid = self._id(name)
        clock = time.perf_counter
        name_ids, starts, ends, parents = (
            self.name_id, self.start, self.end, self.parent,
        )
        stack, stack_names = self._stack, self._stack_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack_names and stack_names[-1] == nid:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            stack_names.append(nid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                stack_names.pop()

        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class or module) with a wrapped version.

        A missing attribute is noted in ``missing`` rather than raised, so
        a program change that moves one call leaves that metric at 0 and
        the run says so, instead of failing the whole traced run.
        """
        current = getattr(owner, attr, None)
        if current is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(current, name))

    def patch_public_methods(self, cls, layer: str) -> None:
        """Wrap every public method defined on ``cls`` as ``layer.<method>``."""
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and callable(value):
                self.patch(cls, attr, f"{layer}.{attr}")

    # ---------------------------------------------------------- analysis
    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total, self and outer time in seconds.

        ``outer_s`` sums only spans whose parent lies in another layer,
        so summing it over a layer's names gives the wall time spent
        inside that layer without counting nested calls twice.
        """
        import numpy as np

        n, k = len(self.start), len(self.names)
        if n == 0:
            zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "outer_s": 0.0}
            return {name: dict(zero) for name in self.names}
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) - np.frombuffer(
            self.start, dtype=np.float64, count=n
        )
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        layer_ids = {layer: i for i, layer in enumerate(dict.fromkeys(map(layer_of, self.names)))}
        name_layer = np.array([layer_ids[layer_of(name)] for name in self.names])
        own_layer = name_layer[names]
        parent_layer = np.where(has_parent, own_layer[np.maximum(parent, 0)], -1)
        outer = np.where(parent_layer != own_layer, dur, 0.0)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_time = np.bincount(names, weights=dur - child_time, minlength=k)
        outer_s = np.bincount(names, weights=outer, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_time[i]),
                "outer_s": float(outer_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Persist every span as a NumPy archive (names + four columns)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.start)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, dtype=np.float64, count=n),
            end=np.frombuffer(self.end, dtype=np.float64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
        )

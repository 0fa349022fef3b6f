"""Layer spans recorded from outside the program.

The traced mode replaces public functions and methods of the program with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Spans stay in memory; :meth:`SpanLog.dump`
writes them out when the run ends.  :func:`layer_totals` turns them into
per-layer calls, busy time and self time, where self time is a span's
duration minus the time its direct child spans cover.

Nothing here is installed unless tracing is on, so untraced runs execute
the program's own functions untouched.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class SpanLog:
    """Spans in parallel lists (cheap appends) plus per-name counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._open.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += float(value)

    def reset(self) -> None:
        if self._open:
            raise RuntimeError("reset() with spans still open")
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.counts.clear()

    def ancestor_named(self, idx: int, prefix: str) -> Optional[str]:
        """Name of the nearest ancestor whose name starts with ``prefix``."""
        p = self.parents[idx]
        while p >= 0:
            if self.names[p].startswith(prefix):
                return self.names[p]
            p = self.parents[p]
        return None

    def dump(self, path) -> None:
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        doc = {
            "schema": "perfbench.spans/1",
            "names": table,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [ids[n], round(s, 7), round(e, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends,
                                      self.parents)
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class LayerTotals:
    """Per-name totals: calls, busy seconds and self seconds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)


def layer_totals(log: SpanLog) -> LayerTotals:
    """Calls, busy time and self time for every span name.

    A span nested directly inside a span of the same name (recursion) is
    not counted again in that name's busy time, so busy time never exceeds
    wall time.  Self time is duration minus the durations of direct
    children; in one thread children never overlap, so their sum is the
    time they cover.
    """
    n = len(log.names)
    dur = [log.ends[i] - log.starts[i] for i in range(n)]
    child_sum = [0.0] * n
    for i in range(n):
        p = log.parents[i]
        if p >= 0:
            child_sum[p] += dur[i]
    out = LayerTotals()
    for i in range(n):
        name = log.names[i]
        p = log.parents[i]
        out.calls[name] += 1
        out.self_time[name] += dur[i] - child_sum[i]
        if p < 0 or log.names[p] != name:
            out.busy[name] += dur[i]
    return out


Observer = Callable[[SpanLog, int, tuple, dict, object], None]


class Patches:
    """Installed wrappers, so they can be taken out again."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._undo: List[tuple] = []

    def wrap(self, owner, attr: str, name: str,
             observe: Observer | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``observe(log, span, args, kwargs, result)`` runs after the call,
        outside the span, to count work from the arguments or the result.
        """
        original = getattr(owner, attr)
        log = self.log

        @functools.wraps(original, updated=())
        def wrapper(*args, **kwargs):
            idx = log.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                log.end(idx)
            if observe is not None:
                observe(log, idx, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

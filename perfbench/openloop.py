"""Open-loop request generator for the partition server.

Requests arrive on a schedule fixed in advance, whether or not the server
has caught up, as independent users would send them.
Every request is timed from the moment it was *due*, so a stall also
charges the wait it imposes on every request due behind it; how late the
generator itself submitted each request is recorded too.

The generator runs in the server's own thread: it submits whatever is due,
then lets the server take one step, and waits (or runs the host-speed
probe) only when the server is idle and nothing is due.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ServiceOverloadError

#: Sleep until this close to the next due time, then spin: ``time.sleep``
#: overshoots by tens of microseconds, which is the size of a query.
SPIN_S = 0.001
#: The host-speed probe runs only in an idle gap at least this long (a
#: probe takes about 2.5 ms), and at most once per ``PROBE_EVERY_S``.
PROBE_GAP_S = 0.010
PROBE_EVERY_S = 0.2


@dataclass
class Arrival:
    """One scheduled request: when it is due (seconds after the start)."""

    due: float
    kind: str
    request: object


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    kind: str
    due: float
    late: float = 0.0
    #: Seconds from due time to observed completion; ``None`` while open,
    #: and for requests refused at submission.
    latency: Optional[float] = None
    refused: bool = False
    status: str = ""
    ticket: object = None


@dataclass
class LoopResult:
    outcomes: List[Outcome] = field(default_factory=list)
    #: Wall seconds from the start of the schedule until the loop ended.
    wall_s: float = 0.0


def poisson_times(rng: np.random.Generator, rate: float,
                  seconds: float) -> np.ndarray:
    """Arrival offsets on [0, seconds) of a Poisson process of ``rate``/s,
    conditioned on its expected count: ``round(rate * seconds)`` uniform
    instants, sorted.  Fixing the count keeps the offered load the same
    for every seed; the arrival pattern stays Poisson."""
    n = int(round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, n))


def paced_times(rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets on [0, seconds) at exactly ``rate``/s: one in the
    middle of each slot of length ``1/rate``."""
    return (np.arange(int(round(rate * seconds))) + 0.5) / rate


def run_open_loop(server, arrivals: List[Arrival], *,
                  probe: Optional[Callable[[], float]] = None) -> LoopResult:
    """Submit ``arrivals`` (sorted by due time) to ``server`` on schedule.

    ``server`` needs ``submit(request) -> ticket`` (raising
    :class:`ServiceOverloadError` when it refuses) and ``step() -> ticket
    or None``; tickets expose ``done`` and ``status``.  A ticket's
    completion is observed after the step that finished it, which is also
    how a user of the single-threaded server would see it.  ``probe``, if
    given, is called in idle gaps long enough not to delay any request.
    """
    clock = time.perf_counter
    res = LoopResult(outcomes=[Outcome(a.kind, a.due) for a in arrivals])
    open_: List[Outcome] = []
    start = clock()
    last_probe = start
    i = 0
    n = len(arrivals)
    while i < n or open_:
        now = clock()
        while i < n and start + arrivals[i].due <= now:
            out = res.outcomes[i]
            try:
                out.ticket = server.submit(arrivals[i].request)
            except ServiceOverloadError:
                out.refused = True
                out.status = "refused"
            out.late = clock() - (start + out.due)
            if not out.refused:
                open_.append(out)
            i += 1
        if server.step() is not None:
            done_at = clock() - start
            still = []
            for out in open_:
                if out.ticket.done:
                    out.latency = done_at - out.due
                    out.status = out.ticket.status
                else:
                    still.append(out)
            open_ = still
            continue
        if i >= n:
            break  # idle, nothing left to send: open tickets wait on drain
        wait = start + arrivals[i].due - clock()
        if (probe is not None and wait > PROBE_GAP_S
                and clock() - last_probe >= PROBE_EVERY_S):
            probe()
            last_probe = clock()
            continue
        if wait > SPIN_S:
            time.sleep(wait - SPIN_S)
        while clock() < start + arrivals[i].due:
            pass
    res.wall_s = clock() - start
    return res


def finish_open(res: LoopResult) -> None:
    """Record the status of tickets that completed after the loop (in the
    server's drain).  Their latency stays unset: drain also reconciles, so
    the moment they were committed is not observable from outside."""
    for out in res.outcomes:
        if out.ticket is not None and out.latency is None:
            out.status = out.ticket.status

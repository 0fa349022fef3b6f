"""The four workloads: cold solves on dense and on sparse graphs, the same
dense solves on the process engine, and an open-loop partition server.

Every input is generated from the workload seed.  Set-up (input
generation, runtime, pool or server construction and the server's initial
DETECTs) is repeated and its median reported, so work moved into set-up
shows.  Output checks run outside every timed region.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import layers
import measure
import openloop
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import graph_spec
from repro.dynamic.batch import random_batch
from repro.metrics.connectivity import disconnected_communities
from repro.metrics.modularity import modularity
from repro.parallel.runtime import Runtime
from repro.service.requests import DONE, QueryRequest, UpdateRequest
from repro.service.server import PartitionServer, ServiceConfig
from repro.service.store import FRESH
from spans import SpanLog

GRAPH_SETS = {
    "solve-dense": ("com-LiveJournal", "com-Orkut", "uk-2002"),
    "solve-sparse": ("europe_osm", "kmer_V1r", "kmer_A2a"),
    "solve-proc": ("com-LiveJournal", "com-Orkut", "uk-2002"),
}
SERVE_GRAPHS = ("uk-2002", "asia_osm")

PROC_WORKERS = 2
#: Small graph solved once before timing, so imports, allocator pools and
#: the worker processes are warm when the first timed round starts.
WARMUP_GRAPH = "asia_osm"
SOLVE_SETUPS = 5
SERVE_SETUPS = 5
MIN_ROUNDS = 3
#: DETECT pairs timed untraced and traced to price the wrappers on
#: ``serve-mixed``.
OVERHEAD_SAMPLES = 3

QUERY_RATE = 300.0
UPDATE_RATE = 10.0
ZIPF_A = 1.3
NEIGHBOR_QUERY_SHARE = 0.1
EDITS_PER_UPDATE = 8
#: The query tail is the median of the tails of this many equal slices of
#: the served window (``measure.windowed_tail``).
TAIL_WINDOWS = 5


@dataclass
class Run:
    """What one workload run measured, before it is printed."""

    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    log: Optional[SpanLog] = None


def _gen(names, seed: int):
    return [graph_spec(n).generator(seed) for n in names]


def partition_problems(graph, membership) -> List[str]:
    """Why ``membership`` is not a valid Leiden output of ``graph``: ids
    not compact, a community internally disconnected, or a modularity
    that an independent recomputation does not reproduce."""
    C = np.asarray(membership)
    out = []
    if C.shape[0] != graph.num_vertices:
        return [f"membership length {C.shape[0]} != {graph.num_vertices}"]
    k = int(C.max()) + 1 if C.size else 0
    if C.size and (C.min() < 0 or np.unique(C).shape[0] != k):
        out.append("community ids are not compact")
    bad = disconnected_communities(graph, C).num_disconnected
    if bad:
        out.append(f"{bad} disconnected communities")
    src, dst, w = graph.to_coo()
    two_m = float(w.sum())
    deg = np.bincount(src, weights=w, minlength=graph.num_vertices)
    tot = np.bincount(C, weights=deg, minlength=k)
    q_ref = float(w[C[src] == C[dst]].sum()) / two_m - float(
        ((tot / two_m) ** 2).sum())
    q = modularity(graph, C)
    if not abs(q - q_ref) <= 1e-9:
        out.append(f"modularity {q!r} != recomputed {q_ref!r}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    """Run workload ``name`` for about ``seconds`` and check its outputs.

    With ``trace`` the per-layer metrics are reported instead of the
    end-to-end ones, beside ``host.calib_ms``, the median host-speed probe
    of the run."""
    run = Run()
    speed = measure.HostSpeed()
    if name == "serve-mixed":
        _serve(run, speed, seed, seconds, trace)
    else:
        _solve(run, speed, name, seed, seconds, trace)
    if trace:
        run.metrics["host.calib_ms"] = speed.median_ms()
    return run


# -- solve workloads --------------------------------------------------------

def _solve(run: Run, speed: measure.HostSpeed, name: str, seed: int,
           seconds: float, trace: bool) -> None:
    names = GRAPH_SETS[name]
    proc = name == "solve-proc"
    cfg = LeidenConfig(engine="process" if proc else "batch")
    setup_s, runtimes = [], []
    for _ in range(SOLVE_SETUPS):
        p = speed.probe3()
        t0 = time.perf_counter()
        graphs = _gen(names, seed)
        if proc:
            rt = Runtime(num_threads=PROC_WORKERS, executor="process",
                         seed=cfg.seed)
            rt.procpool().run("move_scan", [])  # starts the workers
            runtimes.append(rt)
        dt = time.perf_counter() - t0
        setup_s.append(speed.scale(dt, (p + speed.probe3()) / 2))
    rt = runtimes.pop() if proc else None
    for spare in runtimes:
        spare.close()
    try:
        leiden(_gen([WARMUP_GRAPH], seed)[0], cfg, runtime=rt)
        first: List[np.ndarray] = []
        raw: List[float] = []

        def rounds(budget: float) -> List[float]:
            """Rounds for about ``budget`` seconds; their reference times."""
            totals: List[float] = []
            t_end = time.perf_counter() + budget
            while len(totals) < MIN_ROUNDS or (
                    time.perf_counter() + statistics.median(raw) <= t_end):
                # Each solve is scaled by the mean of the probes just before
                # and just after it.
                p_before = speed.probe3()
                total = ref_total = 0.0
                for i, g in enumerate(graphs):
                    t0 = time.perf_counter()
                    res = leiden(g, cfg, runtime=rt)
                    dt = time.perf_counter() - t0
                    p_after = speed.probe3()
                    total += dt
                    ref_total += speed.scale(dt, (p_before + p_after) / 2)
                    p_before = p_after
                    run.attempted += 1
                    if len(first) <= i:
                        first.append(res.membership)
                    elif not np.array_equal(res.membership, first[i]):
                        run.failed += 1
                        run.problems.append(
                            f"{names[i]}: membership differs between rounds")
                raw.append(total)
                totals.append(ref_total)
            return totals

        if trace:
            base = rounds(seconds / 3)
            log = SpanLog()
            patches = layers.install(log, sys.modules[__name__], cfg.batch_size)
            try:
                traced = rounds(seconds * 2 / 3)
            finally:
                patches.remove()
            run.log = log
            run.metrics.update(layers.per_layer(log, per=len(traced)))
            _overhead(run, base, traced)
        else:
            totals = rounds(seconds)
    finally:
        if rt is not None:
            rt.close()

    refs = None
    if proc:
        refs = [leiden(g, LeidenConfig()).membership for g in graphs]
    qs = []
    for i, g in enumerate(graphs):
        probs = partition_problems(g, first[i])
        if refs is not None and not np.array_equal(first[i], refs[i]):
            probs.append("process membership differs from batch")
        if probs:
            run.failed += 1
            run.problems += [f"{names[i]}: {p}" for p in probs]
        qs.append(modularity(g, first[i]))

    if trace:
        return
    solve_s = statistics.median(totals)
    tail = measure.tail(totals)
    m = run.metrics
    m["setup_s"] = statistics.median(setup_s)
    m["solve_s"] = solve_s
    m["modularity"] = float(np.mean(qs))
    m["ok_frac"] = 1.0 - run.failed / run.attempted
    m["peak_rss_mb"] = measure.peak_rss_mb()
    m["query_p99_ms"] = tail.value * 1e3
    m["fresh_p50_ms"] = solve_s * 1e3
    m["fresh_frac"] = 1.0
    run.notes += [
        f"solve_s: median of {len(totals)} rounds of {', '.join(names)} "
        f"(engine {cfg.engine}); quartiles "
        + ", ".join(f"{x:.4f}" for x in statistics.quantiles(totals, n=4))
        + f"; raw wall median {statistics.median(raw):.4f} s, host probe "
        f"median {speed.median_ms():.3f} ms",
        f"query_p99_ms: {tail.describe()} (one request = one round)",
        f"setup_s: median of {SOLVE_SETUPS} set-ups",
    ]


def _overhead(run: Run, base: List[float], traced: List[float]) -> None:
    """Tracing overhead: traced over untraced solve time, base untraced."""
    b, t = statistics.median(base), statistics.median(traced)
    run.metrics["tracing.solve_s_untraced"] = b
    run.metrics["tracing.solve_s_traced"] = t
    run.metrics["tracing.overhead_frac"] = t / b - 1.0
    run.notes.append(
        f"tracing overhead: traced solve_s {t:.4f} s ({len(traced)} samples)"
        f" vs untraced {b:.4f} s ({len(base)} samples), base = untraced: "
        f"{100 * (t / b - 1):+.1f}%")


# -- served workload -----------------------------------------------------------

def _arrivals(graphs, keys, seed: int, seconds: float):
    """The request schedule: Poisson queries on Zipf-hot vertices of a
    random graph, and paced update batches."""
    rng = np.random.default_rng([seed, 0x5E4E])
    out = []
    hot = [rng.permutation(g.num_vertices) for g in graphs]
    for due in openloop.poisson_times(rng, QUERY_RATE, seconds):
        gi = int(rng.integers(len(graphs)))
        rank = (int(rng.zipf(ZIPF_A)) - 1) % graphs[gi].num_vertices
        kind = ("neighbor_communities"
                if rng.random() < NEIGHBOR_QUERY_SHARE else "community_of")
        out.append(openloop.Arrival(float(due), "query", QueryRequest(
            keys[gi], kind, vertex=int(hot[gi][rank]))))
    # Updates are paced and take the graphs in turn.  A graph stays fresh
    # from a refresh until its next update arrives; with Poisson updates
    # that gap is exponential, and the ~30 refreshes of a run left the
    # fresh share of answers varying by 18% between seeds.
    for j, due in enumerate(openloop.paced_times(UPDATE_RATE, seconds)):
        gi = j % len(graphs)
        batch = random_batch(graphs[gi], num_insertions=EDITS_PER_UPDATE,
                             num_deletions=EDITS_PER_UPDATE,
                             seed=int(rng.integers(2**31)))
        out.append(openloop.Arrival(float(due), "update",
                                    UpdateRequest(keys[gi], batch)))
    out.sort(key=lambda a: a.due)
    return out


def _detect_all(graphs):
    """A fresh server with ``graphs`` DETECTed: the server, the DETECT
    tickets and the seconds the DETECTs took."""
    server = PartitionServer(ServiceConfig())
    t0 = time.perf_counter()
    tickets = [server.detect(g) for g in graphs]
    return server, tickets, time.perf_counter() - t0


def _timed_detect(speed: measure.HostSpeed, graphs) -> float:
    p = speed.probe3()
    d = _detect_all(graphs)[2]
    return speed.scale(d, (p + speed.probe3()) / 2)


def _serve(run: Run, speed: measure.HostSpeed, seed: int, seconds: float,
           trace: bool) -> None:
    setup_s, detect_s = [], []
    for _ in range(SERVE_SETUPS):
        p = speed.probe3()
        t0 = time.perf_counter()
        graphs = _gen(SERVE_GRAPHS, seed)
        server, tickets, d = _detect_all(graphs)
        keys = [t.response["key"] for t in tickets]
        arrivals = _arrivals(graphs, keys, seed, seconds)
        dt = time.perf_counter() - t0
        p = (p + speed.probe3()) / 2
        setup_s.append(speed.scale(dt, p))
        detect_s.append(speed.scale(d, p))

    log = None
    if trace:
        base = [_timed_detect(speed, graphs) for _ in range(OVERHEAD_SAMPLES)]
        log = SpanLog()
        patches = layers.install(log, sys.modules[__name__],
                                 server.config.leiden.batch_size)
        traced = [_timed_detect(speed, graphs)
                  for _ in range(OVERHEAD_SAMPLES)]
        _overhead(run, base, traced)
        log.reset()
    first_probe = len(speed.samples)
    try:
        res = openloop.run_open_loop(server, arrivals, probe=speed.probe)
        server.drain()
    finally:
        if trace:
            patches.remove()
    openloop.finish_open(res)

    run.attempted = len(tickets) + len(res.outcomes)
    refused = sum(o.refused for o in res.outcomes)
    bad = [t for t in tickets if t.status != DONE] + [
        o for o in res.outcomes if not o.refused and o.status != DONE]
    run.failed = refused + len(bad)
    if refused:
        run.notes.append(f"{refused} submissions refused (queue full)")
    if bad:
        run.problems.append(f"{len(bad)} admitted requests did not end DONE")
    qs = []
    for name, key in zip(SERVE_GRAPHS, keys):
        entry = server.store.peek(key)
        served = server.query(key, "membership").response["value"]
        ref = leiden(entry.graph, server.config.leiden).membership
        probs = partition_problems(entry.graph, served)
        if not np.array_equal(served, ref):
            probs.append("served membership differs from a cold solve")
        run.attempted += 1
        if probs:
            run.failed += 1
            run.problems += [f"{name}: {p}" for p in probs]
        qs.append(modularity(entry.graph, served))

    # The served window's wall times are scaled by the probes taken in its
    # idle gaps.
    loop_probe = statistics.median(speed.samples[first_probe:]
                                   or speed.samples)
    queries = [o for o in res.outcomes if o.kind == "query"]
    timed = [o for o in queries if o.refused or o.latency is not None]
    q_lat = [float("inf") if o.refused else o.latency for o in timed]
    u_lat = [o.latency for o in res.outcomes
             if o.kind == "update" and o.latency is not None]
    answered = [o for o in queries if o.status == DONE]
    fresh = sum(o.ticket.response["state"] == FRESH for o in answered)
    q_tail, q_tails = measure.windowed_tail(
        [o.due for o in timed], q_lat, seconds, TAIL_WINDOWS)
    late_tail = measure.tail([o.late for o in res.outcomes])
    m = run.metrics
    stats = server.stats()
    if trace:
        m.update(layers.per_layer(log, per=1.0))
        m["service.busy_frac"] = layers.served_busy_s(log) / res.wall_s
        m["service.queue_depth_max"] = float(stats["queue"]["max_depth"])
        flushes = stats["counters"]["update_flushes"]
        m["service.updates_per_flush"] = (
            stats["counters"]["updates_accepted"] / flushes if flushes else 0)
        m["service.gen_late_p99_ms"] = late_tail.value * 1e3
        m["service.query_p50_ms"] = statistics.median(q_lat) * 1e3
        run.log = log
    else:
        m["setup_s"] = statistics.median(setup_s)
        m["solve_s"] = statistics.median(detect_s)
        m["modularity"] = float(np.mean(qs))
        m["ok_frac"] = 1.0 - run.failed / run.attempted
        m["peak_rss_mb"] = measure.peak_rss_mb()
        m["query_p99_ms"] = speed.scale(q_tail, loop_probe) * 1e3
        m["fresh_p50_ms"] = speed.scale(statistics.median(u_lat),
                                        loop_probe) * 1e3
        m["fresh_frac"] = fresh / len(answered)
    run.notes += [
        f"offered: {len(queries)} queries ({QUERY_RATE:g}/s), "
        f"{len(res.outcomes) - len(queries)} updates ({UPDATE_RATE:g}/s) "
        f"over {seconds:g} s; loop wall {res.wall_s:.3f} s",
        f"query_p99_ms: median over {TAIL_WINDOWS} windows of "
        + "; ".join(f"{t.value * 1e3:.1f} ms ({t.describe()})"
                    for t in q_tails),
        f"fresh_p50_ms: median of {len(u_lat)} updates committed before "
        f"drain",
        f"generator lateness: {late_tail.value * 1e3:.3f} ms at "
        f"{late_tail.describe()}",
        f"solve_s: median DETECT time of {', '.join(SERVE_GRAPHS)} over "
        f"{SERVE_SETUPS} set-ups",
        f"served window: {len(speed.samples) - first_probe} host probes, "
        f"median {loop_probe:.3f} ms (reference {measure.PROBE_REF_MS} ms); "
        f"raw query p50 {statistics.median(q_lat) * 1e3:.4f} ms, p99 "
        f"{q_tail * 1e3:.2f} ms",
    ]

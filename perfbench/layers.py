"""Which program calls the traced mode wraps, and the per-layer metrics
derived from the spans.

Each wrapper sits on a public function or method at the module attribute
the caller looks it up through (``repro.core.leiden.refine_batch``, not
``repro.core.refine.refine_batch``), so the program runs unchanged and
only the benchmark's view of it gains spans.
"""

from __future__ import annotations

import importlib
from typing import Dict

import numpy as np

from spans import Patches, SpanLog, layer_totals

KERNELS = ("pair_sums", "argmax", "scatter_add", "compact")

#: Arguments of each ``KernelWorkspace`` method that hold its elements.
_KERNEL_ELEM_ARG = {"pair_sums": 1, "argmax": 1, "scatter_add": 2,
                    "compact": 1}


def install(log: SpanLog, bench_module, batch_size: int) -> Patches:
    """Wrap every traced call; returns the patches for removal."""
    import repro.core.local_move as local_move
    import repro.core.local_move_process as local_move_process
    import repro.core.refine as refine
    import repro.service.server as server_mod
    from repro.core.workspace import KernelWorkspace
    from repro.graph.csr import CSRGraph
    from repro.parallel.procpool import ProcessPool
    from repro.service.server import PartitionServer

    # ``repro.core`` re-exports the function ``leiden`` under the name of
    # its module, so the module itself is taken from the import system.
    core_leiden = importlib.import_module("repro.core.leiden")
    p = Patches(log)

    def colors(log, idx, args, kwargs, out):
        log.count("coloring.colors", int(out.max()) + 1 if out.size else 0)
        sizes = np.bincount(out) if out.size else np.zeros(0, np.int64)
        log.count("coloring.batches",
                  int(np.ceil(sizes / batch_size).sum()))

    for mod in (local_move, local_move_process):
        p.wrap(mod, "color_graph", "parallel.coloring", colors)

    p.wrap(core_leiden, "local_move_batch", "core.local_move")
    p.wrap(core_leiden, "local_move_process", "core.local_move")

    def refine_moves(log, idx, args, kwargs, out):
        log.count("refine.moves", out)

    p.wrap(core_leiden, "refine_batch", "core.refine", refine_moves)

    def shrink(log, idx, args, kwargs, out):
        log.count("aggregate.in_vertices", args[0].num_vertices)
        log.count("aggregate.out_vertices", out.num_vertices)

    p.wrap(core_leiden, "aggregate_batch", "core.aggregate", shrink)

    def gathered(log, idx, args, kwargs, out):
        log.count("gather_rows.elems", out[0].shape[0])

    for mod in (local_move, refine, local_move_process):
        p.wrap(mod, "gather_rows", "graph.gather_rows", gathered)

    for kernel in KERNELS:
        def elems(log, idx, args, kwargs, out, _k=kernel):
            log.count(f"kernels.{_k}.elems",
                      args[_KERNEL_ELEM_ARG[_k]].shape[0])

        p.wrap(KernelWorkspace, kernel, f"core.kernels.{kernel}", elems)

    def passes(log, idx, args, kwargs, out):
        log.count("leiden.passes", len(out.passes))
        log.count("leiden.move_iterations",
                  sum(s.move_iterations for s in out.passes))
        log.count("leiden.refine_moves",
                  sum(s.refine_moves for s in out.passes))

    p.wrap(bench_module, "leiden", "core.leiden", passes)
    p.wrap(server_mod, "leiden", "core.leiden", passes)

    def pool_run(log, idx, args, kwargs, out):
        payloads = args[2] if len(args) > 2 else kwargs["payloads"]
        log.count("procpool.tasks", len(payloads))
        if out:
            log.count("procpool.worker_busy_s", sum(r.seconds for r in out))
            extent = max(r.end for r in out) - min(r.start for r in out)
            log.count("procpool.overhead_s",
                      (log.ends[idx] - log.starts[idx]) - extent)

    p.wrap(ProcessPool, "run", "parallel.procpool.run", pool_run)
    p.wrap(ProcessPool, "bind", "parallel.procpool.bind")

    p.wrap(server_mod, "apply_batch", "dynamic.apply_batch")

    def affected(log, idx, args, kwargs, out):
        log.count("affected.vertices", int(out.sum()))
        log.count("affected.total", out.shape[0])

    p.wrap(server_mod, "affected_vertices", "dynamic.affected", affected)

    def step_kind(log, idx, args, kwargs, out):
        log.names[idx] = ("service.step.idle" if out is None
                          else f"service.step.{out.kind}")

    p.wrap(PartitionServer, "step", "service.step", step_kind)
    p.wrap(PartitionServer, "drain", "service.drain")
    p.wrap(server_mod, "CommunityIndex", "service.index.build")
    p.wrap(CSRGraph, "fingerprint", "service.fingerprint")
    return p


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(log: SpanLog, per: float) -> Dict[str, float]:
    """Per-layer metrics from the spans, each count and time divided by
    ``per`` (rounds of a solve workload; 1 for the served window)."""
    t = layer_totals(log)
    c = log.counts
    m: Dict[str, float] = {}

    def layer(name: str, key: str, *, self_s: bool = False) -> None:
        m[f"{key}.calls"] = t.calls.get(name, 0) / per
        m[f"{key}.busy_s"] = t.busy.get(name, 0.0) / per
        if self_s:
            m[f"{key}.self_s"] = t.self_time.get(name, 0.0) / per

    layer("parallel.coloring", "parallel.coloring")
    m["parallel.coloring.colors"] = c["coloring.colors"] / per
    m["parallel.coloring.batches"] = c["coloring.batches"] / per
    layer("core.local_move", "core.local_move", self_s=True)
    for k in KERNELS:
        name = f"core.kernels.{k}"
        layer(name, name)
        m[f"{name}.elems_per_call"] = _ratio(c[f"kernels.{k}.elems"],
                                             t.calls.get(name, 0))
    layer("graph.gather_rows", "graph.gather_rows")
    m["graph.gather_rows.elems_per_call"] = _ratio(
        c["gather_rows.elems"], t.calls.get("graph.gather_rows", 0))
    layer("core.refine", "core.refine", self_s=True)
    m["core.refine.moves"] = c["refine.moves"] / per
    layer("core.aggregate", "core.aggregate")
    m["core.aggregate.shrink"] = _ratio(c["aggregate.out_vertices"],
                                        c["aggregate.in_vertices"])
    layer("core.leiden", "core.leiden")
    m["core.leiden.passes"] = c["leiden.passes"] / per
    m["core.leiden.move_iterations"] = c["leiden.move_iterations"] / per
    m["core.leiden.refine_moves"] = c["leiden.refine_moves"] / per

    run = "parallel.procpool.run"
    m["parallel.procpool.run.calls"] = t.calls.get(run, 0) / per
    m["parallel.procpool.tasks"] = c["procpool.tasks"] / per
    m["parallel.procpool.run_s"] = t.busy.get(run, 0.0) / per
    m["parallel.procpool.worker_busy_s"] = c["procpool.worker_busy_s"] / per
    m["parallel.procpool.overhead_s"] = c["procpool.overhead_s"] / per
    m["parallel.procpool.bind_s"] = (
        t.busy.get("parallel.procpool.bind", 0.0) / per)

    m["dynamic.apply_batch.busy_s"] = t.busy.get("dynamic.apply_batch",
                                                 0.0) / per
    m["dynamic.affected.busy_s"] = t.busy.get("dynamic.affected", 0.0) / per
    m["dynamic.affected_frac"] = _ratio(c["affected.vertices"],
                                        c["affected.total"])

    for kind in ("detect", "query", "update"):
        layer(f"service.step.{kind}", f"service.step.{kind}")
    refresh_calls = 0
    refresh_s = reconcile_s = 0.0
    for i, name in enumerate(log.names):
        if name != "core.leiden":
            continue
        dur = log.ends[i] - log.starts[i]
        if log.ancestor_named(i, "service.drain") is not None:
            reconcile_s += dur
        elif log.ancestor_named(i, "service.step.update") is not None:
            refresh_calls += 1
            refresh_s += dur
    m["service.refresh.calls"] = refresh_calls / per
    m["service.refresh.busy_s"] = refresh_s / per
    m["service.reconcile.busy_s"] = reconcile_s / per
    m["service.index.build_s"] = t.busy.get("service.index.build", 0.0) / per
    m["service.fingerprint_s"] = t.busy.get("service.fingerprint", 0.0) / per
    # Read off the server and the generator; the served workload fills
    # them in, the solve workloads have neither.
    for key in ("busy_frac", "queue_depth_max", "updates_per_flush",
                "gen_late_p99_ms", "query_p50_ms"):
        m[f"service.{key}"] = 0.0
    return m


def served_busy_s(log: SpanLog) -> float:
    """Seconds the server spent in steps that found work, outside drain."""
    busy = 0.0
    for i, name in enumerate(log.names):
        if (name.startswith("service.step.") and name != "service.step.idle"
                and log.ancestor_named(i, "service.drain") is None):
            busy += log.ends[i] - log.starts[i]
    return busy

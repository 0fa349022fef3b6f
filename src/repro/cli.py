"""Command-line interface: ``repro`` / ``gve-leiden`` / ``python -m repro``.

Subcommands:

- ``repro run <input>`` (also the default when the first argument is not
  a subcommand name, so ``gve-leiden graph.mtx`` keeps working) — detect
  communities in a graph file (MatrixMarket, METIS or edge list) or a
  named registry dataset and print a summary, optionally writing the
  membership vector to a file;
- ``repro trace <input>`` — run GVE-Leiden with the observability layer
  enabled and emit the span/counter trace as JSON
  (see docs/OBSERVABILITY.md for the schema); ``repro trace --diff A B``
  compares two saved traces field by field;
- ``repro profile <input>`` — run once with the thread-timeline profiler
  enabled; print the critical-path/imbalance report and optionally write
  a Chrome trace-event JSON (``--chrome out.json``, loadable in
  chrome://tracing or Perfetto);
- ``repro metrics <input>`` — run GVE-Leiden with the typed metric
  instruments enabled and emit the byte-deterministic snapshot as JSON
  (``repro.metrics/1``) or Prometheus text exposition (``--format
  prom``);
- ``repro bench …`` — the evaluation harness
  (:mod:`repro.bench.__main__`), including the ``--check`` perf-
  regression gate and ``--trace`` artifact writer used by CI;
- ``repro reorder <input>`` — solve once, derive the community-aware
  vertex relabeling (:mod:`repro.graph.relabel`), and emit a
  deterministic JSON report of the modelled cache-locality delta
  between the original and relabeled layouts; ``--perm`` /
  ``--membership`` write the permutation and original-id membership
  as text files;
- ``repro serve --workload <profile>`` — drive the partition-serving
  subsystem (:mod:`repro.service`) through a seeded closed-loop
  workload and emit its deterministic stats document
  (see docs/SERVICE.md); ``--metrics PATH`` attaches the metric
  registry plus the stock SLO evaluator and writes their snapshot;
- ``repro mem <input>`` — run GVE-Leiden with the memory ledger
  (:mod:`repro.observability.memtrack`) attached and emit the
  byte-deterministic ``repro.memory/1`` allocation report; ``--chrome``
  writes the memory counter lanes as Chrome trace JSON, ``--rss``
  prints the informational logical-vs-real ratio.  ``repro serve
  --mem`` / ``repro fleet --mem`` write the serving-side reports.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro._version import __version__
from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.core.louvain import louvain
from repro.datasets.registry import load_graph, registry_names
from repro.errors import ReproError
from repro.graph.io_edgelist import read_edgelist
from repro.graph.io_mtx import read_mtx
from repro.metrics.connectivity import disconnected_communities
from repro.metrics.modularity import modularity

#: Engine choices shared by every subcommand that runs a detection.
ENGINE_CHOICES = ("batch", "loop", "threads", "process")

#: Relabel-mode choices mirrored from :data:`repro.graph.relabel.RELABEL_MODES`.
RELABEL_CHOICES = ("none", "community", "community-degree")


def _add_relabel_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--relabel", choices=list(RELABEL_CHOICES),
                   default="none",
                   help="solve on a community-aware relabeled layout "
                        "(pilot pass derives the layout; memberships are "
                        "reported in original ids)")


def _add_workers_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=2,
                   help="worker-process count for --engine process "
                        "(ignored by the other engines; default 2)")


def _make_runtime(args, **kwargs):
    """A Runtime sized for the requested engine (process → worker pool)."""
    from repro.parallel.runtime import Runtime

    if getattr(args, "engine", None) == "process":
        return Runtime(num_threads=args.workers, executor="process",
                       seed=args.seed, **kwargs)
    return Runtime(num_threads=1, seed=args.seed, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gve-leiden",
        description="GVE-Leiden community detection (ICPP 2024 reproduction)",
    )
    p.add_argument("input", nargs="?", default=None,
                   help="graph file (.mtx or edge list) or a registry "
                        "dataset name (see --list)")
    p.add_argument("--list", action="store_true", dest="list_datasets",
                   help="list registry dataset names and exit")
    p.add_argument("--algorithm", choices=["leiden", "louvain"],
                   default="leiden")
    p.add_argument("--refinement", choices=["greedy", "random"],
                   default="greedy")
    p.add_argument("--variant", choices=["default", "medium", "heavy"],
                   default="default")
    p.add_argument("--vertex-label", choices=["move", "refine"],
                   default="move")
    p.add_argument("--quality", choices=["modularity", "cpm"],
                   default="modularity")
    p.add_argument("--engine", choices=list(ENGINE_CHOICES),
                   default="batch")
    _add_workers_arg(p)
    _add_relabel_arg(p)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--max-passes", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", type=Path, default=None,
                   help="write one community id per line to this file")
    p.add_argument("--check-connectivity", action="store_true",
                   help="also count internally-disconnected communities")
    p.add_argument("--summary", action="store_true",
                   help="print per-community structure statistics")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    return p


def _load(arg: str):
    if arg in registry_names():
        return load_graph(arg)
    path = Path(arg)
    if not path.exists():
        raise SystemExit(f"error: {arg!r} is neither a file nor a dataset "
                         f"name (use --list to see dataset names)")
    if path.suffix == ".mtx":
        return read_mtx(path)
    if path.suffix in (".graph", ".metis"):
        from repro.graph.io_metis import read_metis

        return read_metis(path)
    return read_edgelist(path)


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace",
        description="Run GVE-Leiden with tracing enabled; emit JSON "
                    "(spans: run → pass → phase; counters: atomics, "
                    "barriers, pruning rate, clock skew, batch sizes)",
    )
    p.add_argument("input", nargs="?", default=None,
                   help="graph file (.mtx, .graph or edge list) or a "
                        "registry dataset name")
    p.add_argument("--engine", choices=list(ENGINE_CHOICES),
                   default="batch")
    _add_workers_arg(p)
    p.add_argument("--quality", choices=["modularity", "cpm"],
                   default="modularity")
    p.add_argument("--max-passes", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threads", type=int, default=64,
                   help="thread count for the modelled-runtime summary")
    p.add_argument("--output", type=Path, default=None,
                   help="write the trace JSON here instead of stdout")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
    p.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                   default=None,
                   help="compare two saved trace JSON files instead of "
                        "running (counters and derived metrics gate, "
                        "span seconds are informational)")
    p.add_argument("--strict", action="store_true",
                   help="with --diff: exit 1 when any deterministic "
                        "field differs")
    return p


def trace_main(argv: list[str] | None = None) -> int:
    """``repro trace`` — run once with tracing on, emit the JSON trace."""
    from repro.observability.tracer import Tracer
    from repro.parallel.costmodel import PAPER_MACHINE

    parser = build_trace_parser()
    args = parser.parse_args(argv)
    if args.diff is not None:
        return _trace_diff(args)
    if args.input is None:
        parser.error("the following arguments are required: input")
    graph = _load(args.input)
    config = LeidenConfig(
        engine=args.engine,
        quality=args.quality,
        max_passes=args.max_passes,
        seed=args.seed,
    )
    tracer = Tracer()
    rt = _make_runtime(args, tracer=tracer)
    try:
        result = leiden(graph, config, runtime=rt)
    finally:
        rt.close()
    sim = result.ledger.simulate(PAPER_MACHINE, args.threads)
    q = modularity(graph, result.membership)
    doc = tracer.to_json(
        indent=None if args.compact else 2,
        experiment=str(args.input),
        seed=args.seed,
        num_threads=args.threads,
        machine=PAPER_MACHINE.as_dict(),
        metrics={
            "wall_seconds": result.wall_seconds,
            "modeled_seconds": sim.seconds,
            "modeled_phase_seconds": sim.phase_seconds,
            "total_work": result.ledger.total_work,
            "modularity": q,
            "num_passes": result.num_passes,
            "num_communities": result.num_communities,
        },
    )
    if args.output is not None:
        args.output.write_text(doc + "\n")
        print(f"trace written to {args.output}")
    else:
        print(doc)
    return 0


def _trace_diff(args) -> int:
    """``repro trace --diff A.json B.json`` — field-level trace delta."""
    import json

    from repro.observability.regression import (
        diff_trace_docs,
        format_trace_diff,
    )

    path_a, path_b = args.diff
    for p in (path_a, path_b):
        if not p.exists():
            raise SystemExit(f"error: trace file {p} does not exist")
    doc_a = json.loads(path_a.read_text())
    doc_b = json.loads(path_b.read_text())
    rows = diff_trace_docs(doc_a, doc_b)
    text, diffs = format_trace_diff(
        rows, label_a=str(path_a), label_b=str(path_b))
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"diff written to {args.output}")
    else:
        print(text)
    return 1 if (args.strict and diffs) else 0


def build_profile_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro profile",
        description="Run GVE-Leiden with the thread-timeline profiler "
                    "enabled; print the critical-path / barrier-wait / "
                    "load-imbalance report, optionally exporting the "
                    "per-thread timeline as Chrome trace-event JSON",
    )
    p.add_argument("input",
                   help="graph file (.mtx, .graph or edge list) or a "
                        "registry dataset name")
    p.add_argument("--engine", choices=list(ENGINE_CHOICES),
                   default="batch")
    _add_workers_arg(p)
    _add_relabel_arg(p)
    p.add_argument("--quality", choices=["modularity", "cpm"],
                   default="modularity")
    p.add_argument("--max-passes", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threads", type=int, default=8,
                   help="simulated thread count the timeline is laid "
                        "out at (one Chrome lane per thread)")
    p.add_argument("--top", type=int, default=5,
                   help="regions listed in the top-N table")
    p.add_argument("--chrome", type=Path, default=None,
                   help="write the Chrome trace-event JSON here "
                        "(open in chrome://tracing or Perfetto)")
    p.add_argument("--output", type=Path, default=None,
                   help="write the text report here instead of stdout")
    p.add_argument("--compact", action="store_true",
                   help="single-line Chrome JSON (default: indented)")
    return p


def profile_main(argv: list[str] | None = None) -> int:
    """``repro profile`` — run once with the profiler on, emit report."""
    from repro.observability.profile_report import format_profile_report
    from repro.observability.profiler import (
        Profiler,
        chrome_trace_json,
        to_chrome_trace,
        validate_chrome_trace,
    )
    from repro.observability.tracer import Tracer

    args = build_profile_parser().parse_args(argv)
    graph = _load(args.input)
    config = LeidenConfig(
        engine=args.engine,
        quality=args.quality,
        max_passes=args.max_passes,
        seed=args.seed,
        relabel=args.relabel,
    )
    tracer = Tracer()
    profiler = Profiler(num_threads=args.threads)
    rt = _make_runtime(args, tracer=tracer, profiler=profiler)
    try:
        leiden(graph, config, runtime=rt)
    finally:
        rt.close()
    timeline = profiler.timeline()
    trace_doc = tracer.to_dict(experiment=str(args.input), seed=args.seed)
    report = format_profile_report(
        timeline, trace_doc=trace_doc, top=args.top, title=str(args.input))
    if args.chrome is not None:
        doc = to_chrome_trace(
            timeline, experiment=str(args.input), seed=args.seed)
        validate_chrome_trace(doc)
        args.chrome.write_text(chrome_trace_json(
            doc, indent=None if args.compact else 1) + "\n")
        print(f"chrome trace written to {args.chrome}")
    if args.output is not None:
        args.output.write_text(report + "\n")
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def build_metrics_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro metrics",
        description="Run GVE-Leiden with typed metric instruments enabled "
                    "and emit the byte-deterministic snapshot "
                    "(counters/gauges/histograms with labels; JSON "
                    "repro.metrics/1 or Prometheus text exposition)",
    )
    p.add_argument("input",
                   help="graph file (.mtx, .graph or edge list) or a "
                        "registry dataset name")
    p.add_argument("--engine", choices=list(ENGINE_CHOICES),
                   default="batch")
    _add_workers_arg(p)
    p.add_argument("--quality", choices=["modularity", "cpm"],
                   default="modularity")
    p.add_argument("--max-passes", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=["json", "prom"], default="json",
                   dest="fmt",
                   help="output format: JSON snapshot (default) or "
                        "Prometheus text exposition")
    p.add_argument("--output", type=Path, default=None,
                   help="write the snapshot here instead of stdout")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
    return p


def metrics_main(argv: list[str] | None = None) -> int:
    """``repro metrics`` — run once with instruments on, emit snapshot."""
    import json

    from repro.observability.metrics import validate_prometheus
    from repro.observability.regression import collect_leiden_metrics

    args = build_metrics_parser().parse_args(argv)
    graph = _load(args.input)
    config = LeidenConfig(
        engine=args.engine,
        quality=args.quality,
        max_passes=args.max_passes,
        seed=args.seed,
    )
    registry, _tracer, result = collect_leiden_metrics(
        graph, config, seed=args.seed,
        num_threads=args.workers if args.engine == "process" else 1,
        executor="process" if args.engine == "process" else "serial",
    )
    q = modularity(graph, result.membership)
    if args.fmt == "prom":
        doc = registry.to_prometheus()
        validate_prometheus(doc)
    else:
        doc = json.dumps(
            registry.to_snapshot(
                experiment=str(args.input),
                seed=args.seed,
                modularity=q,
                num_passes=result.num_passes,
                num_communities=result.num_communities,
                total_work=result.ledger.total_work,
            ),
            indent=None if args.compact else 2,
            sort_keys=True,
        ) + "\n"
    if args.output is not None:
        args.output.write_text(doc)
        print(f"metrics written to {args.output}")
    else:
        print(doc, end="")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="Run a seeded closed-loop workload against the "
                    "partition server and emit the deterministic stats "
                    "JSON (no wall-clock fields: two runs with the same "
                    "profile and seed are byte-identical)",
    )
    p.add_argument("--workload", default="quick",
                   help="workload profile name (see PROFILES; unknown "
                        "names exit 2 with the valid list)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-coalesce", action="store_true",
                   help="disable UPDATE micro-batching (one solve per "
                        "update batch; for A/B comparison)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the served-vs-from-scratch membership check")
    p.add_argument("--output", type=Path, default=None,
                   help="write the result JSON here instead of stdout")
    p.add_argument("--trace", type=Path, default=None, dest="trace_output",
                   help="also run with tracing enabled and write the "
                        "span/counter trace JSON here")
    p.add_argument("--profile", type=Path, default=None,
                   dest="profile_output",
                   help="also run with the thread-timeline profiler "
                        "enabled and write the Chrome trace-event JSON "
                        "here (request lane + solve timelines)")
    p.add_argument("--metrics", type=Path, default=None,
                   dest="metrics_output",
                   help="also run with the metric registry and the stock "
                        "SLO evaluator attached and write their "
                        "byte-deterministic snapshot JSON (including the "
                        "repro.health/1 block) here")
    p.add_argument("--reqtrace", type=Path, default=None,
                   dest="reqtrace_output",
                   help="also run with the request tracer attached and "
                        "write the repro.reqtrace/1 document here; when "
                        "--profile is also given, the Chrome trace gains "
                        "the request lanes (merged view)")
    p.add_argument("--mem", type=Path, default=None, dest="mem_output",
                   help="also run with the memory ledger attached and "
                        "write the byte-deterministic repro.memory/1 "
                        "report (store bytes per entry, peak watermarks) "
                        "here")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
    return p


def _reject_unknown_profile(name: str, known, *, what: str) -> int:
    """Report an unknown workload profile and return exit code 2.

    Same shape as the bench ``--check`` MISSING output: one line per
    valid name, then a final ``error:`` summary on stderr.
    """
    for valid in sorted(known):
        print(f"VALID {what} profile {valid}", file=sys.stderr)
    print(f"error: unknown {what} profile {name!r} — pick one of the "
          f"profiles listed above", file=sys.stderr)
    return 2


def serve_main(argv: list[str] | None = None) -> int:
    """``repro serve`` — drive the partition server through a workload."""
    import json

    from repro.service.server import PartitionServer, ServiceConfig
    from repro.service.workload import PROFILES, run_workload

    args = build_serve_parser().parse_args(argv)
    if args.workload not in PROFILES:
        return _reject_unknown_profile(
            args.workload, PROFILES, what="workload")
    service_config = ServiceConfig(coalesce_updates=not args.no_coalesce)
    server = None
    if (args.trace_output is not None or args.profile_output is not None
            or args.metrics_output is not None
            or args.reqtrace_output is not None
            or args.mem_output is not None):
        from repro.observability.health import (
            HealthEvaluator,
            default_service_slos,
        )
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.profiler import Profiler
        from repro.observability.tracer import Tracer

        with_metrics = args.metrics_output is not None
        with_reqtrace = args.reqtrace_output is not None
        reqtrace = None
        if with_reqtrace:
            from repro.observability.reqtrace import RequestTracer

            reqtrace = RequestTracer(seed=args.seed)
        memory = None
        if args.mem_output is not None:
            from repro.observability.memtrack import MemoryLedger

            memory = MemoryLedger()
        server = PartitionServer(
            service_config,
            tracer=Tracer() if args.trace_output is not None else None,
            profiler=(Profiler() if args.profile_output is not None
                      else None),
            metrics=MetricsRegistry() if with_metrics else None,
            health=(HealthEvaluator(default_service_slos())
                    if with_metrics or with_reqtrace else None),
            reqtrace=reqtrace,
            memory=memory,
        )
    result = run_workload(
        args.workload,
        seed=args.seed,
        server=server,
        service_config=service_config,
        verify=not args.no_verify,
    )
    doc = json.dumps(result.to_json_dict(), sort_keys=True,
                     indent=None if args.compact else 2)
    if args.output is not None:
        args.output.write_text(doc + "\n")
        print(f"stats written to {args.output}")
    else:
        print(doc)
    if args.trace_output is not None:
        args.trace_output.write_text(server.tracer.to_json(
            indent=None if args.compact else 2,
            experiment=f"serve:{args.workload}",
            seed=args.seed,
        ) + "\n")
        print(f"trace written to {args.trace_output}")
    if args.profile_output is not None:
        from repro.observability.profiler import (
            chrome_trace_json,
            to_chrome_trace,
            validate_chrome_trace,
        )

        doc = to_chrome_trace(
            server.profiler.timeline(),
            experiment=f"serve:{args.workload}", seed=args.seed)
        if args.reqtrace_output is not None:
            # Merged view: solver timeline lanes + request lanes in one
            # Chrome trace, stitched by flow events.
            from repro.observability.reqtrace import merge_chrome_trace

            doc = merge_chrome_trace(doc, server.reqtrace)
        validate_chrome_trace(doc)
        args.profile_output.write_text(chrome_trace_json(
            doc, indent=None if args.compact else 1) + "\n")
        print(f"profile written to {args.profile_output}")
    if args.reqtrace_output is not None:
        from repro.observability.reqtrace import validate_reqtrace

        doc = server.reqtrace.to_json_dict(
            experiment=f"serve:{args.workload}")
        validate_reqtrace(doc)
        args.reqtrace_output.write_text(json.dumps(
            doc, sort_keys=True,
            indent=None if args.compact else 2) + "\n")
        print(f"request traces written to {args.reqtrace_output}")
    if args.metrics_output is not None:
        args.metrics_output.write_text(server.metrics.to_json(
            indent=None if args.compact else 2,
            health=server.health.evaluate(server.clock),
            experiment=f"serve:{args.workload}",
            seed=args.seed,
            clock_units=int(server.clock),
        ) + "\n")
        print(f"metrics written to {args.metrics_output}")
    if args.mem_output is not None:
        from repro.observability.memtrack import validate_memory_doc

        mem_doc = server.memory.to_snapshot(
            experiment=f"serve:{args.workload}", seed=args.seed)
        validate_memory_doc(mem_doc)
        args.mem_output.write_text(json.dumps(
            mem_doc, sort_keys=True,
            indent=None if args.compact else 2) + "\n")
        print(f"memory report written to {args.mem_output}")
    if not args.no_verify and not all(
            result.membership_matches_scratch.values()):
        print("error: served membership diverged from from-scratch solve",
              file=sys.stderr)
        return 1
    return 0


def build_mem_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro mem",
        description="Run GVE-Leiden with the memory ledger attached and "
                    "emit the byte-deterministic repro.memory/1 report "
                    "(logical allocation events, per-component and "
                    "per-phase peak watermarks; the logical section is "
                    "worker-count-invariant)",
    )
    p.add_argument("input",
                   help="graph file (.mtx, .graph or edge list) or a "
                        "registry dataset name")
    p.add_argument("--engine", choices=list(ENGINE_CHOICES),
                   default="batch")
    _add_workers_arg(p)
    p.add_argument("--quality", choices=["modularity", "cpm"],
                   default="modularity")
    p.add_argument("--max-passes", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", type=Path, default=None,
                   help="write the memory report JSON here instead of "
                        "stdout")
    p.add_argument("--chrome", type=Path, default=None,
                   help="write the Chrome-trace memory counter lanes "
                        "here (open in chrome://tracing or Perfetto)")
    p.add_argument("--rss", action="store_true",
                   help="also print the process RSS peak "
                        "(resource.getrusage) and the logical-vs-real "
                        "ratio — informational, never part of the "
                        "report document")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
    return p


def mem_main(argv: list[str] | None = None) -> int:
    """``repro mem`` — run once with the memory ledger on, emit report."""
    import json

    from repro.observability.memtrack import (
        MemoryLedger,
        record_csr,
        validate_memory_doc,
    )
    from repro.observability.profiler import (
        chrome_trace_json,
        validate_chrome_trace,
    )

    args = build_mem_parser().parse_args(argv)
    graph = _load(args.input)
    config = LeidenConfig(
        engine=args.engine,
        quality=args.quality,
        max_passes=args.max_passes,
        seed=args.seed,
    )
    memory = MemoryLedger()
    # Graph loads are memoized, so the input CSR may predate the ledger;
    # charge it explicitly so the report covers the input arrays.
    record_csr(memory, graph)
    rt = _make_runtime(args, memory=memory)
    try:
        leiden(graph, config, runtime=rt)
    finally:
        rt.close()
    doc = memory.to_snapshot(
        experiment=str(args.input),
        seed=args.seed,
        engine=args.engine,
    )
    validate_memory_doc(doc)
    text = json.dumps(doc, sort_keys=True,
                      indent=None if args.compact else 2)
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"memory report written to {args.output}")
    else:
        print(text)
    if args.chrome is not None:
        chrome = memory.to_chrome_trace(
            experiment=str(args.input), seed=args.seed)
        validate_chrome_trace(chrome)
        args.chrome.write_text(chrome_trace_json(
            chrome, indent=None if args.compact else 1) + "\n")
        print(f"memory chrome trace written to {args.chrome}")
    if args.rss:
        # Informational only: real RSS is machine- and allocator-
        # dependent, so it never enters the (gated) report document.
        import resource

        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_bytes = int(rss_kib) * 1024
        peak = doc["logical"]["peak_bytes"]
        ratio = peak / rss_bytes if rss_bytes else 0.0
        print(f"rss peak: {rss_bytes} B ({rss_bytes / 2**20:.1f} MiB); "
              f"logical peak {peak} B is {ratio:.1%} of real "
              f"(informational, not gated)")
    return 0


def build_reorder_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro reorder",
        description="Solve once, derive the community-aware vertex "
                    "relabeling and report the modelled cache-locality "
                    "delta between the original and relabeled layouts. "
                    "The JSON report has no wall-clock fields: two runs "
                    "with the same arguments are byte-identical",
    )
    p.add_argument("input",
                   help="graph file (.mtx, .graph or edge list) or a "
                        "registry dataset name")
    p.add_argument("--mode", choices=[m for m in RELABEL_CHOICES
                                      if m != "none"],
                   default="community",
                   help="layout mode: communities contiguous in "
                        "dendrogram order, optionally degree-sorted "
                        "within each community")
    p.add_argument("--engine", choices=list(ENGINE_CHOICES),
                   default="batch")
    _add_workers_arg(p)
    p.add_argument("--quality", choices=["modularity", "cpm"],
                   default="modularity")
    p.add_argument("--max-passes", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--perm", type=Path, default=None,
                   help="write the permutation (line i = original id of "
                        "new vertex i) to this file")
    p.add_argument("--membership", type=Path, default=None,
                   help="write the original-id membership (one community "
                        "per line) to this file")
    p.add_argument("--output", type=Path, default=None,
                   help="write the JSON report here instead of stdout")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
    return p


def reorder_main(argv: list[str] | None = None) -> int:
    """``repro reorder`` — derive a layout, report the locality delta."""
    import json

    from repro.graph.relabel import community_relabeling
    from repro.observability.locality import measure_locality

    args = build_reorder_parser().parse_args(argv)
    graph = _load(args.input)
    config = LeidenConfig(
        engine=args.engine,
        quality=args.quality,
        max_passes=args.max_passes,
        seed=args.seed,
    )
    rt = _make_runtime(args)
    try:
        result = leiden(graph, config, runtime=rt)
    finally:
        rt.close()
    levels = (result.dendrogram.memberships()
              if result.dendrogram.num_levels else [result.membership])
    relab = community_relabeling(graph, levels, mode=args.mode)
    relabeled, _ = graph.permute(relab.perm)
    before = measure_locality(graph)
    after = measure_locality(relabeled)
    q = modularity(graph, result.membership)
    q_relab = modularity(relabeled, relab.to_relabeled(result.membership))
    doc = {
        "schema": "repro.reorder/1",
        "input": str(args.input),
        "mode": args.mode,
        "engine": args.engine,
        "seed": int(args.seed),
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
        "num_communities": int(relab.num_communities),
        "modularity": round(q, 12),
        # Exact layout invariance: Q of the same partition expressed on
        # the relabeled graph must match bit for bit.
        "modularity_relabeled": round(q_relab, 12),
        "q_invariant": bool(q == q_relab),
        "locality": {
            "original": before.to_dict(),
            "relabeled": after.to_dict(),
        },
    }
    if before.gather_lines:
        doc["gather_lines_saved_pct"] = round(
            100.0 * (1.0 - after.gather_lines / before.gather_lines), 3)
    if before.miss_lines:
        doc["miss_lines_saved_pct"] = round(
            100.0 * (1.0 - after.miss_lines / before.miss_lines), 3)
    text = json.dumps(doc, sort_keys=True,
                      indent=None if args.compact else 2)
    if args.perm is not None:
        args.perm.write_text(
            "\n".join(str(int(v)) for v in relab.perm) + "\n")
        print(f"permutation written to {args.perm}")
    if args.membership is not None:
        args.membership.write_text(
            "\n".join(str(int(c)) for c in result.membership) + "\n")
        print(f"membership written to {args.membership}")
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"reorder report written to {args.output}")
    else:
        print(text)
    if not doc["q_invariant"]:  # pragma: no cover - correctness guard
        print("error: modularity changed under relabeling", file=sys.stderr)
        return 1
    return 0


def build_reqtrace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro reqtrace",
        description="Inspect repro.reqtrace/1 documents (written by "
                    "'repro fleet --reqtrace' / 'repro serve "
                    "--reqtrace'): summarize retention, list the "
                    "slowest requests, print one trace, or diff the "
                    "kept sets of two documents",
    )
    p.add_argument("input", type=Path, nargs="+",
                   help="reqtrace JSON document (two with --diff)")
    p.add_argument("--slowest", type=int, default=None, metavar="N",
                   help="list the N slowest kept requests (latency "
                        "desc, seq asc on ties)")
    p.add_argument("--trace-id", default=None, metavar="ID",
                   help="print the full JSON of one kept trace")
    p.add_argument("--diff", action="store_true",
                   help="compare the kept sets (traces with keep "
                        "reasons) of two documents; exit 1 when they "
                        "differ")
    return p


def reqtrace_main(argv: list[str] | None = None) -> int:
    """``repro reqtrace`` — inspect request-trace documents."""
    import json

    from repro.observability.reqtrace import validate_reqtrace

    args = build_reqtrace_parser().parse_args(argv)
    want = 2 if args.diff else 1
    if len(args.input) != want:
        print(f"error: expected {want} input document(s), "
              f"got {len(args.input)}", file=sys.stderr)
        return 2
    docs = []
    for path in args.input:
        try:
            doc = json.loads(path.read_text())
            validate_reqtrace(doc)
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        docs.append(doc)

    if args.diff:
        # "Kept" = annotated with at least one keep reason, so a full
        # document diffs cleanly against its sampled twin (the A/B the
        # ext_fleet_reqtrace bench pins).
        kept = [{t["trace_id"]: t for t in d["traces"]
                 if t.get("keep_reasons")} for d in docs]
        a, b = kept
        only_a = sorted(set(a) - set(b))
        only_b = sorted(set(b) - set(a))
        changed = sorted(
            tid for tid in set(a) & set(b)
            if (a[tid]["status"], a[tid]["latency_units"])
            != (b[tid]["status"], b[tid]["latency_units"]))
        for tid in only_a:
            print(f"ONLY-A {tid} seq={a[tid]['seq']}")
        for tid in only_b:
            print(f"ONLY-B {tid} seq={b[tid]['seq']}")
        for tid in changed:
            print(f"CHANGED {tid} "
                  f"a=({a[tid]['status']},{a[tid]['latency_units']}) "
                  f"b=({b[tid]['status']},{b[tid]['latency_units']})")
        if only_a or only_b or changed:
            print(f"kept sets differ: {len(only_a)} only-A, "
                  f"{len(only_b)} only-B, {len(changed)} changed")
            return 1
        print(f"kept sets identical ({len(a)} traces)")
        return 0

    doc = docs[0]
    if args.trace_id is not None:
        for t in doc["traces"]:
            if t["trace_id"] == args.trace_id:
                print(json.dumps(t, sort_keys=True, indent=2))
                return 0
        print(f"error: trace {args.trace_id!r} not in document "
              f"(dropped by sampling, or never minted)", file=sys.stderr)
        return 1
    if args.slowest is not None:
        ranked = sorted(doc["traces"],
                        key=lambda t: (-t["latency_units"], t["seq"]))
        for t in ranked[:args.slowest]:
            reasons = ",".join(t.get("keep_reasons", [])) or "-"
            print(f"{t['trace_id']} seq={t['seq']} kind={t['kind']} "
                  f"status={t['status']} "
                  f"latency={t['latency_units']:.0f} "
                  f"spans={len(t['spans'])} keep={reasons}")
        return 0
    totals = doc["totals"]
    sampling = doc["sampling"]
    print(f"schema: {doc['schema']}")
    print(f"mode: {sampling.get('mode')}  seed: {doc['meta'].get('seed')}")
    print(f"requests: {totals.get('requests')}  kept: {totals.get('kept')}"
          f"  dropped: {totals.get('dropped')}  spans: "
          f"{totals.get('spans')}")
    by_reason = totals.get("by_reason", {})
    if by_reason:
        print("kept by reason: " + ", ".join(
            f"{r}={n}" for r, n in sorted(by_reason.items())))
    dumps = doc["flight"].get("dumps", [])
    print(f"flight dumps: {len(dumps)}")
    for d in dumps:
        print(f"  {d['reason']} at {d['at_units']:.0f} "
              f"({len(d['traces'])} traces)")
    return 0


def build_fleet_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro fleet",
        description="Run a seeded hot-key Zipfian workload against a "
                    "sharded partition-server fleet (consistent-hash "
                    "routing, replicated writes, cross-shard query "
                    "fan-out, replica failover) and emit the "
                    "deterministic stats JSON — no wall-clock fields, "
                    "so two runs with the same arguments are "
                    "byte-identical",
    )
    p.add_argument("--shards", type=int, default=3,
                   help="number of partition-server shards")
    p.add_argument("--replicas", type=int, default=1,
                   help="replication factor R (placement width is "
                        "min(R, shards))")
    p.add_argument("--virtual-nodes", type=int, default=64,
                   help="virtual nodes per shard on the hash ring")
    p.add_argument("--profile", default="quick",
                   help="fleet workload profile name (see "
                        "FLEET_PROFILES; unknown names exit 2 with the "
                        "valid list)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kill", action="append", default=[],
                   metavar="SHARD:AT",
                   help="fault script: kill SHARD (a shard id, a shard "
                        "index, or 'primary' = the hottest key's "
                        "primary) just before steady-state query AT; "
                        "repeatable")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the served-vs-from-scratch and replica "
                        "consistency checks")
    p.add_argument("--output", type=Path, default=None,
                   help="write the result JSON here instead of stdout")
    p.add_argument("--metrics", type=Path, default=None,
                   dest="metrics_output",
                   help="also run with per-shard metric registries and "
                        "the fleet SLO evaluator attached and write the "
                        "merged fleet snapshot JSON (repro.metrics/1, "
                        "with the repro.health/1 block) here")
    p.add_argument("--reqtrace", type=Path, default=None,
                   dest="reqtrace_output",
                   help="attach the request tracer (+ fleet SLO "
                        "evaluator) and write the repro.reqtrace/1 "
                        "document — per-request causal spans, "
                        "deterministic trace ids, tail-sampling "
                        "annotations and flight-recorder dumps — here; "
                        "byte-identical across double runs")
    p.add_argument("--reqtrace-chrome", type=Path, default=None,
                   help="also write the merged Chrome-trace view of the "
                        "kept request traces (one lane per shard plus "
                        "the router lane, flow events stitching "
                        "cross-shard hops); open in a Chrome trace "
                        "viewer")
    p.add_argument("--reqtrace-mode", choices=("full", "sampled"),
                   default="full",
                   help="trace retention: keep every finished trace "
                        "(full) or only the deterministic tail sample "
                        "(sampled)")
    p.add_argument("--mem", type=Path, default=None, dest="mem_output",
                   help="also run with a per-shard memory ledger "
                        "attached and write the merged fleet "
                        "repro.memory/1 report (per-shard logical "
                        "sections summed; shard iteration sorted, so "
                        "byte-deterministic) here")
    p.add_argument("--compact", action="store_true",
                   help="single-line JSON (default: indented)")
    return p


def fleet_main(argv: list[str] | None = None) -> int:
    """``repro fleet`` — drive a sharded fleet through a workload."""
    import json

    from repro.fleet.fleet import FleetConfig, PartitionFleet
    from repro.fleet.workload import FLEET_PROFILES, run_fleet_workload

    args = build_fleet_parser().parse_args(argv)
    if args.profile not in FLEET_PROFILES:
        return _reject_unknown_profile(
            args.profile, FLEET_PROFILES, what="fleet workload")
    kills = []
    for spec in args.kill:
        target, sep, at = spec.rpartition(":")
        if not sep or not at.isdigit():
            print(f"error: bad --kill spec {spec!r}; expected SHARD:AT "
                  f"(e.g. 'primary:10' or '1:10')", file=sys.stderr)
            return 2
        kills.append((target, int(at)))
    try:
        fleet_config = FleetConfig(
            num_shards=args.shards,
            replicas=args.replicas,
            virtual_nodes=args.virtual_nodes,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fleet = None
    reqtrace = None
    with_reqtrace = (args.reqtrace_output is not None
                     or args.reqtrace_chrome is not None)
    if (args.metrics_output is not None or with_reqtrace
            or args.mem_output is not None):
        from repro.observability.health import (
            HealthEvaluator,
            default_fleet_slos,
        )
        from repro.observability.metrics import MetricsRegistry

        if with_reqtrace:
            from repro.observability.reqtrace import RequestTracer

            reqtrace = RequestTracer(seed=args.seed,
                                     mode=args.reqtrace_mode)
        with_metrics = args.metrics_output is not None
        fleet = PartitionFleet(
            fleet_config,
            metrics=MetricsRegistry() if with_metrics else None,
            # The SLO evaluator always rides along here: it feeds the
            # health block of the metrics snapshot *and* the flight
            # recorder's PAGE trigger.
            health=HealthEvaluator(default_fleet_slos()),
            reqtrace=reqtrace,
            memory=args.mem_output is not None,
        )
    result = run_fleet_workload(
        args.profile,
        seed=args.seed,
        fleet=fleet,
        fleet_config=fleet_config,
        kills=kills,
        verify=not args.no_verify,
    )
    text = json.dumps(result.to_json_dict(), sort_keys=True,
                      indent=None if args.compact else 2)
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"fleet stats written to {args.output}")
    else:
        print(text)
    if args.metrics_output is not None:
        snapshot = fleet.metrics_snapshot(
            experiment=f"fleet:{args.profile}",
            seed=args.seed,
            clock_units=int(fleet.clock_units()),
        )
        args.metrics_output.write_text(json.dumps(
            snapshot, sort_keys=True,
            indent=None if args.compact else 2) + "\n")
        print(f"fleet metrics written to {args.metrics_output}")
    if args.reqtrace_output is not None:
        from repro.observability.reqtrace import validate_reqtrace

        doc = reqtrace.to_json_dict(
            experiment=f"fleet:{args.profile}",
            shards=int(args.shards), replicas=int(args.replicas))
        validate_reqtrace(doc)
        args.reqtrace_output.write_text(json.dumps(
            doc, sort_keys=True,
            indent=None if args.compact else 2) + "\n")
        print(f"request traces written to {args.reqtrace_output}")
    if args.reqtrace_chrome is not None:
        from repro.observability.profiler import (
            chrome_trace_json,
            validate_chrome_trace,
        )

        chrome = reqtrace.to_chrome_trace(
            experiment=f"fleet:{args.profile}", seed=args.seed)
        validate_chrome_trace(chrome)
        args.reqtrace_chrome.write_text(chrome_trace_json(
            chrome, indent=None if args.compact else 1) + "\n")
        print(f"request-trace chrome view written to "
              f"{args.reqtrace_chrome}")
    if args.mem_output is not None:
        mem_doc = fleet.memory_snapshot(
            experiment=f"fleet:{args.profile}", seed=args.seed)
        args.mem_output.write_text(json.dumps(
            mem_doc, sort_keys=True,
            indent=None if args.compact else 2) + "\n")
        print(f"fleet memory report written to {args.mem_output}")
    if not args.no_verify:
        bad = [n for n, ok in result.membership_matches_scratch.items()
               if not ok]
        bad += [n for n, ok in result.replicas_consistent.items()
                if not ok]
        if bad:
            print("error: fleet verification failed for "
                  f"{sorted(set(bad))}", file=sys.stderr)
            return 1
    return 0


#: First-token subcommands understood by :func:`main`.
_SUBCOMMANDS = ("run", "trace", "profile", "metrics", "bench", "serve",
                "reorder", "fleet", "reqtrace", "mem")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        from repro.bench.__main__ import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "metrics":
        return metrics_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "reorder":
        return reorder_main(argv[1:])
    if argv and argv[0] == "fleet":
        return fleet_main(argv[1:])
    if argv and argv[0] == "reqtrace":
        return reqtrace_main(argv[1:])
    if argv and argv[0] == "mem":
        return mem_main(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_datasets:
        for name in registry_names():
            print(name)
        return 0
    if args.input is None:
        parser.error("the following arguments are required: input")
    try:
        return _run(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    """Body of ``repro run``: load, detect, report."""
    graph = _load(args.input)
    config = LeidenConfig.variant(
        args.variant,
        refinement=args.refinement,
        vertex_label=args.vertex_label,
        quality=args.quality,
        engine=args.engine,
        resolution=args.resolution,
        max_passes=args.max_passes,
        seed=args.seed,
        relabel=args.relabel,
    )
    algo = leiden if args.algorithm == "leiden" else louvain
    rt = _make_runtime(args)
    try:
        result = algo(graph, config, runtime=rt)
    finally:
        rt.close()

    q = modularity(graph, result.membership, resolution=args.resolution)
    print(f"graph: {args.input}")
    print(f"vertices: {graph.num_vertices}  edges: {graph.num_edges}")
    print(f"algorithm: {args.algorithm} ({args.refinement}, {args.variant})")
    print(f"passes: {result.num_passes}  communities: {result.num_communities}")
    if getattr(result, "relabeling", None) is not None:
        relab = result.relabeling
        print(f"relabel: {relab.mode} "
              f"({relab.num_communities} layout communities)")
    print(f"modularity: {q:.6f}")
    print(f"wall time: {result.wall_seconds:.3f}s")
    if args.check_connectivity:
        report = disconnected_communities(graph, result.membership)
        print(f"disconnected communities: {report.num_disconnected} "
              f"({report.fraction:.2e})")
    if args.summary:
        from repro.metrics.summary import summarize_partition

        summary = summarize_partition(graph, result.membership)
        pct = summary.size_percentiles()
        print(f"coverage: {summary.coverage:.4f}")
        print("community sizes (min/25%/median/75%/max): "
              + "/".join(f"{pct[q]:.0f}" for q in (0, 25, 50, 75, 100)))
        worst = summary.worst_conductance(3)
        for c in worst:
            print(f"  weakest community {c.community_id}: size {c.size}, "
                  f"conductance {c.conductance:.3f}")
    if args.output is not None:
        args.output.write_text(
            "\n".join(str(int(c)) for c in result.membership) + "\n"
        )
        print(f"membership written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

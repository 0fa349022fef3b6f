"""Benchmark entry point.

    python3 perfbench/run.py --workload solve-dense --seed 1 --seconds 20 --trace 0

Runs one workload of ``BENCHMARK.json`` against the package under
``src/`` of the checkout it sits in, checks its outputs, prints each
metric by name with its unit and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics from untraced code; ``--trace 1`` wraps the
program's layer calls, reports the per-layer metrics and writes the spans
under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_pids() -> list:
    """Pids of this process's children, from ``/proc``."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # The command name in parentheses may hold spaces; ppid follows it.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def stop_children(grace: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The process engine's workers are joined by ``Runtime.close``; what is
    left is the ``multiprocessing`` resource tracker, which the shared
    memory segments start, which ignores SIGTERM and which would otherwise
    outlive this process: closing its pipe stops it.  Any other child is
    sent SIGTERM, then SIGKILL after ``grace`` seconds.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    pids = _child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace
    while pids:
        for pid in list(pids):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pids.remove(pid)
        if pids and time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        if pids:
            time.sleep(0.01)


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no package to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    trace = bool(args.trace)
    run = workloads.run_workload(args.workload, args.seed, args.seconds, trace)

    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(run.metrics) != set(units):
        _fail("measured metrics do not match BENCHMARK.json: missing "
              f"{sorted(set(units) - set(run.metrics))}, extra "
              f"{sorted(set(run.metrics) - set(units))}")
    if trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        run.log.dump(path)
        run.notes.append(f"spans: {len(run.log.names)} written to {path}")

    for note in run.notes:
        print(f"# {note}")
    for problem in run.problems:
        print(f"! {problem}")
    for m in declared:
        print(f"{m['name']} = {run.metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

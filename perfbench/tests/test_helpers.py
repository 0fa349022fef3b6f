"""Tests of the benchmark's own helpers: the tail-percentile rule, span
self-time arithmetic, the call wrappers, and due-time latency in the open
loop measured against a stub server that stalls."""

import json
import time

import numpy as np
import pytest

import layers
import measure
import openloop
from repro.errors import ServiceOverloadError
from spans import Patches, SpanLog, layer_totals


class TestTail:
    def test_p99_when_enough_samples(self):
        t = measure.tail(range(1, 1001))
        assert (t.value, t.level, t.beyond) == (990.0, 99.0, 10)

    def test_lowered_to_keep_ten_beyond(self):
        t = measure.tail(range(1, 51))
        assert t.value == 40.0 and t.beyond == 10
        assert t.level == pytest.approx(80.0)
        assert "p80.00 of 50 samples, 10 beyond it" in t.describe()

    def test_too_few_samples_reports_median(self):
        t = measure.tail([3.0, 1.0, 2.0, 40.0])
        assert t.value == 2.5 and t.level == 50.0
        assert "median of 4 samples" in t.describe()

    def test_order_free(self):
        xs = list(np.random.default_rng(0).random(200))
        assert measure.tail(xs) == measure.tail(sorted(xs, reverse=True))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            measure.tail([])

    def test_windowed_tail_ignores_one_stalled_window(self):
        dues = [i / 100 for i in range(500)]  # 5 s, 100 per second
        values = [1.0] * 500
        for i in range(100, 130):
            values[i] = 50.0  # a stall in the second window
        value, tails = measure.windowed_tail(dues, values, 5.0, 5)
        assert value == 1.0
        assert [t.value for t in tails] == [1.0, 50.0, 1.0, 1.0, 1.0]
        assert all(t.samples == 100 and t.beyond == 10 for t in tails)
        assert measure.tail(values).value == 50.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(log, clock, name, start, end, inner=()):
    clock.now = start
    idx = log.begin(name)
    for child in inner:
        child()
    clock.now = end
    log.end(idx)


class TestSelfTime:
    def test_self_is_duration_minus_direct_children(self):
        clock = FakeClock()
        log = SpanLog(clock)
        _span(log, clock, "a", 0.0, 10.0, inner=[
            lambda: _span(log, clock, "b", 1.0, 4.0),
            lambda: _span(log, clock, "c", 5.0, 9.0, inner=[
                lambda: _span(log, clock, "d", 6.0, 7.0)]),
        ])
        t = layer_totals(log)
        assert t.busy["a"] == 10.0
        assert t.self_time["a"] == pytest.approx(3.0)  # 10 - 3 - 4
        assert t.self_time["c"] == pytest.approx(3.0)  # 4 - 1
        assert t.self_time["d"] == pytest.approx(1.0)
        assert log.parents == [-1, 0, 0, 2]

    def test_recursion_not_counted_twice_in_busy(self):
        clock = FakeClock()
        log = SpanLog(clock)
        _span(log, clock, "f", 0.0, 5.0, inner=[
            lambda: _span(log, clock, "f", 1.0, 3.0)])
        t = layer_totals(log)
        assert t.calls["f"] == 2
        assert t.busy["f"] == 5.0
        assert t.self_time["f"] == pytest.approx(5.0)

    def test_out_of_order_close_rejected(self):
        log = SpanLog()
        a = log.begin("a")
        log.begin("b")
        with pytest.raises(RuntimeError):
            log.end(a)

    def test_dump_round_trips(self, tmp_path):
        clock = FakeClock()
        log = SpanLog(clock)
        _span(log, clock, "a", 0.0, 2.0,
              inner=[lambda: _span(log, clock, "b", 0.5, 1.0)])
        log.count("b.elems", 7)
        path = tmp_path / "spans.json"
        log.dump(path)
        doc = json.loads(path.read_text())
        assert doc["names"] == ["a", "b"]
        assert doc["spans"] == [[0, 0.0, 2.0, -1], [1, 0.5, 1.0, 0]]
        assert doc["counts"] == {"b.elems": 7.0}


class TestPatches:
    def test_wrap_records_and_remove_restores(self):
        class Target:
            @staticmethod
            def work(x):
                return x * 2

        original = Target.work
        log = SpanLog()
        p = Patches(log)
        p.wrap(Target, "work", "layer.work",
               lambda log, idx, a, k, out: log.count("work.elems", out))
        assert Target.work(4) == 8
        assert log.names == ["layer.work"] and log.counts["work.elems"] == 8
        p.remove()
        assert Target.work is original

    def test_span_closed_when_call_raises(self):
        class Target:
            @staticmethod
            def boom():
                raise KeyError("x")

        log = SpanLog()
        p = Patches(log)
        p.wrap(Target, "boom", "boom")
        with pytest.raises(KeyError):
            Target.boom()
        p.remove()
        assert len(log.names) == 1 and log.ends[0] >= log.starts[0]
        log.reset()  # nothing left open

    def test_per_layer_names_match_benchmark_json(self):
        spec = json.loads(_bench_json().read_text())
        declared = {m["name"] for m in spec["per_layer"]}
        produced = set(layers.per_layer(SpanLog(), per=1.0))
        produced |= {"host.calib_ms", "tracing.solve_s_untraced",
                     "tracing.solve_s_traced", "tracing.overhead_frac"}
        assert produced == declared


def _bench_json():
    from pathlib import Path

    return Path(layers.__file__).resolve().parent.parent / "BENCHMARK.json"


class _Ticket:
    def __init__(self, req):
        self.request = req
        self.status = "pending"

    @property
    def done(self):
        return self.status != "pending"


class StallingServer:
    """Processes one request per step; the request named ``stall`` makes
    its step take ``stall_s``.  Requests named ``refuse`` are refused."""

    def __init__(self, stall_s):
        self.stall_s = stall_s
        self.queue = []

    def submit(self, req):
        if req == "refuse":
            raise ServiceOverloadError("full")
        t = _Ticket(req)
        self.queue.append(t)
        return t

    def step(self):
        if not self.queue:
            return None
        t = self.queue.pop(0)
        if t.request == "stall":
            time.sleep(self.stall_s)
        t.status = "done"
        return t


class TestOpenLoop:
    def _run(self):
        arrivals = [
            openloop.Arrival(0.00, "query", "stall"),
            openloop.Arrival(0.01, "query", "q1"),
            openloop.Arrival(0.05, "query", "q2"),
            openloop.Arrival(0.06, "query", "refuse"),
            openloop.Arrival(0.30, "query", "q3"),
        ]
        return openloop.run_open_loop(StallingServer(0.2), arrivals)

    def test_latency_counts_from_due_time(self):
        out = self._run().outcomes
        stall, q1, q2, refused, q3 = out
        assert stall.latency >= 0.2
        # Due during the stall: each waits out the rest of it.
        assert q1.latency >= 0.19 - 1e-3
        assert q2.latency >= 0.15 - 1e-3
        # Submitted late, because the generator shares the stalled thread.
        assert q1.late >= 0.18 and q2.late >= 0.14
        # Due after the stall: served promptly and sent on time.
        assert q3.latency < 0.05 and q3.late < 0.05

    def test_refused_is_failed_without_latency(self):
        refused = self._run().outcomes[3]
        assert refused.refused and refused.status == "refused"
        assert refused.latency is None

    def test_all_others_done(self):
        out = self._run().outcomes
        assert [o.status for o in out] == [
            "done", "done", "done", "refused", "done"]


def test_poisson_times_seeded_and_bounded():
    a = openloop.poisson_times(np.random.default_rng(3), 300.0, 5.0)
    b = openloop.poisson_times(np.random.default_rng(3), 300.0, 5.0)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 5.0 and np.all(np.diff(a) >= 0)
    assert a.shape[0] == 1500


def test_paced_times_one_per_slot():
    a = openloop.paced_times(10.0, 5.0)
    assert a.shape[0] == 50
    assert np.allclose(np.diff(a), 0.1) and a[0] == 0.05


class TestStopChildren:
    def test_tracker_and_stray_children_are_ended(self):
        # Run in a fresh interpreter: pytest's own children are not ours.
        # The resource tracker ignores SIGTERM, so ending well inside the
        # grace period shows it was stopped, not killed.
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import subprocess, time, run\n"
            "from multiprocessing import shared_memory\n"
            "seg = shared_memory.SharedMemory(create=True, size=64)\n"
            "seg.close(); seg.unlink()\n"
            "subprocess.Popen(['sleep', '60'])\n"
            "assert len(run._child_pids()) == 2, run._child_pids()\n"
            "t0 = time.monotonic()\n"
            "run.stop_children(grace=20.0)\n"
            "print(run._child_pids(), time.monotonic() - t0 < 10)\n"
        )
        bench = Path(__file__).resolve().parent.parent
        out = subprocess.run([sys.executable, "-c", code], cwd=bench,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[] True"

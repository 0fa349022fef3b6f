"""Tests for the partition server event loop."""

import numpy as np
import pytest

from repro.core.config import LeidenConfig
from repro.core.leiden import leiden
from repro.datasets.registry import graph_spec
from repro.dynamic.batch import EdgeBatch, apply_batch, random_batch
from repro.errors import ServiceError, ServiceOverloadError
from repro.observability.tracer import Tracer
from repro.service.requests import (
    DetectRequest,
    QueryRequest,
    StatsRequest,
    UpdateRequest,
)
from repro.service.server import STATS_SCHEMA, PartitionServer, ServiceConfig
from repro.service.store import DEGRADED, FRESH, STALE
from tests.conftest import ring_of_cliques_graph, two_cliques_graph


def make_server(**kwargs) -> PartitionServer:
    cfg = ServiceConfig(leiden=LeidenConfig(seed=1), **kwargs)
    return PartitionServer(cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ServiceError):
            ServiceConfig(queue_capacity=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_pending_updates=0)
        with pytest.raises(ServiceError):
            ServiceConfig(full_recompute_threshold=1.5)
        with pytest.raises(ServiceError):
            ServiceConfig(max_retries=-1)


class TestDetect:
    def test_detect_solves_and_stores(self):
        srv = make_server()
        ticket = srv.detect(two_cliques_graph())
        assert ticket.status == "done"
        assert ticket.response["num_communities"] == 2
        assert srv.store.peek(ticket.response["key"]).state == FRESH
        assert srv.counters["detect_runs"] == 1

    def test_repeat_detect_hits_cache(self):
        srv = make_server()
        srv.detect(two_cliques_graph())
        srv.detect(two_cliques_graph())  # same content, new object
        assert srv.counters["detect_runs"] == 1
        assert srv.counters["detect_cache_hits"] == 1

    def test_inflight_detects_coalesce(self):
        srv = make_server()
        g = two_cliques_graph()
        t1 = srv.submit(DetectRequest(g))
        t2 = srv.submit(DetectRequest(two_cliques_graph()))
        assert t2 is t1
        srv.drain()
        assert t1.status == "done"
        assert t1.coalesced == 1
        assert srv.counters["detect_runs"] == 1

    def test_clock_advances_by_solver_work(self):
        srv = make_server()
        srv.detect(two_cliques_graph())
        assert srv.clock > 0


class TestQuery:
    def test_query_kinds(self):
        srv = make_server()
        key = srv.detect(two_cliques_graph()).response["key"]
        t = srv.query(key, "community_of", vertex=0)
        c = t.response["value"]
        members = srv.query(key, "members", community=c).response["value"]
        assert 0 in members.tolist()
        nc = srv.query(key, "neighbor_communities",
                       vertex=0).response["value"]
        assert nc["communities"].shape == nc["weights"].shape
        m = srv.query(key, "membership").response["value"]
        assert m.shape[0] == 10

    def test_unknown_key_not_found(self):
        srv = make_server()
        t = srv.query("nope")
        assert t.status == "not_found"
        assert srv.counters["queries_not_found"] == 1

    def test_query_never_recomputes(self):
        srv = make_server()
        key = srv.detect(two_cliques_graph()).response["key"]
        runs = srv.counters["detect_runs"]
        for v in range(10):
            srv.query(key, "community_of", vertex=v)
        assert srv.counters["detect_runs"] == runs
        assert (srv.counters["incremental_refreshes"]
                + srv.counters["full_recomputes"]) == 0


class TestQueryBounds:
    """Out-of-range vertices and communities fail their own ticket and
    leave the loop serving; asia_osm has n = 12,000 vertices."""

    @pytest.fixture(scope="class")
    def served(self):
        srv = make_server()
        g = graph_spec("asia_osm").generator(0)
        key = srv.detect(g).response["key"]
        k = srv.store.peek(key).index.num_communities
        return srv, key, g.num_vertices, k

    def _drain_one(self, srv, request):
        ticket = srv.submit(request)
        srv.drain()
        return ticket

    @pytest.mark.parametrize("query,field,bad", [
        ("community_of", "vertex", 12005),
        ("community_of", "vertex", 12000),
        ("community_of", "vertex", -1),
        ("neighbor_communities", "vertex", 12005),
        ("neighbor_communities", "vertex", -1),
        ("members", "community", -1),
    ])
    def test_out_of_range_fails_and_loop_keeps_running(
            self, served, query, field, bad):
        srv, key, n, _k = served
        assert n == 12000
        failed = self._drain_one(srv, QueryRequest(key, query, **{field: bad}))
        assert failed.status == "failed"
        assert "error" in failed.response
        assert "value" not in failed.response
        ok = self._drain_one(srv, QueryRequest(key, vertex=n - 1))
        assert ok.status == "done"
        assert ok.response["value"] == int(
            srv.store.peek(key).membership[n - 1])

    def test_members_past_last_community_fails(self, served):
        srv, key, _n, k = served
        assert srv.query(key, "members", community=k - 1).status == "done"
        assert srv.query(key, "members", community=k).status == "failed"

    def test_rejection_counter_appears_on_first_rejection(self):
        srv = make_server()
        key = srv.detect(two_cliques_graph()).response["key"]
        srv.query(key, vertex=3)
        assert "queries_rejected" not in srv.stats()["counters"]
        served = srv.counters["queries_served"]
        assert srv.query(key, vertex=10).status == "failed"
        assert srv.query(key, vertex=-1).status == "failed"
        assert srv.stats()["counters"]["queries_rejected"] == 2
        assert srv.counters["queries_served"] == served


class TestUpdate:
    def test_update_serves_stale_until_flush(self):
        srv = make_server(max_pending_updates=8)
        g = two_cliques_graph()
        key = srv.detect(g).response["key"]
        srv.update(key, EdgeBatch.from_edges([(0, 7)]))
        while srv.step() is not None:
            pass
        entry = srv.store.peek(key)
        assert entry.state == STALE
        t = srv.query(key, "community_of", vertex=0)
        assert t.response["state"] == STALE
        assert srv.counters["queries_served_stale"] == 1

    def test_flush_at_max_pending(self):
        srv = make_server(max_pending_updates=2)
        g = ring_of_cliques_graph()
        key = srv.detect(g).response["key"]
        srv.update(key, random_batch(g, num_insertions=2, seed=1))
        while srv.step() is not None:
            pass
        assert srv.counters["update_flushes"] == 0
        srv.update(key, random_batch(g, num_insertions=2, seed=2))
        while srv.step() is not None:
            pass
        assert srv.counters["update_flushes"] == 1
        assert srv.store.peek(key).state == FRESH
        assert srv.store.peek(key).version == 2

    def test_queue_level_micro_batching(self):
        """Back-to-back UPDATEs ride one flush: the queued backlog is
        pulled in when the first reaches the head."""
        srv = make_server(max_pending_updates=3)
        g = ring_of_cliques_graph()
        key = srv.detect(g).response["key"]
        tickets = [
            srv.submit(UpdateRequest(
                key, random_batch(g, num_insertions=2, seed=i)))
            for i in range(3)
        ]
        while srv.step() is not None:
            pass
        assert srv.counters["update_flushes"] == 1
        assert srv.counters["updates_coalesced"] == 2
        assert all(t.status == "done" for t in tickets)

    def test_unknown_key_not_found(self):
        srv = make_server()
        t = srv.update("nope", EdgeBatch.from_edges([(0, 1)]))
        while srv.step() is not None:
            pass
        assert t.status == "not_found"

    def test_full_recompute_fallback(self):
        """A batch touching more than the threshold fraction recomputes
        from scratch instead of warm-starting."""
        srv = make_server(full_recompute_threshold=0.05,
                          max_pending_updates=1)
        g = ring_of_cliques_graph()
        key = srv.detect(g).response["key"]
        srv.update(key, random_batch(g, num_insertions=20, seed=3))
        while srv.step() is not None:
            pass
        assert srv.counters["full_recomputes"] == 1
        assert srv.counters["incremental_refreshes"] == 0


class TestDrainAndReconcile:
    def test_membership_matches_scratch_after_drain(self):
        srv = make_server()
        g = ring_of_cliques_graph()
        key = srv.detect(g).response["key"]
        batches = [random_batch(g, num_insertions=3, num_deletions=2,
                                seed=i) for i in range(3)]
        for b in batches:
            srv.update(key, b)
        srv.drain()
        entry = srv.store.peek(key)
        final = g
        for b in batches:
            final = apply_batch(final, b)
        scratch = leiden(final, srv.config.leiden)
        assert entry.graph == final
        assert np.array_equal(entry.membership, scratch.membership)
        assert entry.state == FRESH

    def test_reconcile_disabled(self):
        srv = PartitionServer(ServiceConfig(
            leiden=LeidenConfig(seed=1), reconcile_on_drain=False,
            full_recompute_threshold=1.0))
        g = ring_of_cliques_graph()
        key = srv.detect(g).response["key"]
        srv.update(key, random_batch(g, num_insertions=2, seed=1))
        srv.drain()
        assert srv.counters["reconciles"] == 0


class TestBackpressure:
    def test_overload_raises(self):
        srv = make_server(queue_capacity=2)
        srv.submit(QueryRequest("a"))
        srv.submit(QueryRequest("b"))
        with pytest.raises(ServiceOverloadError):
            srv.submit(QueryRequest("c"))
        srv.drain()
        srv.submit(QueryRequest("c"))  # admitted after drain


class TestFaults:
    def test_retry_then_succeed(self):
        fails = {"n": 0}

        def hook(op, attempt):
            if op == "detect" and attempt == 0:
                fails["n"] += 1
                raise RuntimeError("injected")

        srv = PartitionServer(
            ServiceConfig(leiden=LeidenConfig(seed=1), max_retries=2),
            fault_hook=hook)
        t = srv.detect(two_cliques_graph())
        assert t.status == "done"
        assert fails["n"] == 1
        assert srv.counters["solve_retries"] == 1
        assert srv.counters["solve_failures"] == 0

    def test_backoff_advances_clock(self):
        def hook(op, attempt):
            if attempt == 0:
                raise RuntimeError("injected")

        cfg = ServiceConfig(leiden=LeidenConfig(seed=1), backoff_units=100)
        srv = PartitionServer(cfg, fault_hook=hook)
        base = PartitionServer(ServiceConfig(leiden=LeidenConfig(seed=1)))
        srv.detect(two_cliques_graph())
        base.detect(two_cliques_graph())
        assert srv.clock == base.clock + 100

    def test_detect_fails_past_budget(self):
        def hook(op, attempt):
            raise RuntimeError("injected")

        srv = PartitionServer(
            ServiceConfig(leiden=LeidenConfig(seed=1), max_retries=1),
            fault_hook=hook)
        t = srv.detect(two_cliques_graph())
        assert t.status == "failed"
        assert srv.counters["solve_failures"] == 1
        assert srv.counters["solve_retries"] == 1

    def test_refresh_failure_degrades_to_last_good(self):
        state = {"fail": False}

        def hook(op, attempt):
            if state["fail"] and op in ("refresh", "reconcile"):
                raise RuntimeError("injected")

        srv = PartitionServer(
            ServiceConfig(leiden=LeidenConfig(seed=1), max_retries=0,
                          max_pending_updates=1),
            fault_hook=hook)
        g = ring_of_cliques_graph()
        key = srv.detect(g).response["key"]
        good = srv.store.peek(key).membership.copy()
        state["fail"] = True
        t = srv.update(key, random_batch(g, num_insertions=2, seed=1))
        while srv.step() is not None:
            pass
        entry = srv.store.peek(key)
        assert t.status == "failed"
        assert entry.state == DEGRADED
        assert np.array_equal(entry.membership, good)  # last good served
        q = srv.query(key, "membership")
        assert q.status == "done"
        # Recovery: the next successful flush returns to FRESH.
        state["fail"] = False
        srv.update(key, random_batch(g, num_insertions=2, seed=2))
        srv.drain()
        assert srv.store.peek(key).state == FRESH


class TestStats:
    def test_schema_and_shape(self):
        srv = make_server()
        key = srv.detect(two_cliques_graph()).response["key"]
        srv.query(key, "community_of", vertex=1)
        doc = srv.stats_snapshot()
        assert doc["schema"] == STATS_SCHEMA
        assert doc["requests"]["detect"] == 1
        assert doc["requests"]["query"] == 1
        assert doc["latency_units"]["query"]["count"] == 1
        assert key in doc["partitions"]
        assert doc["derived"]["query_served_fraction"] == 1.0

    def test_stats_via_request(self):
        srv = make_server()
        t = srv.submit(StatsRequest())
        while srv.step() is not None:
            pass
        assert t.response["schema"] == STATS_SCHEMA

    def test_deterministic_across_runs(self):
        def run():
            srv = make_server()
            key = srv.detect(two_cliques_graph()).response["key"]
            for v in range(5):
                srv.query(key, "community_of", vertex=v)
            srv.update(key, EdgeBatch.from_edges([(2, 8)]))
            srv.drain()
            return srv.stats()

        assert run() == run()


class TestTracing:
    def test_spans_and_latency_histogram(self):
        tracer = Tracer()
        srv = PartitionServer(ServiceConfig(leiden=LeidenConfig(seed=1)),
                              tracer=tracer)
        key = srv.detect(two_cliques_graph()).response["key"]
        srv.query(key, "community_of", vertex=0)
        names = {s.name for s in tracer.root.children}
        assert "service.detect" in names
        assert "service.query" in names
        derived = tracer.derived_metrics()
        assert "service_request_seconds_p50" in derived
        assert "service_latency_units_p99" in derived

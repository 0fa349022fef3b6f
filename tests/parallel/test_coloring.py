"""Tests for the parallel graph coloring."""

import numpy as np

from repro.core.aggregate import aggregate_batch
from repro.graph.builder import build_csr_from_edges
from repro.parallel.coloring import color_classes, color_graph, verify_coloring
from repro.parallel.runtime import Runtime
from tests.conftest import random_graph


class TestColoring:
    def test_path_is_properly_colored(self, path10):
        colors = color_graph(path10)
        assert verify_coloring(path10, colors)

    def test_path_uses_few_colors(self, path10):
        colors = color_graph(path10)
        assert colors.max() <= 4  # chromatic number 2; greedy stays small

    def test_clique_needs_n_colors(self):
        n = 6
        src, dst = zip(*[(i, j) for i in range(n) for j in range(i + 1, n)])
        g = build_csr_from_edges(src, dst)
        colors = color_graph(g)
        assert verify_coloring(g, colors)
        assert len(np.unique(colors)) == n

    def test_star_few_colors(self, star8):
        # Chromatic number is 2; the MIS rounds may spend one extra color
        # on the spokes that lost the first round to the hub.
        colors = color_graph(star8)
        assert verify_coloring(star8, colors)
        assert len(np.unique(colors)) <= 3

    def test_random_graphs_proper(self):
        for seed in range(5):
            g = random_graph(n=80, avg_degree=8, seed=seed)
            colors = color_graph(g, seed=seed)
            assert verify_coloring(g, colors), f"seed {seed}"

    def test_self_loops_ignored(self):
        g = build_csr_from_edges([0, 0], [0, 1])
        colors = color_graph(g)
        assert verify_coloring(g, colors)

    def test_deterministic(self, small_random):
        a = color_graph(small_random, seed=3)
        b = color_graph(small_random, seed=3)
        assert np.array_equal(a, b)

    def test_empty_graph(self):
        from repro.graph.csr import empty_csr
        assert color_graph(empty_csr(0)).shape == (0,)

    def test_isolated_vertices_colored(self):
        from repro.graph.csr import empty_csr
        colors = color_graph(empty_csr(5))
        assert (colors >= 0).all()

    def test_all_vertices_colored(self, small_random):
        colors = color_graph(small_random)
        assert (colors >= 0).all()


def _color_graph_reference(graph, seed=0, max_rounds=256):
    """The original edge-scatter formulation (one ``np.maximum.at`` per
    round over every edge) — kept as the oracle for the production
    priority-DAG peel, which must match it exactly."""
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    src, dst, _ = graph.to_coo()
    notself = src != dst
    src, dst = src[notself], dst[notself]
    rng = np.random.default_rng(seed)
    priority = rng.permutation(n)
    uncolored = np.ones(n, dtype=bool)
    color = 0
    while uncolored.any():
        if color >= max_rounds:
            remaining = np.flatnonzero(uncolored)
            colors[remaining] = color + np.arange(remaining.shape[0])
            break
        live = uncolored[src] & uncolored[dst]
        best = np.full(n, -1, dtype=np.int64)
        if live.any():
            np.maximum.at(best, dst[live], priority[src[live]])
        winners = uncolored & (priority > best)
        colors[winners] = color
        uncolored[winners] = False
        color += 1
    return colors


class TestReferenceEquivalence:
    def test_random_graphs_exact_match(self):
        for seed in range(6):
            g = random_graph(n=60, avg_degree=6, seed=seed)
            for cseed in (0, 1, 42):
                assert np.array_equal(
                    color_graph(g, seed=cseed),
                    _color_graph_reference(g, seed=cseed),
                ), (seed, cseed)

    def test_self_loops_exact_match(self):
        g = build_csr_from_edges([0, 0, 1, 2], [0, 1, 2, 2])
        assert np.array_equal(
            color_graph(g), _color_graph_reference(g)
        )

    def test_max_rounds_fallback_exact_match(self):
        g = random_graph(n=40, avg_degree=20, seed=9)
        assert np.array_equal(
            color_graph(g, seed=3, max_rounds=2),
            _color_graph_reference(g, seed=3, max_rounds=2),
        )

    def test_holey_aggregated_csr_exact_match(self):
        g = random_graph(n=300, avg_degree=8, seed=4)
        membership = np.arange(300) % 70
        sup = aggregate_batch(g, membership, 70, runtime=Runtime())
        assert sup.is_holey
        assert sup.targets.shape[0] > int(sup.degrees.sum())
        for cseed in (0, 5):
            colors = color_graph(sup, seed=cseed)
            assert np.array_equal(
                colors, _color_graph_reference(sup, seed=cseed))
            assert verify_coloring(sup, colors)

    def test_clique_past_default_max_rounds_exact_match(self):
        # 300 colors at the default max_rounds=256: the last 44 vertices
        # take the fallback's fresh colors.
        n = 300
        src, dst = np.triu_indices(n, k=1)
        g = build_csr_from_edges(src, dst)
        colors = color_graph(g, seed=2)
        assert np.array_equal(colors, _color_graph_reference(g, seed=2))
        assert np.array_equal(np.sort(colors), np.arange(n))

    def test_multi_edges_exact_match(self):
        rng = np.random.default_rng(8)
        src = rng.integers(0, 30, 200)
        dst = rng.integers(0, 30, 200)
        g = build_csr_from_edges(src, dst, coalesce=None)
        assert g.num_edges > build_csr_from_edges(src, dst).num_edges
        for cseed in (0, 1, 9):
            assert np.array_equal(
                color_graph(g, seed=cseed),
                _color_graph_reference(g, seed=cseed),
            )

    def test_isolated_vertices_with_edges_exact_match(self):
        # Vertices 0, 3, 7, 8 and 11 have no edges.
        g = build_csr_from_edges([1, 2, 4, 4, 5, 9], [2, 4, 5, 6, 6, 10],
                                 num_vertices=12)
        for cseed in range(4):
            colors = color_graph(g, seed=cseed)
            assert np.array_equal(
                colors, _color_graph_reference(g, seed=cseed))
            assert (colors[[0, 3, 7, 8, 11]] == 0).all()


class TestColorClasses:
    def test_partition_of_vertices(self, small_random):
        colors = color_graph(small_random)
        classes = color_classes(colors)
        flat = np.concatenate(classes)
        assert sorted(flat.tolist()) == list(range(small_random.num_vertices))

    def test_classes_are_independent_sets(self, small_random):
        g = small_random
        colors = color_graph(g)
        member = {}
        for k, cls in enumerate(color_classes(colors)):
            for v in cls.tolist():
                member[v] = k
        src, dst, _ = g.to_coo()
        for u, v in zip(src.tolist(), dst.tolist()):
            if u != v:
                assert member[u] != member[v]

    def test_empty(self):
        assert color_classes(np.empty(0, dtype=np.int64)) == []

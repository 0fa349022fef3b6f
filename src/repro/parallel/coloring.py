"""Parallel greedy graph coloring (Jones-Plassmann priorities).

The batch-parallel local-moving kernel processes vertices in batches that
share one snapshot of the memberships.  If two *adjacent* vertices decide
in the same batch they can swap or chase each other's communities forever
— the classic oscillation of synchronous Louvain.  Ordering vertices by a
proper coloring (a technique the paper cites from Grappolo [11]) removes
the problem: within a color class no two vertices are adjacent, so batch
decisions are exactly as independent as the asynchronous algorithm's.

The colors are those of the standard Jones-Plassmann iteration with random
priorities: in round ``c``, every uncolored vertex whose priority beats
all of its uncolored neighbors' takes color ``c``.  A vertex therefore
wins the first round after its last higher-priority neighbor is colored,
and never earlier, so its color is ``1 +`` the largest color among its
higher-priority neighbors (``0`` if it has none).  That is its level — the
length of the longest path reaching it — in the DAG that points every
non-self edge from higher to lower priority.

So the colors are computed by one topological peel of that DAG instead
of rounds that rescan the live edges: each level decrements the in-edge
counts of the frontier's out-edges only, and the touched vertices whose
count reaches zero form the next level.  A call costs O(E + n), and the
colors are bitwise those of the round-by-round iteration.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.segments import ragged_indices

__all__ = ["color_graph", "color_classes", "verify_coloring"]


def color_graph(
    graph: CSRGraph,
    *,
    seed: int = 0,
    max_rounds: int = 256,
) -> np.ndarray:
    """Proper vertex coloring; returns a color id per vertex.

    Colors are dense ``0..k-1``.  Vertices whose level reaches
    ``max_rounds`` (pathological inputs) are instead given mutually
    distinct fresh colors in ascending id order, preserving properness.
    """
    n = graph.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return colors
    rng = np.random.default_rng(seed)
    priority = rng.permutation(n)
    # Row entries (owner u, neighbor v) with priority[u] > priority[v] are
    # the DAG's edges u -> v; the filter also drops self loops and keeps
    # them grouped by owner, so each owner's out-edges stay one slice.
    # Rows go through ``offsets[:-1]``/``degrees`` for holey CSRs.
    owner, idx = ragged_indices(graph.offsets[:-1], graph.degrees)
    nbr = graph.targets[idx]
    down = priority[owner] > priority[nbr]
    head = nbr[down]
    out_deg = np.bincount(owner[down], minlength=n)
    out_start = np.zeros(n, dtype=np.int64)
    np.cumsum(out_deg[:-1], out=out_start[1:])
    pending = np.bincount(head, minlength=n)
    frontier = np.flatnonzero(pending == 0)
    slot = np.empty(n, dtype=np.int64)
    color = 0
    while frontier.shape[0] > 0:
        if color >= max_rounds:
            rest = np.flatnonzero(colors < 0)
            colors[rest] = color + np.arange(rest.shape[0])
            break
        colors[frontier] = color
        color += 1
        _, hit = ragged_indices(out_start[frontier], out_deg[frontier])
        touched = head[hit]
        np.subtract.at(pending, touched, 1)
        # A vertex is ready once per frontier parent; keep the occurrence
        # whose position its slot ends up holding (whichever write lands).
        ready = touched[pending[touched] == 0]
        pos = np.arange(ready.shape[0])
        slot[ready] = pos
        frontier = ready[slot[ready] == pos]
    return colors


def color_classes(colors: np.ndarray) -> list[np.ndarray]:
    """Vertex-id arrays per color, ascending color then ascending id."""
    if colors.shape[0] == 0:
        return []
    order = np.argsort(colors, kind="stable")
    sorted_colors = colors[order]
    boundaries = np.flatnonzero(
        np.concatenate([[True], sorted_colors[1:] != sorted_colors[:-1]])
    )
    return np.split(order, boundaries[1:])


def verify_coloring(graph: CSRGraph, colors: np.ndarray) -> bool:
    """True iff no edge connects two vertices of the same color."""
    src, dst, _ = graph.to_coo()
    notself = src != dst
    return not bool(np.any(colors[src[notself]] == colors[dst[notself]]))

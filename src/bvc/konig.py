"""Layered vertex cover construction.

From a matching with no augmenting path shorter than 2k+1, the alternating
BFS levels partition each side into classes; unions of class prefixes and
suffixes give k candidate covers whose smallest member is within (1 + 1/k)
of the matching size. The exact cover is König's construction on a
maximum matching: one elimination long enough to leave no augmenting path,
whose last, empty check already holds the full alternating reachability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParam, ShorterPathExists
from .graph import SIDE_A, BipartiteGraph, Matching, SubgraphView, VertexCover
from .matching import eliminate_short_aug_paths
from .primitives import AlternatingLayering, BfsForest, alternating_bfs, pipelined_aggregate
from .runtime import RoundStats, id_bits

INF = math.inf


@dataclass
class LayerPartition:
    """Class indices per side: A-nodes in {0, 1, ..., k, inf}, B-nodes in
    {1, ..., k, inf}. Class 0 holds the free in-view A-nodes; class i >= 1
    holds nodes first reached at alternating level 2i (A side) or 2i - 1
    (B side); unreached nodes are inf."""

    a_class: dict[int, int | float]
    b_class: dict[int, int | float]
    k: int

    @classmethod
    def from_layering(
        cls, view: SubgraphView, layering: AlternatingLayering, k: int
    ) -> "LayerPartition":
        base = view.base
        a_class: dict[int, int | float] = {}
        b_class: dict[int, int | float] = {}
        for v in view.in_nodes:
            lv = layering.level.get(v)
            if base.side[v] == SIDE_A:
                a_class[v] = INF if lv is None else lv // 2
            else:
                b_class[v] = INF if lv is None else (lv + 1) // 2
        return cls(a_class, b_class, k)

    def i_star(self, sizes) -> int:
        """Index of the smallest of the k B-class sizes, ties to the
        smallest index."""
        return min(range(1, self.k + 1), key=lambda i: (sizes[i - 1], i))

    def in_candidate(self, v: int, s: int) -> bool:
        """Whether in-view node v is in the s-th candidate cover: A-classes
        s..k and inf, plus B-classes 1..s."""
        if v in self.a_class:
            c = self.a_class[v]
            return c == INF or s <= c <= self.k
        return self.b_class[v] <= s


def compute_partition(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    k: int,
) -> tuple[LayerPartition, RoundStats]:
    """Distributed layering to depth 2k, classified per node.

    Raises ShorterPathExists if a free B-node shows up at an odd level
    <= 2k - 1, which certifies an augmenting path the caller assumed away.
    """
    if k < 1:
        raise InvalidParam("k must be >= 1")
    layering, stats = alternating_bfs(graph, view, matching, 2 * k, phase="partition")
    witness = min((lv for _, lv in layering.witnesses(view, matching, below=2 * k)), default=None)
    if witness is not None:
        raise ShorterPathExists(f"free B-node at level {witness} <= {2 * k - 1}")
    return LayerPartition.from_layering(view, layering, k), stats


def koenig_approx_cover(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    k: int,
    *,
    forest: BfsForest,
) -> tuple[VertexCover, RoundStats]:
    """Cover of size at most (1 + 1/k) times the matching size, given a
    matching with no augmenting path of length <= 2k - 1.

    Phases: the 2k-level partition, pipelined aggregation of the k B-class
    sizes over the caller's BFS `forest` of the graph, and local selection
    against the componentwise argmin index (ties to the smallest index).
    """
    stats = RoundStats()
    partition, part_stats = compute_partition(graph, view, matching, k)
    stats.add_sequential(part_stats)

    values = {}
    for v in graph.node_ids:
        row = [0] * k
        c = partition.b_class.get(v)
        if c is not None and c != INF and 1 <= c <= k:
            row[int(c) - 1] = 1
        values[v] = tuple(row)
    sums, agg_stats = pipelined_aggregate(
        graph,
        forest,
        values,
        combine="sum",
        value_width=id_bits(graph.n) + 1,
        view=view,
        phase="class-sizes",
    )
    stats.add_sequential(agg_stats)

    # Selection is local once every node knows its component's class sizes.
    nodes = [v for v in view.in_nodes if partition.in_candidate(v, partition.i_star(sums[v]))]
    cover = VertexCover(nodes, view)
    if not cover.is_valid():
        raise AssertionError("layered cover failed validation")
    return cover, stats


def koenig_exact_cover(
    graph: BipartiteGraph,
    view: SubgraphView,
    *,
    seed: int = 0,
) -> tuple[VertexCover, RoundStats]:
    """Exact minimum vertex cover: one elimination with k = n//2 + 1 leaves
    no augmenting path (2k - 1 >= n exceeds every simple path), then keep
    the A-nodes missed by the alternating reachability and the B-nodes it
    reaches. That reachability is the layering of the elimination's last,
    empty check; only an elimination that ran no check (n <= 15) is
    followed by a BFS of its own."""
    matching, layering, stats = eliminate_short_aug_paths(
        graph, view, Matching([], view), graph.n // 2 + 1, seed=seed
    )
    if layering is None:
        layering, bfs_stats = alternating_bfs(
            graph, view, matching, graph.n + 1, phase="reachability"
        )
        stats.add_sequential(bfs_stats)

    base = view.base
    nodes = [
        v
        for v in view.in_nodes
        if (base.side[v] == SIDE_A) == (v not in layering.level)
    ]
    cover = VertexCover(nodes, view)
    if not cover.is_valid() or cover.size != matching.size:
        raise AssertionError("exact cover construction failed its size identity")
    return cover, stats

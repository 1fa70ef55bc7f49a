"""König covers read off an alternating layering.

One rule gives both covers: an in-view node v is in the cover iff
(level(v) >= 2s) == (v is on side A), with level the alternating-BFS level
from the free A-nodes, inf when unreached. At s = inf it is König's
construction, exact on a maximum matching. Given no augmenting path of
length <= 2k - 1, the s in 1..k whose B-class (the B-nodes at level
2s - 1) is smallest gives a cover within (1 + 1/k) of the matching size.
Both covers read the layering of the check that certified their matching.
"""

from __future__ import annotations

import math

from .errors import InvalidParam
from .graph import SIDE_A, BipartiteGraph, Matching, SubgraphView, VertexCover
from .matching import eliminate_short_aug_paths, max_useful_k
from .primitives import AlternatingLayering, Forest, alternating_bfs, pipelined_aggregate
from .runtime import RoundStats, id_bits

INF = math.inf


def _in_cover(view, layering, v, s) -> bool:
    return (layering.level.get(v, INF) >= 2 * s) == (view.base.side[v] == SIDE_A)


def compute_partition(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    k: int,
) -> tuple[AlternatingLayering, RoundStats]:
    """The alternating BFS to depth 2k - 1, in 2k rounds: every level
    the layered cover reads.

    Raises ShorterPathExists if a free B-node shows up at an odd level
    <= 2k - 1, which certifies an augmenting path the caller assumed away.
    """
    if k < 1:
        raise InvalidParam("k must be >= 1")
    layering, stats = alternating_bfs(graph, view, matching, 2 * k - 1, phase="partition")
    layering.require_no_witness_below(view, matching, 2 * k)
    return layering, stats


def koenig_approx_cover(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    k: int,
    *,
    forest: Forest,
    layering: AlternatingLayering | None,
) -> tuple[VertexCover, RoundStats]:
    """Cover of size at most (1 + 1/k) times the matching size, given a
    matching with no augmenting path of length <= 2k - 1; k is capped at
    `max_useful_k`.

    `layering` is the caller's layering of this matching and view, to depth
    2k - 1 or deeper (nothing reads a deeper level), or None to run
    `compute_partition`; either way a free B-node at a level <= 2k - 1
    raises ShorterPathExists. The k B-class sizes, at most n - 1 each (a
    levelled B-node has an A-node predecessor in its tree), are summed in
    id_bits(n) bits over the caller's BFS `forest`, whose roots broadcast the
    rule's s - 1, the argmin, ties to the smallest, in bitlength(k - 1) bits.
    """
    k = min(k, max_useful_k(graph))
    stats = RoundStats()
    if layering is None:
        layering, part_stats = compute_partition(graph, view, matching, k)
        stats.add_sequential(part_stats)
    else:
        layering.require_no_witness_below(view, matching, 2 * k)

    rows = {v: [0] * k for v in graph.node_ids}
    for v, lv in layering.level.items():
        if lv % 2 == 1 and lv < 2 * k:
            rows[v][lv // 2] = 1
    s, agg_stats = pipelined_aggregate(
        graph,
        forest,
        {v: tuple(row) for v, row in rows.items()},
        combine="sum",
        value_width=id_bits(graph.n),
        phase="class-sizes",
        answer=lambda sizes: sizes.index(min(sizes)),
        answer_width=max(1, (k - 1).bit_length()),
    )
    stats.add_sequential(agg_stats)

    cover = VertexCover([v for v in view.in_nodes if _in_cover(view, layering, v, s[v] + 1)], view)
    if not cover.is_valid():
        raise AssertionError("layered cover failed validation")
    return cover, stats


def koenig_exact_cover(
    graph: BipartiteGraph,
    view: SubgraphView,
    *,
    seed: int | None = 0,
) -> tuple[VertexCover, RoundStats]:
    """Exact minimum vertex cover: one elimination with k = n//2 + 1 leaves
    no augmenting path (2k - 1 >= n exceeds every simple path), then the
    rule at s = inf keeps the A-nodes missed by the alternating reachability
    and the B-nodes it reaches. That reachability is the layering of the
    elimination's last, empty check, whose BFS ran only as deep as the
    reachability goes; only an elimination that ran no check (n <= 15) is
    followed by a BFS of its own. Without a seed the elimination follows
    the deterministic rule."""
    matching, layering, stats = eliminate_short_aug_paths(
        graph, view, Matching([], view), max_useful_k(graph), seed=seed
    )
    if layering is None:
        layering, bfs_stats = alternating_bfs(
            graph, view, matching, graph.n + 1, phase="reachability"
        )
        stats.add_sequential(bfs_stats)

    cover = VertexCover([v for v in view.in_nodes if _in_cover(view, layering, v, INF)], view)
    if not cover.is_valid() or cover.size != matching.size:
        raise AssertionError("exact cover construction failed its size identity")
    return cover, stats

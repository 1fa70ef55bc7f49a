"""Sequential ground-truth computations.

Everything here is a plain single-machine algorithm used to validate the
distributed results: maximum matching (layered phases in the Hopcroft-Karp
style), minimum vertex cover via the alternating-reachability construction,
the shortest augmenting path length, the diameter and cluster separation,
which `bvc run` uses to validate its records. These deliberately share no
code with the distributed implementations they are used to check. The
tests check these in turn against networkx, which stays out of the
package: its König cover is one to two orders of magnitude slower than
`min_vc_oracle` on the benchmark's graphs, where the oracle runs once per
record.
"""

from __future__ import annotations

import math
from collections import deque

from .graph import (
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    Matching,
    SubgraphView,
    VertexCover,
    edge_key,
)

INF = math.inf


def free_in_view(view: SubgraphView, matching: Matching, side: str) -> list[int]:
    """In-view nodes of the given side that are unmatched."""
    base = view.base
    return [
        v
        for v in view.in_nodes
        if base.side[v] == side and not matching.is_matched(v)
    ]


def alternating_levels(
    view: SubgraphView, matching: Matching, depth_limit: int | None = None
) -> dict[int, int]:
    """Shortest alternating-path distance from the free A-side nodes.

    Arcs go A->B over non-matching in-view edges and B->A over matching
    edges; unreached nodes are absent from the result.
    """
    base = view.base
    level: dict[int, int] = {}
    frontier = free_in_view(view, matching, SIDE_A)
    for v in frontier:
        level[v] = 0
    depth = 0
    while frontier and (depth_limit is None or depth < depth_limit):
        depth += 1
        nxt = []
        if depth % 2 == 1:
            for a in frontier:
                for b in view.view_neighbors(a):
                    if b in level or matching.partner_of(a) == b:
                        continue
                    level[b] = depth
                    nxt.append(b)
        else:
            for b in frontier:
                a = matching.partner_of(b)
                if a is not None and a not in level and view.contains_node(a):
                    level[a] = depth
                    nxt.append(a)
        frontier = nxt
    return level


def shortest_aug_path_len(view: SubgraphView, matching: Matching) -> int | float:
    """Length of the shortest augmenting path, or inf if none exists."""
    base = view.base
    level = alternating_levels(view, matching)
    best = INF
    for v, lv in level.items():
        if lv % 2 == 1 and base.side[v] == SIDE_B and not matching.is_matched(v):
            best = min(best, lv)
    return best


def _hopcroft_karp(view: SubgraphView) -> dict[int, int]:
    """Maximum matching via repeated phases of shortest augmenting paths.

    Returns the partner map. Iterative throughout: path graphs make the
    natural recursive DFS exceed the interpreter stack.
    """
    base = view.base
    left = [v for v in view.in_nodes if base.side[v] == SIDE_A]
    adj = {a: sorted(view.view_neighbors(a)) for a in left}
    pair: dict[int, int] = {}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue = deque()
        for a in left:
            if a not in pair:
                dist[a] = 0
                queue.append(a)
            else:
                dist[a] = INF
        found = INF
        while queue:
            a = queue.popleft()
            if dist[a] >= found:
                continue
            for b in adj[a]:
                nxt = pair.get(b)
                if nxt is None:
                    found = dist[a] + 1
                elif dist.get(nxt, INF) == INF:
                    dist[nxt] = dist[a] + 1
                    queue.append(nxt)
        return found != INF

    def try_augment(root: int) -> bool:
        # Iterative DFS along the level structure.
        stack = [(root, iter(adj[root]))]
        trail: list[tuple[int, int]] = []
        while stack:
            a, it = stack[-1]
            advanced = False
            for b in it:
                nxt = pair.get(b)
                if nxt is None:
                    trail.append((a, b))
                    for x, y in trail:
                        pair[x] = y
                        pair[y] = x
                    return True
                if dist.get(nxt) == dist[a] + 1:
                    trail.append((a, b))
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                dist[a] = INF
                stack.pop()
                if trail:
                    trail.pop()
        return False

    while bfs():
        for a in left:
            if a not in pair:
                try_augment(a)
    return pair


def max_matching_oracle(view: SubgraphView) -> Matching:
    """A maximum matching of the view (no augmenting path exists w.r.t. it)."""
    pair = _hopcroft_karp(view)
    edges = [edge_key(a, b) for a, b in pair.items() if a < b]
    return Matching(edges, view)


def min_vc_oracle(view: SubgraphView) -> VertexCover:
    """Minimum vertex cover from a maximum matching via alternating
    reachability: cover = (A minus reached) union (B intersect reached)."""
    base = view.base
    matching = max_matching_oracle(view)
    reached = alternating_levels(view, matching)
    cover = [
        v
        for v in view.in_nodes
        if (base.side[v] == SIDE_A and v not in reached)
        or (base.side[v] == SIDE_B and v in reached)
    ]
    return VertexCover(cover, view)


def diameter(graph: BipartiteGraph) -> int:
    """Maximum eccentricity within any connected component.

    A breadth-first search from every node at once: bit i of reach[v] is
    set once node i is within t hops of v, and each pass ORs in the
    neighbors' masks, adding one hop. The diameter is the number of passes
    that still grow some mask."""
    index = {v: i for i, v in enumerate(graph.node_ids)}
    nbrs = [[index[u] for u in graph.adjacency[v]] for v in graph.node_ids]
    reach = [1 << i for i in range(graph.n)]
    passes = 0
    while True:
        grown = list(reach)
        for i, ns in enumerate(nbrs):
            for j in ns:
                grown[i] |= reach[j]
        if grown == reach:
            return passes
        reach = grown
        passes += 1


def clusters_separated(graph: BipartiteGraph, cluster_set, h: int = 3) -> bool:
    """Whether nodes of different clusters in `cluster_set.members` (None
    for unclustered nodes) are always at least h hops apart in `graph`."""
    members = cluster_set.members
    for src in graph.node_ids:
        c = members.get(src)
        if c is None:
            continue
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            if dist[x] >= h - 1:
                continue
            for y in graph.adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        for v, dv in dist.items():
            cv = members.get(v)
            if cv is not None and cv != c and dv < h:
                return False
    return True

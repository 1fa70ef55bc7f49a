"""Sequential ground-truth computations.

Everything here is a plain single-machine algorithm used to validate the
distributed results: maximum matching (layered phases in the Hopcroft-Karp
style), minimum vertex cover via the alternating-reachability construction,
and exact counting of shortest augmenting paths. These deliberately share no
code with the distributed implementations they are used to check.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .errors import PathBudgetExceeded, ShorterPathExists
from .graph import (
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    Edge,
    Matching,
    SubgraphView,
    VertexCover,
    edge_key,
)

INF = math.inf

DEFAULT_PATH_BUDGET = 10**7


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


@dataclass
class AugPathCounts:
    """Exact shortest-augmenting-path counts for one (view, matching, d)."""

    d: int
    node_counts: dict[int, int] = field(default_factory=dict)
    edge_counts: dict[Edge, int] = field(default_factory=dict)
    level_zero: dict[int, bool] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(c for v, c in self.node_counts.items() if self.level_zero.get(v))


def enumerate_aug_paths(view: SubgraphView, matching: Matching, d: int) -> AugPathCounts:
    """Count length-d augmenting paths through every free node and matching
    edge, by prefix/suffix products over the level structure.

    Requires that no augmenting path shorter than d exists; raises
    ShorterPathExists otherwise. With that precondition, every length-d
    augmenting path visits one node per level, so counting over levels is
    exhaustive.
    """
    if d <= 0 or d % 2 == 0:
        raise ValueError("path length d must be a positive odd integer")
    shortest = shortest_aug_path_len(view, matching)
    if shortest < d:
        raise ShorterPathExists(f"augmenting path of length {shortest} < {d} exists")

    base = view.base
    level = alternating_levels(view, matching, depth_limit=d)
    by_level: dict[int, list[int]] = {}
    for v, lv in level.items():
        by_level.setdefault(lv, []).append(v)

    # Prefix counts: paths from level 0 down to each node.
    x: dict[int, int] = {v: 1 for v in by_level.get(0, [])}
    for lv in range(1, d + 1):
        for v in by_level.get(lv, []):
            if lv % 2 == 1:
                x[v] = sum(
                    x[u]
                    for u in view.view_neighbors(v)
                    if level.get(u) == lv - 1 and matching.partner_of(v) != u
                )
            else:
                x[v] = x[matching.partner_of(v)]

    # Suffix counts: completions from each node to a free node at level d.
    y: dict[int, int] = {}
    for lv in range(d, -1, -1):
        for v in by_level.get(lv, []):
            if lv == d:
                y[v] = 1 if base.side[v] == SIDE_B and not matching.is_matched(v) else 0
            elif lv % 2 == 0:
                y[v] = sum(
                    y.get(u, 0)
                    for u in view.view_neighbors(v)
                    if level.get(u) == lv + 1 and matching.partner_of(v) != u
                )
            else:
                p = matching.partner_of(v)
                y[v] = y.get(p, 0) if p is not None and level.get(p) == lv + 1 else 0

    counts = AugPathCounts(d=d)
    for v in view.in_nodes:
        if matching.is_matched(v):
            continue
        counts.node_counts[v] = x.get(v, 0) * y.get(v, 0)
        counts.level_zero[v] = level.get(v) == 0
    for (u, v) in matching.edges:
        b, a = (u, v) if base.side[u] == SIDE_B else (v, u)
        lu = level.get(b)
        if lu is not None and lu % 2 == 1 and level.get(a) == lu + 1:
            counts.edge_counts[edge_key(u, v)] = x.get(b, 0) * y.get(a, 0)
        else:
            counts.edge_counts[edge_key(u, v)] = 0
    return counts


def enumerate_aug_paths_dfs(
    view: SubgraphView, matching: Matching, d: int, budget: int = DEFAULT_PATH_BUDGET
) -> AugPathCounts:
    """Plain depth-first enumeration of length-d augmenting paths.

    Exponential in the worst case; the budget caps the number of partial
    paths explored. Used as an extra cross-check for small instances.
    """
    shortest = shortest_aug_path_len(view, matching)
    if shortest < d:
        raise ShorterPathExists(f"augmenting path of length {shortest} < {d} exists")
    base = view.base
    counts = AugPathCounts(d=d)
    for v in view.in_nodes:
        if not matching.is_matched(v):
            counts.node_counts[v] = 0
            counts.level_zero[v] = base.side[v] == SIDE_A
    for e in matching.edges:
        counts.edge_counts[e] = 0

    explored = 0

    def record(path: list[int]) -> None:
        counts.node_counts[path[0]] += 1
        counts.node_counts[path[-1]] += 1
        for i in range(1, d, 2):
            counts.edge_counts[edge_key(path[i], path[i + 1])] += 1

    for start in free_in_view(view, matching, SIDE_A):
        stack: list[tuple[list[int], set[int]]] = [([start], {start})]
        while stack:
            path, used = stack.pop()
            explored += 1
            if explored > budget:
                raise PathBudgetExceeded(f"more than {budget} partial paths")
            pos = len(path) - 1
            v = path[-1]
            if pos == d:
                continue
            if pos % 2 == 0:
                for u in view.view_neighbors(v):
                    if u in used or matching.partner_of(v) == u:
                        continue
                    if pos + 1 == d:
                        if not matching.is_matched(u):
                            record(path + [u])
                    else:
                        if matching.is_matched(u):
                            stack.append((path + [u], used | {u}))
            else:
                u = matching.partner_of(v)
                if u is not None and u not in used and view.contains_node(u):
                    stack.append((path + [u], used | {u}))
    return counts


# ---------------------------------------------------------------------------
# Small-instance exhaustive checks
# ---------------------------------------------------------------------------

def exhaustive_min_vc_size(view: SubgraphView) -> int:
    """Minimum vertex cover size by trying all node subsets (n <= ~20)."""
    nodes = list(view.in_nodes)
    edges = list(view.in_edges)
    index = {v: i for i, v in enumerate(nodes)}
    best = len(nodes)
    for mask in range(1 << len(nodes)):
        if mask.bit_count() >= best:
            continue
        if all((mask >> index[u]) & 1 or (mask >> index[v]) & 1 for u, v in edges):
            best = mask.bit_count()
    return best


def exhaustive_max_matching_size(view: SubgraphView) -> int:
    """Maximum matching size by branching over edges (small instances)."""
    edges = list(view.in_edges)

    def go(i: int, used: set[int]) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        best = go(i + 1, used)
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            best = max(best, 1 + go(i + 1, used))
            used.discard(u)
            used.discard(v)
        return best

    return go(0, set())


def diameter(graph: BipartiteGraph) -> int:
    """Maximum eccentricity within any connected component."""
    best = 0
    for comp in graph.components():
        for src in comp:
            dist = {src: 0}
            queue = deque([src])
            while queue:
                x = queue.popleft()
                for y in graph.adjacency[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            best = max(best, max(dist.values()))
    return best


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

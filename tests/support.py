"""Shared test helpers: networkx as the independent oracle, exact counts
of shortest augmenting paths (the reference the path-counting sweeps are
tested against) and the halving cover read off them (the reference of the
threshold sweep), the layer classes of an alternating layering and the
class rule of the layered cover (the reference the cover's König rule is
tested against), the small graph families the property tests draw from,
and a time limit for runs that must end.

networkx serves only the tests. A valid cover whose size equals
networkx's Hopcroft-Karp matching size is minimum by weak duality.
"""

import contextlib
import signal
from dataclasses import dataclass, field

import networkx as nx
from hypothesis import strategies as st

from bvc.errors import ShorterPathExists
from bvc.graph import (
    SIDE_A,
    SIDE_B,
    Edge,
    Matching,
    SubgraphView,
    build_graph,
    ceil_log2,
    edge_key,
    gen_complete,
    gen_path,
    gen_random,
)
from bvc.oracle import alternating_levels, shortest_aug_path_len


def nx_graph(view: SubgraphView) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(view.in_nodes)
    g.add_edges_from(view.in_edges)
    return g


def induced(base, nodes) -> SubgraphView:
    """The view of `base` induced by `nodes`: those nodes and every edge
    between two of them."""
    keep = set(nodes)
    node_in = {v: v in keep for v in base.node_ids}
    edge_in = {e: e[0] in keep and e[1] in keep for e in base.edges}
    return SubgraphView(base, node_in, edge_in)


def max_view_degree(view: SubgraphView) -> int:
    """The view's maximum degree Δ, read centrally; in a run, the nodes
    learn it by `view_max_degree_aggregate`."""
    return max((view.view_degree(v) for v in view.in_nodes), default=0)


def components(graph) -> list[set[int]]:
    return list(nx.connected_components(nx_graph(SubgraphView.whole(graph))))


def roots_and_depths(forest) -> tuple[dict[int, int], dict[int, int]]:
    """Each node's root and depth in a forest (node -> (parent, children)),
    found by walking parents."""
    root, depth = {}, {}
    for v in forest:
        u, d = v, 0
        while forest[u][0] is not None:
            u, d = forest[u][0], d + 1
            assert d <= len(forest), f"the parents of {v} form a cycle"
        root[v], depth[v] = u, d
    return root, depth


def region_bfs(graph, origin) -> tuple[dict[int, int | None], dict[int, int]]:
    """networkx BFS of each origin region (the nodes of one origin) from
    its origin: every node's parent, the smallest-id region neighbour one
    level closer (None at the origin), and its depth."""
    whole = nx_graph(SubgraphView.whole(graph))
    regions = {}
    for v, c in origin.items():
        regions.setdefault(c, []).append(v)
    parent, depth = {}, {}
    for c, vs in regions.items():
        region = whole.subgraph(vs)
        dist = nx.single_source_shortest_path_length(region, c)
        assert len(dist) == len(region), f"region {c} is not connected"
        for v, d in dist.items():
            parent[v] = min((u for u in region[v] if dist[u] == d - 1), default=None)
        depth.update(dist)
    return parent, depth


UNREACHED = "unreached"


def layer_classes(view: SubgraphView, level) -> tuple[dict, dict]:
    """The class of each in-view node under an alternating layering's
    levels: an A-node at level l is in A-class l // 2 (class 0 holds the
    free A-nodes), a B-node in B-class (l + 1) // 2, and a node without a
    level is UNREACHED."""
    a_class, b_class = {}, {}
    for v in view.in_nodes:
        lv = level.get(v)
        c = UNREACHED if lv is None else (lv + 1) // 2
        (a_class if view.base.side[v] == SIDE_A else b_class)[v] = c
    return a_class, b_class


def b_classes(view: SubgraphView, level, k: int) -> list[set[int]]:
    """B-classes 1..k of a layering (B-class j, at index j - 1, holds the
    B-nodes at level 2j - 1)."""
    _, b_class = layer_classes(view, level)
    return [{v for v, c in b_class.items() if c == j} for j in range(1, k + 1)]


def candidate(view: SubgraphView, level, k: int, s: int) -> set[int]:
    """The s-th candidate cover by the class rule: A-classes s..k and the
    unreached A-nodes, plus B-classes 1..s."""
    a_class, b_class = layer_classes(view, level)
    return {v for v, c in a_class.items() if c == UNREACHED or s <= c <= k} | {
        v for v, c in b_class.items() if c != UNREACHED and c <= s
    }


def class_rule_cover(graph, view: SubgraphView, matching: Matching, k: int) -> set[int]:
    """The layered cover by the class rule on the oracle's depth-2k BFS, with
    k capped at n//2 + 1: in each component of the graph, the candidate at
    the argmin of that component's B-class sizes, ties to the smallest."""
    k = min(k, graph.n // 2 + 1)
    level = alternating_levels(view, matching, depth_limit=2 * k)
    classes = b_classes(view, level, k)
    cover = set()
    for comp in components(graph):
        sizes = [len(c & comp) for c in classes]
        cover |= candidate(view, level, k, sizes.index(min(sizes)) + 1) & comp
    return cover


def matching_size(view: SubgraphView) -> int:
    """networkx's maximum matching size of the view, nu."""
    top = [v for v in view.in_nodes if view.base.side[v] == SIDE_A]
    return len(nx.bipartite.hopcroft_karp_matching(nx_graph(view), top_nodes=top)) // 2


@dataclass
class AugPathCounts:
    """Exact shortest-augmenting-path counts for one (view, matching, d)."""

    d: int
    node_counts: dict[int, int] = field(default_factory=dict)
    edge_counts: dict[Edge, int] = field(default_factory=dict)


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
    for (u, v) in matching.edges:
        b, a = (u, v) if base.side[u] == SIDE_B else (v, u)
        lu = level.get(b)
        if lu is not None and lu % 2 == 1 and level.get(a) == lu + 1:
            counts.edge_counts[edge_key(u, v)] = x.get(b, 0) * y.get(a, 0)
        else:
            counts.edge_counts[edge_key(u, v)] = 0
    return counts


def per_node_counts(counts: AugPathCounts) -> dict[int, int]:
    """The reference counts per node: a free node's own count, and at both
    ends of a matching edge the count of that edge."""
    per_node = dict(counts.node_counts)
    for (u, v), c in counts.edge_counts.items():
        per_node[u] = per_node[v] = c
    return per_node


def halving_cover(view: SubgraphView, matching: Matching, d: int) -> set[int]:
    """The threshold sweep of `cover_short_paths`, run sequentially on the
    counts of `enumerate_aug_paths`: phase i = 1, 2, ... visits the free
    A-nodes at level 0, the matching edges whose B-end is at level 1, 3,
    ..., d - 2, and the free B-nodes at level d, in that order, recounting
    before each, and removes every endpoint or edge whose count reaches
    Delta^d / 2^i, with Delta the view's maximum degree. It stops after the
    first phase that leaves no augmenting path of length d, and runs at
    most ceil(log2 Delta^d) + 1 phases, as the sweep does."""
    delta = max_view_degree(view)
    if delta == 0:
        return set()
    threshold = delta**d
    side = view.base.side
    removed: set[int] = set()
    residual, m_bar = view, matching
    for i in range(1, ceil_log2(threshold) + 2):
        for pos in [0] + list(range(1, d - 1, 2)) + [d]:
            counts = enumerate_aug_paths(residual, m_bar, d)
            level = alternating_levels(residual, m_bar, depth_limit=d)
            batch = set()
            if pos in (0, d):
                end = SIDE_A if pos == 0 else SIDE_B
                for v, p in counts.node_counts.items():
                    if level.get(v) == pos and side[v] == end and p * 2**i >= threshold:
                        batch.add(v)
            else:
                for (u, v), p in counts.edge_counts.items():
                    b = u if side[u] == SIDE_B else v
                    if level.get(b) == pos and p * 2**i >= threshold:
                        batch |= {u, v}
            removed |= batch
            residual = residual.without_nodes(batch)
            m_bar = m_bar.restricted_to(residual)
        if shortest_aug_path_len(residual, m_bar) > d:
            return removed
    raise AssertionError(f"paths of length {d} remain after every phase")


def graphs():
    """Stars, complete bipartite graphs, paths and sparse random graphs."""
    return st.one_of(
        st.builds(gen_complete, st.just(1), st.integers(1, 8)),  # stars
        st.builds(gen_complete, st.integers(1, 5), st.integers(1, 5)),
        st.builds(gen_path, st.integers(2, 40)),
        st.builds(
            gen_random,
            st.integers(2, 14),
            st.integers(2, 14),
            st.sampled_from((0.1, 0.2, 0.35)),
            st.integers(0, 10_000),
        ),
    )


def disjoint_union(g, h):
    return build_graph(
        list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges], extra_nodes=range(g.n + h.n)
    )


class TimeLimitExceeded(BaseException):
    """Not an Exception, so the engine cannot wrap it as a ProgramFault."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded in the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

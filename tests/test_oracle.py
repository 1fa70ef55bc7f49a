import math
from collections import deque

import networkx as nx
import pytest

from bvc import oracle
from bvc.errors import ShorterPathExists
from bvc.graph import (
    SIDE_A,
    SIDE_B,
    Matching,
    SubgraphView,
    build_graph,
    edge_key,
    gen_complete,
    gen_disjoint_edges,
    gen_even_cycle,
    gen_path,
    gen_random,
)
from support import enumerate_aug_paths, matching_size

INF = math.inf


def whole(g):
    return SubgraphView.whole(g)


def test_max_matching_small_graphs():
    # Expected sizes frozen from networkx's Hopcroft-Karp matching.
    assert oracle.max_matching_oracle(whole(gen_path(4))).size == 2
    assert oracle.max_matching_oracle(whole(gen_complete(2, 3))).size == 2
    g = build_graph([], extra_nodes=[0, 1])
    assert oracle.max_matching_oracle(whole(g)).size == 0


def test_max_matching_is_maximum_no_aug_path():
    for seed in range(6):
        g = gen_random(7, 7, 0.35, seed)
        view = whole(g)
        m = oracle.max_matching_oracle(view)
        assert oracle.shortest_aug_path_len(view, m) == INF
        assert m.size == matching_size(view)


def test_min_vc_small_graphs():
    assert oracle.min_vc_oracle(whole(gen_path(4))).size == 2
    cover = oracle.min_vc_oracle(whole(gen_complete(2, 3)))
    assert cover.size == 2
    assert cover.nodes == frozenset({0, 1})
    assert oracle.min_vc_oracle(whole(build_graph([(0, 1)]))).size == 1


def test_min_vc_matches_networkx():
    # A valid cover no larger than some matching is minimum (weak duality).
    for seed in range(8):
        g = gen_random(5, 5, 0.4, seed)
        view = whole(g)
        cover = oracle.min_vc_oracle(view)
        assert cover.is_valid()
        assert cover.size == matching_size(view)


def test_koenig_duality_families():
    graphs = [
        gen_path(7),
        gen_even_cycle(10),
        gen_complete(4, 6),
        gen_disjoint_edges(5),
    ] + [gen_random(9, 9, p, s) for p in (0.1, 0.3, 0.6) for s in range(4)]
    for g in graphs:
        view = whole(g)
        assert oracle.min_vc_oracle(view).size == oracle.max_matching_oracle(view).size


def test_shortest_aug_path_len():
    g = gen_path(4)
    view = whole(g)
    assert oracle.shortest_aug_path_len(view, Matching([(1, 2)], view)) == 3
    assert oracle.shortest_aug_path_len(view, oracle.max_matching_oracle(view)) == INF
    e = build_graph([(0, 1)])
    assert oracle.shortest_aug_path_len(whole(e), Matching([])) == 1


def test_enumerate_single_free_edge():
    g = build_graph([(0, 1)])
    view = whole(g)
    counts = enumerate_aug_paths(view, Matching([]), 1)
    assert counts.node_counts == {0: 1, 1: 1}
    assert frees(view, counts, "A") == 1


def test_enumerate_p4():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    counts = enumerate_aug_paths(view, m, 3)
    assert counts.node_counts[0] == 1
    assert counts.node_counts[3] == 1
    assert counts.edge_counts[(1, 2)] == 1
    assert frees(view, counts, "A") == 1


def test_enumerate_zero_for_maximum():
    g = gen_path(4)
    view = whole(g)
    m = oracle.max_matching_oracle(view)
    counts = enumerate_aug_paths(view, m, 3)
    assert all(c == 0 for c in counts.node_counts.values())
    assert all(c == 0 for c in counts.edge_counts.values())


def test_enumerate_precondition():
    g = gen_path(4)
    view = whole(g)
    with pytest.raises(ShorterPathExists):
        enumerate_aug_paths(view, Matching([(1, 2)], view), 5)


def test_enumerate_shared_middle_edge():
    # Two length-3 augmenting paths sharing the same matching edge: free
    # A-nodes 0 and 2 both reach matched pair (4,5), which leads to free 6.
    g = build_graph([(0, 4), (2, 4), (4, 5), (5, 6)])
    view = whole(g)
    m = Matching([(4, 5)], view)
    counts = enumerate_aug_paths(view, m, 3)
    assert counts.edge_counts[(4, 5)] == 2
    assert counts.node_counts[0] == 1
    assert counts.node_counts[2] == 1
    assert counts.node_counts[6] == 2
    assert frees(view, counts, "A") == 2


def frees(view, counts, side):
    base = view.base
    return sum(
        c
        for v, c in counts.node_counts.items()
        if base.side[v] == side
    )


def aug_path_counts(view: SubgraphView, matching, d: int):
    """(node_counts, edge_counts): the d-edge augmenting paths through every
    free in-view node and every matching edge, keyed as
    `enumerate_aug_paths` keys them. networkx counts the simple
    d-edge paths of the directed alternating graph, with non-matching
    edges A -> B and matching edges B -> A, from free A to free B."""
    side = view.base.side
    arcs = nx.DiGraph()
    arcs.add_nodes_from(view.in_nodes)
    for u, v in view.in_edges:
        a, b = (u, v) if side[u] == SIDE_A else (v, u)
        if matching.partner_of(a) == b:
            arcs.add_edge(b, a)
        else:
            arcs.add_edge(a, b)
    free = [v for v in view.in_nodes if not matching.is_matched(v)]
    node_counts = dict.fromkeys(free, 0)
    edge_counts = dict.fromkeys(matching.edges, 0)
    targets = {v for v in free if side[v] == SIDE_B}
    for source in (v for v in free if side[v] == SIDE_A):
        for path in nx.all_simple_paths(arcs, source, targets, cutoff=d):
            if len(path) != d + 1:
                continue
            node_counts[path[0]] += 1
            node_counts[path[-1]] += 1
            for i in range(1, d, 2):
                edge_counts[edge_key(path[i], path[i + 1])] += 1
    return node_counts, edge_counts


def test_count_symmetry_and_dfs_agreement():
    for seed in range(10):
        g = gen_random(6, 6, 0.4, seed)
        view = whole(g)
        m = oracle.max_matching_oracle(view)
        # Weaken the maximum matching by dropping one edge to create paths.
        edges = sorted(m.edges)
        if not edges:
            continue
        m2 = Matching(edges[1:], view)
        d = oracle.shortest_aug_path_len(view, m2)
        if d is INF or d > 7:
            continue
        fast = enumerate_aug_paths(view, m2, d)
        assert (fast.node_counts, fast.edge_counts) == aug_path_counts(view, m2, d)
        assert frees(view, fast, "A") == frees(view, fast, "B")


def test_diameter():
    assert oracle.diameter(gen_path(5)) == 4
    assert oracle.diameter(gen_disjoint_edges(3)) == 1
    assert oracle.diameter(build_graph([], extra_nodes=[0])) == 0
    assert oracle.diameter(gen_even_cycle(8)) == 4


def bfs_diameter(g):
    """Reference: the largest BFS distance from any source."""
    best = 0
    for src in g.node_ids:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y in g.adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        best = max(best, max(dist.values()))
    return best


def test_diameter_matches_per_source_bfs():
    graphs = [gen_random(1 + s % 9, 1 + s % 7, (0.1, 0.3, 0.8)[s % 3], s) for s in range(60)]
    graphs += [gen_path(n) for n in range(1, 12)] + [gen_even_cycle(n) for n in (4, 10, 16)]
    graphs += [gen_complete(3, 5), gen_disjoint_edges(4), build_graph([], extra_nodes=range(3))]
    for g in graphs:
        assert oracle.diameter(g) == bfs_diameter(g)

import functools
import math
import random

import pytest

from bvc import oracle
from bvc.graph import (
    SIDE_A,
    Matching,
    SubgraphView,
    build_graph,
    ceil_log2,
    gen_complete,
    gen_disjoint_edges,
    gen_even_cycle,
    gen_path,
    gen_random,
)
from bvc.primitives import (
    BfsForest,
    BfsTree,
    alternating_bfs,
    elect_leader_and_bfs,
    pipelined_aggregate,
    witness_check,
)
from bvc.runtime import frame_count, id_bits

INF = math.inf


def test_elect_path5():
    g = gen_path(5)
    forest, stats = elect_leader_and_bfs(g)
    assert set(forest.trees) == {0}
    tree = forest.trees[0]
    assert max(tree.depth.values()) == 4
    assert tree.depth == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert tree.parent[0] is None
    assert tree.parent[3] == 2


def test_elect_single_node():
    g = build_graph([], extra_nodes=[0])
    forest, stats = elect_leader_and_bfs(g)
    assert forest.trees[0].depth == {0: 0}
    assert forest.trees[0].children == {0: ()}
    assert stats.rounds <= 2


def test_elect_two_components():
    g = gen_disjoint_edges(2)
    forest, _ = elect_leader_and_bfs(g)
    assert set(forest.trees) == {0, 2}
    assert forest.root_of == {0: 0, 1: 0, 2: 2, 3: 2}


def test_elect_bipartition_matches_graph_sides():
    for g in [gen_path(6), gen_even_cycle(8), gen_complete(3, 4), gen_random(8, 8, 0.3, 5)]:
        forest, _ = elect_leader_and_bfs(g)
        # Leader is the component minimum, which is also the side-A root used
        # at construction, so depth parity is exactly the graph's side.
        for v in g.node_ids:
            assert (forest.tree_of(v).depth[v] % 2 == 0) == (g.side[v] == SIDE_A)


def test_elect_round_bound():
    graphs = [
        gen_path(12),
        gen_path(40),
        gen_even_cycle(20),
        gen_complete(4, 5),
        gen_disjoint_edges(6),
        gen_random(12, 12, 0.2, 1),
        gen_random(20, 20, 0.12, 2),
        gen_random(15, 15, 0.5, 3),
    ]
    for g in graphs:
        d = oracle.diameter(g)
        _, stats = elect_leader_and_bfs(g)
        assert stats.rounds <= 3 * d + 5, f"rounds={stats.rounds} D={d}"


def test_elect_depths_are_bfs_distances():
    g = gen_random(10, 10, 0.25, 9)
    forest, _ = elect_leader_and_bfs(g)
    for comp in g.components():
        root = min(comp)
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in g.adjacency[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        tree = forest.trees[root]
        assert {v: tree.depth[v] for v in comp} == dist
        assert max(tree.depth.values()) == max(dist.values())
        # The children each node learned are exactly the nodes naming it parent.
        for v in comp:
            assert tree.children[v] == tuple(u for u in comp if tree.parent[u] == v)


def test_aggregate_sum_path():
    g = gen_path(5)
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (1,) for v in g.node_ids}
    results, stats = pipelined_aggregate(g, forest, values, combine="sum")
    assert all(results[v] == (5,) for v in g.node_ids)
    height = max(forest.trees[0].depth.values())
    assert stats.rounds <= 2 * (height + 1) + 8


def test_aggregate_star_three_values():
    g = gen_complete(1, 4)  # star with center 0
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (1, 0, 2) if v != 0 else (0, 0, 0) for v in g.node_ids}
    results, _ = pipelined_aggregate(g, forest, values, combine="sum")
    assert results[0] == (4, 0, 8)


def test_aggregate_min_idempotent():
    g = gen_path(6)
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (7, 3) for v in g.node_ids}
    results, _ = pipelined_aggregate(g, forest, values, combine="min")
    assert all(results[v] == (7, 3) for v in g.node_ids)


def test_aggregate_matches_sequential_sums():
    import random

    rng = random.Random(5)
    g = gen_random(9, 9, 0.3, 4)
    forest, _ = elect_leader_and_bfs(g)
    k = 4
    values = {v: tuple(rng.randrange(16) for _ in range(k)) for v in g.node_ids}
    results, _ = pipelined_aggregate(g, forest, values, combine="sum")
    for comp in g.components():
        expected = tuple(sum(values[v][j] for v in comp) for j in range(k))
        for v in comp:
            assert results[v] == expected


def test_aggregate_per_component():
    g = gen_disjoint_edges(3)
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (v,) for v in g.node_ids}
    results, _ = pipelined_aggregate(g, forest, values, combine="max")
    assert results[0] == (1,)
    assert results[4] == (5,)


def _forest_by_hand(g, roots):
    """BFS trees of g from the given roots (one per component), built
    without an election."""
    trees, root_of = {}, {}
    for root in roots:
        tree = trees[root] = BfsTree(root, {root: None}, {root: 0}, {})
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                root_of[x] = root
                kids = tuple(y for y in g.adjacency[x] if y not in tree.parent)
                for y in kids:
                    tree.parent[y] = x
                    tree.depth[y] = tree.depth[x] + 1
                tree.children[x] = tuple(sorted(kids))
                nxt.extend(kids)
            frontier = nxt
    return BfsForest(trees, root_of)


@pytest.mark.parametrize("combine", ["sum", "min", "max"])
@pytest.mark.parametrize("k", [1, 5])
def test_aggregate_unbalanced_forest_at_the_floor(k, combine):
    """A wide star with a long path hanging off one leaf (rooted at the
    star's centre), a short path rooted off-centre and a lone node. At the
    9-bit floor every value takes two frames, so leaves queue their values
    on the edge; results match a sequential fold and the round count the
    closed form (2H + k - 1)·P + 1 of the highest tree."""
    star = [(0, leaf) for leaf in range(1, 11)]
    hanging = [(1, 11)] + [(v, v + 1) for v in range(11, 22)]
    short = [(v, v + 1) for v in range(23, 27)]
    g = build_graph(star + hanging + short, extra_nodes=[28])
    g = g.with_bandwidth(ceil_log2(g.n) + 4)
    assert g.bandwidth == 9
    forest = _forest_by_hand(g, [0, 24, 28])
    heights = {r: max(t.depth.values()) for r, t in forest.trees.items()}
    assert heights == {0: 13, 24: 3, 28: 0}

    rng = random.Random(k)
    values = {v: tuple(rng.randrange(32) for _ in range(k)) for v in g.node_ids}
    results, stats = pipelined_aggregate(g, forest, values, combine=combine)

    fold = {"sum": lambda a, b: a + b, "min": min, "max": max}[combine]
    for root, tree in forest.trees.items():
        expected = tuple(
            functools.reduce(fold, (values[v][j] for v in tree.depth)) for j in range(k)
        )
        assert all(results[v] == expected for v in tree.depth)
    p = frame_count(2 * id_bits(g.n), g.bandwidth)
    assert p == 2 and stats.fragmentation_rounds > 0
    assert stats.rounds == (2 * heights[0] + k - 1) * p + 1


def test_aggregate_lone_nodes_finish_in_one_round():
    g = build_graph([], extra_nodes=[0, 1])
    forest, _ = elect_leader_and_bfs(g)
    results, stats = pipelined_aggregate(g, forest, {0: (3, 4), 1: (5, 6)})
    assert results == {0: (3, 4), 1: (5, 6)}
    assert stats.rounds == 1


def whole(g):
    return SubgraphView.whole(g)


def test_alt_bfs_p4():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    layering, stats = alternating_bfs(g, view, m, 4)
    assert layering.level == {0: 0, 1: 1, 2: 2, 3: 3}
    assert stats.rounds <= 4 + 5


def test_alt_bfs_maximum_matching_no_free_a():
    g = gen_path(4)
    view = whole(g)
    m = oracle.max_matching_oracle(view)
    layering, _ = alternating_bfs(g, view, m, 4)
    assert layering.level == {}


def test_alt_bfs_free_edge():
    g = build_graph([(0, 1)])
    view = whole(g)
    layering, _ = alternating_bfs(g, view, Matching([]), 2)
    assert layering.level == {0: 0, 1: 1}


def test_alt_bfs_depth_limit():
    g = gen_path(6)
    view = whole(g)
    m = Matching([(1, 2), (3, 4)], view)
    layering, _ = alternating_bfs(g, view, m, 2)
    assert layering.level == {0: 0, 1: 1, 2: 2}


def test_alt_bfs_matches_oracle_levels():
    for seed in range(8):
        g = gen_random(12, 13, 0.18, seed)
        view = whole(g)
        m_edges = sorted(oracle.max_matching_oracle(view).edges)
        m = Matching(m_edges[: len(m_edges) * 2 // 3], view)
        depth = 2 * g.n
        layering, _ = alternating_bfs(g, view, m, depth)
        expected = oracle.alternating_levels(view, m)
        assert layering.level == expected


def test_alt_bfs_neighbor_levels_exchange():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    layering, _ = alternating_bfs(g, view, m, 4)
    assert layering.neighbor_levels[1] == {0: 0, 2: 2}
    assert layering.neighbor_levels[0] == {1: 1}


def test_witness_check_is_bounded_by_depth():
    """The one augmenting path of an 8-node path matched as (1,2), (3,4),
    (5,6) has length 7: a check to depth 5 misses it, deeper checks find
    it, and each layering stops at its depth."""
    g = gen_path(8)
    view = whole(g)
    m = Matching([(1, 2), (3, 4), (5, 6)], view)
    forest, _ = elect_leader_and_bfs(g)
    for depth, expected in ((5, None), (7, 7), (9, 7)):
        shortest, layering, _ = witness_check(g, view, m, forest, depth)
        assert shortest == expected
        assert max(layering.level.values()) == min(depth, 7)

import functools
import math
import random

import pytest

from bvc import oracle
from bvc.errors import InvalidParam
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
from bvc.matching import eliminate_short_aug_paths
from bvc.primitives import (
    AltBfsProgram,
    alternating_bfs,
    elect_leader_and_bfs,
    pipelined_aggregate,
    witness_check,
)
from bvc.runtime import frame_count, id_bits
from support import components, induced, roots_and_depths

INF = math.inf


def test_elect_path5():
    g = gen_path(5)
    forest, stats = elect_leader_and_bfs(g)
    root, depth = roots_and_depths(forest)
    assert set(root.values()) == {0}
    assert max(depth.values()) == 4
    assert depth == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert forest[0][0] is None
    assert forest[3][0] == 2


def test_elect_single_node():
    g = build_graph([], extra_nodes=[0])
    forest, stats = elect_leader_and_bfs(g)
    assert roots_and_depths(forest)[1] == {0: 0}
    assert forest == {0: (None, ())}
    assert stats.rounds <= 2


def test_elect_two_components():
    g = gen_disjoint_edges(2)
    forest, _ = elect_leader_and_bfs(g)
    root, _ = roots_and_depths(forest)
    assert set(root.values()) == {0, 2}
    assert root == {0: 0, 1: 0, 2: 2, 3: 2}


def test_elect_bipartition_matches_graph_sides():
    for g in [gen_path(6), gen_even_cycle(8), gen_complete(3, 4), gen_random(8, 8, 0.3, 5)]:
        forest, _ = elect_leader_and_bfs(g)
        _, depth = roots_and_depths(forest)
        # Leader is the component minimum, which is also the side-A root used
        # at construction, so depth parity is exactly the graph's side.
        for v in g.node_ids:
            assert (depth[v] % 2 == 0) == (g.side[v] == SIDE_A)


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
    leader, depth = roots_and_depths(forest)
    for comp in components(g):
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
        # The leader is the component minimum.
        assert {leader[v] for v in comp} == {root}
        assert {v: depth[v] for v in comp} == dist
        assert max(depth[v] for v in forest if leader[v] == root) == max(dist.values())
        # The children each node learned are exactly the nodes naming it parent.
        for v in comp:
            assert forest[v][1] == tuple(u for u in sorted(comp) if forest[u][0] == v)


@pytest.mark.parametrize("n", [400, 800, 1600])
def test_election_on_a_sorted_path_costs_linear_bits(n):
    """On gen_path(n), whose ids run in path order, only node 0 announces
    itself. Its flood costs a short status (id_bits + 2 bits) to node 1,
    and from every inner node a full one (id_bits + 3) up and a short one
    down; the end node's full status is complete, the certificates climb
    back in one full status per inner node, and DONE goes down in 1 bit
    per edge: (n - 2)(3·id_bits + 8) + 2·id_bits + n + 4 bits in all. The
    same path with permuted ids costs more, and the forest is the path's
    BFS tree from node 0, in the same rounds as before: 3(n - 1) + 1."""
    g = gen_path(n)
    forest, stats = elect_leader_and_bfs(g)
    idw = id_bits(n)
    assert stats.total_bits == (n - 2) * (3 * idw + 8) + 2 * idw + n + 4
    assert stats.rounds == 3 * (n - 1) + 1
    assert roots_and_depths(forest)[1] == {v: v for v in g.node_ids}
    ids = list(range(n))
    random.Random(n).shuffle(ids)
    permuted = build_graph([(ids[u], ids[v]) for u, v in g.edges], extra_nodes=range(n))
    assert stats.total_bits <= elect_leader_and_bfs(permuted)[1].total_bits


def pack(totals, vw):
    """The totals as one integer, vw bits each, the first lowest."""
    return sum(t << (vw * j) for j, t in enumerate(totals))


def aggregate(g, forest, values, combine):
    """pipelined_aggregate with values vw = 2·id_bits(n) bits wide, read as
    each node's tuple of its tree's k totals: at k = 1 the answer is the
    total, and at k > 1 an answer that packs all k into k·vw bits."""
    vw = 2 * id_bits(g.n)
    k = len(next(iter(values.values())))
    packed = {} if k == 1 else {"answer": functools.partial(pack, vw=vw), "answer_width": k * vw}
    results, stats = pipelined_aggregate(
        g, forest, values, combine=combine, value_width=vw, phase="aggregate", **packed
    )
    mask = (1 << vw) - 1
    return {v: tuple(a >> (vw * j) & mask for j in range(k)) for v, a in results.items()}, stats


def test_aggregate_sum_path():
    """A 5-path rooted at an end (H = 4) at the default bandwidth, where a
    value and the answer take one frame each: (H + k - 1) + H + 1 rounds."""
    g = gen_path(5)
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (1,) for v in g.node_ids}
    results, stats = aggregate(g, forest, values, "sum")
    assert all(results[v] == (5,) for v in g.node_ids)
    height = max(roots_and_depths(forest)[1].values())
    assert height == 4 and frame_count(2 * id_bits(g.n), g.bandwidth) == 1
    assert stats.rounds == 2 * height + 1


def test_aggregate_star_three_values():
    g = gen_complete(1, 4)  # star with center 0
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (1, 0, 2) if v != 0 else (0, 0, 0) for v in g.node_ids}
    results, _ = aggregate(g, forest, values, "sum")
    assert all(results[v] == (4, 0, 8) for v in g.node_ids)
    # Beyond one value, the caller must name what the nodes learn.
    with pytest.raises(InvalidParam, match="needs an answer"):
        pipelined_aggregate(g, forest, values, combine="sum", value_width=4, phase="aggregate")


def test_aggregate_rejects_an_unknown_combine():
    """A bad argument is the caller's error, a BvcError, not a fault of
    the program."""
    g = gen_path(3)
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (1,) for v in g.node_ids}
    with pytest.raises(InvalidParam, match="unknown combine 'avg'"):
        pipelined_aggregate(g, forest, values, combine="avg", value_width=4, phase="aggregate")


@pytest.mark.parametrize("held", [(), (1, 2)])
def test_aggregate_rejects_a_node_without_k_values(held):
    """Every node must hold as many values as the first; a node with fewer
    or more is caught before any node steps, not as a fault at its init."""
    g = gen_path(4)
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (1,) for v in g.node_ids}
    values[2] = held
    with pytest.raises(InvalidParam, match=r"exactly k = 1 values"):
        pipelined_aggregate(g, forest, values, combine="sum", value_width=4, phase="aggregate")


def test_aggregate_min_idempotent():
    g = gen_path(6)
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (7, 3) for v in g.node_ids}
    results, _ = aggregate(g, forest, values, "min")
    assert all(results[v] == (7, 3) for v in g.node_ids)


def test_aggregate_matches_sequential_sums():
    import random

    rng = random.Random(5)
    g = gen_random(9, 9, 0.3, 4)
    forest, _ = elect_leader_and_bfs(g)
    k = 4
    values = {v: tuple(rng.randrange(16) for _ in range(k)) for v in g.node_ids}
    results, _ = aggregate(g, forest, values, "sum")
    for comp in components(g):
        expected = tuple(sum(values[v][j] for v in comp) for j in range(k))
        for v in comp:
            assert results[v] == expected


def test_aggregate_per_component():
    g = gen_disjoint_edges(3)
    forest, _ = elect_leader_and_bfs(g)
    values = {v: (v,) for v in g.node_ids}
    results, _ = aggregate(g, forest, values, "max")
    assert results[0] == (1,)
    assert results[4] == (5,)


def _forest_by_hand(g, roots):
    """The BFS forest of g from the given roots (one per component), built
    without an election."""
    forest, parent = {}, dict.fromkeys(roots)
    for root in roots:
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                kids = tuple(sorted(y for y in g.adjacency[x] if y not in parent))
                parent.update(dict.fromkeys(kids, x))
                forest[x] = (parent[x], kids)
                nxt.extend(kids)
            frontier = nxt
    return forest


def _unbalanced_forest():
    """A wide star with a long path hanging off one leaf (rooted at the
    star's centre), a short path rooted off-centre and a lone node, at the
    9-bit floor: the graph, its forest, and each tree's nodes and height
    by root."""
    star = [(0, leaf) for leaf in range(1, 11)]
    hanging = [(1, 11)] + [(v, v + 1) for v in range(11, 22)]
    short = [(v, v + 1) for v in range(23, 27)]
    g = build_graph(star + hanging + short, extra_nodes=[28])
    g = g.with_bandwidth(ceil_log2(g.n) + 4)
    assert g.bandwidth == 9
    forest = _forest_by_hand(g, [0, 24, 28])
    root, depth = roots_and_depths(forest)
    trees = {r: [v for v in forest if root[v] == r] for r in set(root.values())}
    heights = {r: max(depth[v] for v in tree) for r, tree in trees.items()}
    assert heights == {0: 13, 24: 3, 28: 0}
    return g, forest, trees, heights


def argmin(totals):
    return totals.index(min(totals))


@pytest.mark.parametrize("combine", ["sum", "min", "max"])
@pytest.mark.parametrize("k", [1, 5])
def test_aggregate_unbalanced_forest_at_the_floor(k, combine):
    """On the unbalanced forest every value takes P = 2 frames, so leaves
    queue their values on the edge. At k = 1 the answer is the total, at
    Q = P; at k = 5 it is once the argmin (3 bits, Q = 1) and once all
    five totals packed (50 bits, Q = 6). Answers match a sequential fold,
    and the round count the closed form (H + k - 1)·P + H·Q + 1 of the
    highest tree: 53 rounds at k = 1, 48 and 113 at k = 5."""
    g, forest, trees, heights = _unbalanced_forest()
    vw = 2 * id_bits(g.n)
    rng = random.Random(k)
    values = {v: tuple(rng.randrange(32) for _ in range(k)) for v in g.node_ids}
    fold = {"sum": lambda a, b: a + b, "min": min, "max": max}[combine]
    totals = {
        r: [functools.reduce(fold, (values[v][j] for v in tree)) for j in range(k)]
        for r, tree in trees.items()
    }
    p = frame_count(vw, g.bandwidth)
    assert p == 2
    cases = [(None, None)] if k == 1 else [(argmin, 3), (functools.partial(pack, vw=vw), k * vw)]
    for answer, aw in cases:
        results, stats = pipelined_aggregate(
            g,
            forest,
            values,
            combine=combine,
            value_width=vw,
            phase="aggregate",
            answer=answer,
            answer_width=aw,
        )
        expect = answer or (lambda t: t[0])
        for r, tree in trees.items():
            assert all(results[v] == expect(totals[r]) for v in tree)
        q = frame_count(aw or vw, g.bandwidth)
        assert stats.fragmentation_rounds > 0
        assert stats.rounds == (heights[0] + k - 1) * p + heights[0] * q + 1


def test_aggregate_sends_k_values_and_one_answer_per_tree_edge():
    """Each edge of a tree carries k values up and one answer down: on a
    tree of n_t nodes, (n_t - 1)·(k·vw + aw) bits. On the unbalanced
    forest, 26 tree edges, that is 520 bits for a lone total (aw = vw =
    10) and 1,378 for the argmin of five (aw = 3)."""
    g, forest, trees, _ = _unbalanced_forest()
    vw = 2 * id_bits(g.n)
    edges = sum(len(tree) - 1 for tree in trees.values())
    for k, answer, aw, bits in ((1, None, vw, 520), (5, argmin, 3, 1378)):
        values = {v: (v % 7,) * k for v in g.node_ids}
        _, stats = pipelined_aggregate(
            g,
            forest,
            values,
            combine="sum",
            value_width=vw,
            phase="aggregate",
            answer=answer,
            answer_width=aw,
        )
        assert stats.total_bits == edges * (k * vw + aw) == bits


def test_aggregate_lone_nodes_finish_in_one_round():
    """Values fit the helper's 2·id_bits(2) = 2 bits: a lone root sends
    nothing, but still builds its answer as a message of declared width."""
    g = build_graph([], extra_nodes=[0, 1])
    forest, _ = elect_leader_and_bfs(g)
    results, stats = aggregate(g, forest, {0: (3, 0), 1: (1, 2)}, "sum")
    assert results == {0: (3, 0), 1: (1, 2)}
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


def test_alt_bfs_costs_one_offer_per_edge_in_depth_plus_1_rounds():
    """On a 10-node path matched as (1,2), ..., (7,8), a BFS to depth L
    levels nodes 0..L in L + 1 rounds: one 1-bit offer up per edge, and
    each node learns its predecessor."""
    g = gen_path(10)
    view = whole(g)
    m = Matching([(1, 2), (3, 4), (5, 6), (7, 8)], view)
    for depth in range(10):
        layering, stats = alternating_bfs(g, view, m, depth)
        assert layering.level == {v: v for v in range(depth + 1)}
        assert stats.rounds == depth + 1
        assert stats.total_bits == depth
        assert stats.max_message_bits == (1 if depth else 0)
        assert layering.preds == {v: (v - 1,) if v else () for v in range(depth + 1)}


def test_alt_bfs_steps_only_the_levelled_nodes(monkeypatch):
    """A BFS to depth 5 from the one free A-node of a 41-node path matched
    as (1,2), ..., (39,40) steps each node it levels once, when its offer
    arrives (node 0 in round 1), and no other node: the run ends in round
    6 without waking anyone to halt."""
    g = gen_path(41)
    view = whole(g)
    m = Matching([(v, v + 1) for v in range(1, 41, 2)], view)
    steps = []
    step = AltBfsProgram.step

    def counted(self, ctx, st, inbox, rnd, rng):
        steps.append((ctx.node, rnd))
        return step(self, ctx, st, inbox, rnd, rng)

    monkeypatch.setattr(AltBfsProgram, "step", counted)
    layering, stats = alternating_bfs(g, view, m, 5)
    assert layering.level == {v: v for v in range(6)}
    assert stats.rounds == 6
    assert steps == [(v, v + 1) for v in range(6)]


def test_witness_check_is_bounded_by_depth():
    """The one augmenting path of an 8-node path matched as (1,2), (3,4),
    (5,6) has length 7: a check to depth 5 misses it, deeper checks find
    it, and each layering stops at its depth."""
    g = gen_path(8)
    view = whole(g)
    m = Matching([(1, 2), (3, 4), (5, 6)], view)
    forest, _ = elect_leader_and_bfs(g)
    for depth, expected in ((5, None), (7, 7), (9, 7)):
        shortest, layering, _ = witness_check(g, view, m, forest, 1, depth)
        assert shortest == expected
        assert max(layering.level.values()) == min(depth, 7)
    with pytest.raises(InvalidParam):
        witness_check(g, view, m, forest, 0, 5)


def _attempt_depths(levels, shortest, d, depth):
    """The BFS depths of a check from `d` to `depth`, from the full oracle
    levels: it doubles until an attempt t reaches the shortest length,
    reaches `depth`, or has no node at level t."""
    depths = [min(d, depth)]
    while shortest > depths[-1] < depth and depths[-1] in levels.values():
        depths.append(min(2 * depths[-1], depth))
    return depths


def test_witness_check_matches_oracle():
    """Seeded graphs, disconnected ones among them, a graph whose sentinel
    is below d, and one sub-view, under the empty matching and the
    matching the unchecked phases leave: the check finds the oracle's
    shortest length when it lies within `depth`, its layering agrees with
    the oracle's up to the last attempt's depth, it runs one BFS per
    attempt, and a None check to depth >= n - 1 holds the full
    reachability. The 22-node path, under the deterministic rule, keeps an
    augmenting path of length 21 past the unchecked phases (see
    test_konig.py::test_exact_cover_reads_the_last_check), so a check
    finds a path only after doubling."""
    path = build_graph([(10 - i, 11 + i) for i in range(11)] + [(11 + i, 9 - i) for i in range(10)])
    tiny = gen_path(3)
    cases = [(path, whole(path), None), (tiny, whole(tiny), 0)]
    for seed, (na, nb, p) in enumerate([(10, 12, 0.25), (20, 20, 0.06), (30, 28, 0.04), (25, 25, 0.1)]):
        g = gen_random(na, nb, p, seed)
        cases.append((g, whole(g), seed))
    g = gen_random(20, 20, 0.12, 7)
    cases.append((g, induced(g, [v for v in g.node_ids if v % 5]), 7))
    checked = set()
    components = []
    for g, view, seed in cases:
        forest, _ = elect_leader_and_bfs(g)
        components.append(sum(parent is None for parent, _ in forest.values()))
        unchecked, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), 8, seed=seed)
        if g is path:
            assert oracle.shortest_aug_path_len(view, unchecked) == 21
        for m in (Matching([], view), unchecked):
            levels = oracle.alternating_levels(view, m)
            length = oracle.shortest_aug_path_len(view, m)
            for d, depth in ((1, 1), (1, 6), (1, g.n + 1), (3, 9), (17, 17), (17, 40), (17, g.n - 1)):
                shortest, layering, stats = witness_check(g, view, m, forest, d, depth)
                assert shortest == (length if length <= depth else None)
                depths = _attempt_depths(levels, length, d, depth)
                assert layering.level == oracle.alternating_levels(view, m, depths[-1])
                labels = [label for label, _ in stats.per_phase]
                assert labels == ["reachability", "witness-check"] * len(depths)
                if shortest is None and depth >= g.n - 1:
                    assert layering.level == levels
                checked.add((shortest is None, len(depths) > 1))
    # Every outcome, found or not, in one attempt or several, occurred.
    assert checked == {(False, False), (False, True), (True, False), (True, True)}
    assert max(components) > 1


def test_witness_check_fits_one_frame_at_the_floor():
    """At the floor bandwidth ceil(log2 n) + 4, every BFS level, frontier
    value t + 1 and sentinel of a check to depth n + 1 fits one frame."""
    path = gen_path(41)
    rand = gen_random(30, 30, 0.08, 5)
    for g, edges in (
        (path, [(v, v + 1) for v in range(1, 40, 2)]),
        (rand, oracle.max_matching_oracle(whole(rand)).edges),
    ):
        g = g.with_bandwidth(ceil_log2(g.n) + 4)
        view = whole(g)
        m = Matching(edges, view)
        forest, _ = elect_leader_and_bfs(g)
        shortest, layering, stats = witness_check(g, view, m, forest, 1, g.n + 1)
        assert shortest is None and layering.level == oracle.alternating_levels(view, m)
        assert len(stats.per_phase) > 2
        assert stats.fragmentation_rounds == 0
        assert stats.max_message_bits <= g.bandwidth

import math
import random
import statistics
from collections import Counter

import pytest

from bvc import clustering, matching, oracle, primitives, repair
from bvc.clustering import (
    build_cluster_trees,
    combine_with_clusters,
    mpx_partition,
    randomized_pipeline,
    shrink_partition,
)
from bvc.errors import ProgramFault
from bvc.graph import (
    Matching,
    SubgraphView,
    build_graph,
    ceil_log2,
    default_bandwidth,
    gen_disjoint_edges,
    gen_even_cycle,
    gen_path,
    gen_random,
)
from bvc.matching import maximal_matching
from bvc.runtime import id_bits
from support import components, disjoint_union, region_bfs, roots_and_depths, tree_build_bits
from test_acceptance import inside_fraction


def separation_ok(graph, cluster_set, h=3):
    """Exhaustive pairwise check of h-hop separation between clusters."""
    from collections import deque

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


def shrink_by_hand(graph, assignment):
    """Shrink a hand-made assignment, with networkx's BFS parents. No
    relaxation ran, so every neighbour but the parent is owed the origin."""
    parent = region_bfs(graph, assignment)[0]
    stale = {v: tuple(u for u in graph.adjacency[v] if u != parent[v]) for v in graph.node_ids}
    return shrink_partition(graph, assignment, parent, stale)


def test_mpx_single_node():
    g = build_graph([], extra_nodes=[0])
    assignment, parent, _, _ = mpx_partition(g, 0.5, seed=1)
    assert assignment == {0: 0} and parent == {0: None}


def test_mpx_components_stay_separate():
    g = gen_disjoint_edges(3)
    assignment, _, _, _ = mpx_partition(g, 0.5, seed=2)
    for v, origin in assignment.items():
        assert (v < 2) == (origin < 2)
        assert (v in (2, 3)) == (origin in (2, 3))


def test_mpx_total_and_deterministic():
    g = gen_random(10, 10, 0.2, 3)
    first = mpx_partition(g, 1.0, seed=7)
    assert mpx_partition(g, 1.0, seed=7) == first
    assert set(first[0]) == set(g.node_ids)


def test_mpx_clusters_connected():
    from collections import deque

    for seed in range(5):
        g = gen_random(12, 12, 0.15, seed)
        assignment = mpx_partition(g, 0.5, seed=seed)[0]
        groups = {}
        for v, o in assignment.items():
            groups.setdefault(o, set()).add(v)
        for o, vs in groups.items():
            seen = {o}
            queue = deque([o])
            while queue:
                x = queue.popleft()
                for y in g.adjacency[x]:
                    if y in vs and y not in seen:
                        seen.add(y)
                        queue.append(y)
            assert seen == vs


def test_mpx_messages_fit_one_frame():
    for na in (5, 50, 200, 500):
        g = gen_random(na, na, 2.4 / na, 1)
        stats = mpx_partition(g, 0.125, seed=0)[-1]
        assert stats.rounds > 1 and stats.fragmentation_rounds == 0


def test_mpx_path8_lambda1_snapshot():
    # Frozen regression output for a fixed seed.
    g = gen_path(8)
    assignment, parent, _, _ = mpx_partition(g, 1.0, seed=11)
    assert assignment == {0: 0, 1: 2, 2: 2, 3: 2, 4: 6, 5: 6, 6: 6, 7: 7}
    assert parent == {0: None, 1: 2, 2: None, 3: 2, 4: 5, 5: 6, 6: None, 7: None}


@pytest.mark.parametrize("max_redraws", [1, clustering._MAX_REDRAWS])
def test_mpx_shifts_follow_the_exponential_below_the_cap(monkeypatch, max_redraws):
    """A shift is an exponential draw conditioned below the cap, whether
    the redraws find it or, after `_MAX_REDRAWS` of them, the inverse of
    the truncated CDF does. sigma * cap = 0.5 redraws about 61% of first
    draws, so with one redraw allowed most shifts come from the inverse.
    The Kolmogorov-Smirnov distance to the truncated law stays below 0.03
    (the 1% critical value at 4,000 draws is 0.026); drawing uniformly
    below the cap in the fallback instead is 0.043 away."""
    monkeypatch.setattr(clustering, "_MAX_REDRAWS", max_redraws)
    sigma, cap = 0.05, 10
    program = clustering.MpxPartitionProgram(sigma, 1, cap)
    rng = random.Random(5)
    shifts = sorted(program.draw_shift(rng) for _ in range(4000))
    assert 0.0 <= shifts[0] and shifts[-1] < cap

    def cdf(x):
        return math.expm1(-sigma * x) / math.expm1(-sigma * cap)

    n = len(shifts)
    ks = max(max((i + 1) / n - cdf(x), cdf(x) - i / n) for i, x in enumerate(shifts))
    assert ks < 0.03


def test_shrink_single_cluster_keeps_all():
    g = gen_path(5)
    assignment = {v: 0 for v in g.node_ids}
    cs = shrink_by_hand(g, assignment)
    assert all(c == 0 for c in cs.members.values())


def test_shrink_two_adjacent_clusters():
    g = gen_path(4)
    assignment = {0: 0, 1: 0, 2: 2, 3: 2}
    cs = shrink_by_hand(g, assignment)
    assert cs.members == {0: 0, 1: None, 2: None, 3: 2}
    assert separation_ok(g, cs)


def test_shrink_disjoint_components_untouched():
    g = gen_disjoint_edges(3)
    assignment = {v: (v // 2) * 2 for v in g.node_ids}
    cs = shrink_by_hand(g, assignment)
    assert all(c is not None for c in cs.members.values())


def test_shrink_separation_random():
    for seed in range(6):
        g = gen_random(14, 14, 0.15, seed)
        cs = shrink_partition(g, *mpx_partition(g, 0.5, seed=seed)[:3])
        assert separation_ok(g, cs)


def test_tree_build_heights():
    g = gen_path(5)
    cs = shrink_by_hand(g, {v: 0 for v in g.node_ids})
    build_cluster_trees(g, cs)
    root, depth = roots_and_depths(cs.forest)
    assert set(root.values()) == {0}
    assert max(depth.values()) == 4
    assert cs.max_tree_height == 4
    children = {v: kids for v, (_, kids) in cs.forest.items()}
    assert children == {0: (1,), 1: (2,), 2: (3,), 3: (4,), 4: ()}

    g2 = gen_disjoint_edges(2)
    cs2 = shrink_by_hand(g2, {0: 0, 1: 0, 2: 2, 3: 2})
    build_cluster_trees(g2, cs2)
    used = {}
    for v, (p, _) in cs2.forest.items():
        if p is not None:
            e = (min(v, p), max(v, p))
            used[e] = used.get(e, 0) + 1
    assert all(count == 1 for count in used.values())


def test_tree_spans_members_after_shrink():
    for seed in range(5):
        g = gen_random(15, 15, 0.12, seed)
        cs = shrink_partition(g, *mpx_partition(g, 0.4, seed=seed)[:3])
        build_cluster_trees(g, cs)
        root, depth = roots_and_depths(cs.forest)
        # Each tree spans its origin region, rooted at the origin.
        assert all(root[v] == cs.origin[v] for v in cs.forest)
        for c, members in cs.clusters().items():
            for v in members:
                assert root[v] == c
        assert cs.max_tree_height == max(depth.values(), default=0)
        # The children each node learned are exactly the nodes naming it parent.
        for v, (_, kids) in cs.forest.items():
            assert kids == tuple(u for u in sorted(cs.forest) if cs.forest[u][0] == v)


def _mpx_instance(g, lam, seed):
    return g, mpx_partition(g, lam, seed=seed)[0]


TREE_INSTANCES = [
    (build_graph([], extra_nodes=[0, 1, 2]), {0: 0, 1: 1, 2: 2}),
    (gen_path(9), dict.fromkeys(range(9), 0)),
    (gen_even_cycle(12), dict.fromkeys(range(12), 0)),
    (gen_even_cycle(12), dict.fromkeys(range(12), 5)),
    *(_mpx_instance(gen_random(30, 30, 0.06, s), 0.25, s) for s in range(5)),
    _mpx_instance(disjoint_union(gen_path(5), gen_random(12, 12, 0.15, 2)), 1.0, 3),
]


@pytest.mark.parametrize("g, assignment", TREE_INSTANCES)
def test_tree_build_takes_3_rounds(g, assignment):
    """With the parents known, the build takes 3 rounds whatever the
    deepest region depth is, 1 on an edgeless graph: the origins each node
    owes its neighbours, then the member flags, then the attachment. With
    no relaxation before it, every neighbour but the parent is owed the
    origin. Every message fits one frame."""
    cs = shrink_by_hand(g, assignment)
    stats = build_cluster_trees(g, cs)
    assert stats.rounds == (3 if g.edges else 1)
    assert stats.total_bits == tree_build_bits(g, cs)
    assert stats.max_message_bits == (id_bits(g.n) + 1 if g.edges else 0)
    assert stats.fragmentation_rounds == 0


def test_combine_single_cluster_reduces_to_inner():
    g = gen_random(8, 8, 0.3, 4)
    m, _ = maximal_matching(g, seed=4)
    comp_root = {v: min(comp) for comp in components(g) for v in comp}
    cs = shrink_by_hand(g, comp_root)
    build_cluster_trees(g, cs)
    cover, _ = combine_with_clusters(g, m, cs, 1.0, seed=4)
    assert cover.is_valid()
    view = SubgraphView.whole(g)
    opt = oracle.min_vc_oracle(view).size
    assert cover.size <= 2 * opt + 1e-9


def test_combine_solves_over_the_cluster_trees(monkeypatch):
    """Each cluster solve runs over its cluster's tree, relabelled into the
    sub-graph and rooted at the cluster's origin, and elects nothing. A
    cluster whose region is a lone node, with no edge, runs no solve."""
    g = gen_random(30, 30, 0.06, 3)
    m, _ = maximal_matching(g, seed=3)
    cs = shrink_partition(g, *mpx_partition(g, 0.25, seed=4)[:3])
    build_cluster_trees(g, cs)
    root, depth = roots_and_depths(cs.forest)
    origins = sorted(set(root.values()))
    assert len(origins) > 1
    forests, phases = [], []
    inner, engine = clustering.koenig_approx_cover, primitives.run

    def recording_cover(graph, view, matching, k, *, forest, layering):
        forests.append(forest)
        return inner(graph, view, matching, k, forest=forest, layering=layering)

    def recording_run(*args, **kwargs):
        phases.append(kwargs.get("phase"))
        return engine(*args, **kwargs)

    monkeypatch.setattr(clustering, "koenig_approx_cover", recording_cover)
    monkeypatch.setattr(primitives, "run", recording_run)
    cover, _ = combine_with_clusters(g, m, cs, 0.5, seed=3)
    monkeypatch.undo()
    assert cover.is_valid()
    assert "class-sizes" in phases and "elect-bfs" not in phases
    sizes = Counter(root.values())
    solved = [c for c in origins if sizes[c] > 1]
    assert len(solved) < len(origins) and len(forests) == len(solved)
    for forest, c in zip(forests, solved):
        ordered = sorted(v for v in cs.forest if root[v] == c)
        sub_root, sub_depth = roots_and_depths(forest)
        assert {ordered[r] for r in sub_root.values()} == {c}
        relabelled = {
            ordered[v]: (None if p is None else ordered[p], tuple(ordered[x] for x in kids))
            for v, (p, kids) in forest.items()
        }
        assert relabelled == {v: cs.forest[v] for v in ordered}
        assert {ordered[v]: d for v, d in sub_depth.items()} == {v: depth[v] for v in ordered}


def test_combine_x_covers_outside_matching():
    # Two matched edges, the clusters exclude nodes 2,3 entirely.
    g = gen_disjoint_edges(2)
    m = Matching([(0, 1), (2, 3)], SubgraphView.whole(g))
    cs = shrink_by_hand(g, {0: 0, 1: 0, 2: 2, 3: 2})
    cs.members[2] = None
    cs.members[3] = None
    build_cluster_trees(g, cs)
    cover, _ = combine_with_clusters(g, m, cs, 1.0, seed=1)
    assert {2, 3} <= cover.nodes
    assert cover.is_valid()


def test_combine_rejects_clusters_one_hop_apart():
    # Node 1 borders clusters 0 and 2: the tree build must refuse, not guess.
    g = gen_path(3)
    cs = shrink_by_hand(g, {0: 0, 1: 0, 2: 2})
    assert cs.members == {0: 0, 1: None, 2: None}
    cs.members[2] = 2
    with pytest.raises(ProgramFault, match="separation violated"):
        build_cluster_trees(g, cs)


def test_pipeline_edgeless():
    g = build_graph([], extra_nodes=[0, 1, 2])
    cover, _, _ = randomized_pipeline(g, 0.5, seed=1)
    assert cover.size == 0


def test_pipeline_phases_end_with_a_3_round_tree_exchange():
    """The shrink sends nothing and has no phase; the cluster trees take
    one 3-round exchange, right after MPX."""
    g = gen_random(30, 30, 0.06, 3)
    _, stats, cs = randomized_pipeline(g, 0.5, seed=2)
    labels = [label for label, _ in stats.per_phase]
    assert any(cs.peers.values())
    assert "shrink" not in labels
    assert labels[labels.index("mpx") + 1] == "cluster-trees"
    assert dict(stats.per_phase)["cluster-trees"] == 3


def test_pipeline_disjoint_edges():
    # Per-component clustering usually keeps each edge inside one cluster;
    # this seed is one of the typical runs where the cover is optimal.
    g = gen_disjoint_edges(5)
    cover, _, _ = randomized_pipeline(g, 0.5, seed=1)
    assert cover.is_valid()
    assert cover.size == 5
    # Across seeds the expectation guarantee holds with room to spare.
    sizes = [randomized_pipeline(g, 0.5, seed=s)[0].size for s in range(8)]
    assert statistics.mean(sizes) <= 1.5 * 5


def test_pipeline_valid_and_reasonable():
    g = gen_random(25, 25, 0.1, 5)
    view = SubgraphView.whole(g)
    opt = oracle.min_vc_oracle(view).size
    sizes = []
    for seed in range(8):
        cover, stats, cs = randomized_pipeline(g, 0.5, seed=seed)
        assert cover.is_valid()
        assert separation_ok(g, cs)
        sizes.append(cover.size)
    assert statistics.mean(sizes) <= 1.6 * opt


def test_pipeline_rounds_have_no_cliff_in_eps():
    """Asking for a slightly better ratio costs slightly more: between
    neighbouring eps (k = 8, 12, 13, 16, 40 in the cluster solves) rounds
    differ by at most 2x."""
    g = gen_random(200, 200, 0.012, 5)
    rounds = [randomized_pipeline(g, eps, seed=1)[1].rounds for eps in (0.5, 0.34, 0.33, 0.25, 0.1)]
    for a, b in zip(rounds, rounds[1:]):
        assert max(a, b) <= 2 * min(a, b), rounds


@pytest.mark.parametrize("which", ["floor", "default", "default+7"])
def test_pipeline_runs_at_the_graph_bandwidth(monkeypatch, which):
    """B belongs to the network: every engine call of the pipeline, the
    cluster solves on their relabelled sub-graphs included, runs at the
    graph's B, although the smaller sub-graphs have smaller defaults."""
    g = gen_random(40, 40, 0.05, 5)
    b = {
        "floor": ceil_log2(g.n) + 4,
        "default": default_bandwidth(g.n),
        "default+7": default_bandwidth(g.n) + 7,
    }[which]
    calls = []

    def recording(engine):
        def run(program, graph, *args, **kwargs):
            calls.append((graph.n, graph.bandwidth))
            return engine(program, graph, *args, **kwargs)

        return run

    for module in (primitives, matching, repair, clustering):
        monkeypatch.setattr(module, "run", recording(module.run))
    cover, _, _ = randomized_pipeline(g.with_bandwidth(b), 0.5, seed=1)
    monkeypatch.undo()
    assert cover.is_valid()
    assert {bw for _, bw in calls} == {b}
    sub_sizes = {n for n, _ in calls if n < g.n}
    assert any(default_bandwidth(n) < default_bandwidth(g.n) for n in sub_sizes)


def test_cluster_optima_are_disjoint_lower_bounds():
    # Extended cluster graphs are vertex-disjoint, so their optima sum to
    # at most the global optimum.
    from bvc.graph import edge_key

    for seed in range(4):
        g = gen_random(12, 12, 0.15, seed)
        view = SubgraphView.whole(g)
        cs = shrink_partition(g, *mpx_partition(g, 0.5, seed=seed)[:3])
        members = cs.members
        sum_opt = 0
        for c, vs in cs.clusters().items():
            nodes = set(vs)
            edges = set()
            for u, v in g.edges:
                if u in nodes and v in nodes:
                    edges.add(edge_key(u, v))
                elif u in nodes and members.get(v) is None:
                    edges.add(edge_key(u, v))
                    nodes.add(v)
                elif v in nodes and members.get(u) is None:
                    edges.add(edge_key(u, v))
                    nodes.add(u)
            sum_opt += oracle.min_vc_oracle(SubgraphView(g, nodes, edges)).size
        opt = oracle.min_vc_oracle(SubgraphView.whole(g)).size
        assert sum_opt <= opt


def test_pipeline_density_statistics():
    g = gen_random(20, 20, 0.12, 9)
    fractions = []
    for seed in range(30):
        m, _ = maximal_matching(g, seed=seed)
        lam = 0.25
        cs = shrink_partition(g, *mpx_partition(g, lam, seed=seed + 1000)[:3])
        fractions.append(1.0 - inside_fraction(cs, m))
    mean_outside = statistics.mean(fractions)
    stderr = statistics.pstdev(fractions) / max(1, len(fractions)) ** 0.5
    assert mean_outside <= 0.25 + 3 * stderr + 0.05

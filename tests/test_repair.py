import math
import random

import pytest

from bvc import oracle
from bvc.errors import ShorterPathExists
from bvc.graph import (
    Matching,
    SubgraphView,
    build_graph,
    gen_complete,
    gen_path,
    gen_random,
)
from bvc.konig import koenig_approx_cover
from bvc.matching import eliminate_short_aug_paths
from bvc.primitives import elect_leader_and_bfs
from bvc.repair import (
    cover_short_paths,
    count_paths,
    det_cover_low_diameter,
    repair_alpha,
    repair_matching,
)
from support import (
    b_classes,
    components,
    enumerate_aug_paths,
    halving_cover,
    max_view_degree,
    per_node_counts,
)
from test_acceptance import _thick_path

INF = math.inf


def whole(g):
    return SubgraphView.whole(g)


def forest(g):
    return elect_leader_and_bfs(g)[0]


def stage_alpha(d, delta_deg):
    """Per-stage size coefficient 2(d+3)(1 + d ln Delta) of cover_short_paths."""
    ln_delta = math.log(delta_deg) if delta_deg > 1 else 0.0
    return 2.0 * (d + 3) * (1.0 + d * ln_delta)


def weakened(view, drop):
    """Maximum matching with `drop` edges removed: known deficiency."""
    edges = sorted(oracle.max_matching_oracle(view).edges)
    return Matching(edges[drop:], view), len(edges)


def test_count_single_free_edge():
    g = build_graph([(0, 1)])
    view = whole(g)
    m = Matching([], view)
    counts, _ = count_paths(g, view, m, 1, delta=max_view_degree(view))
    assert counts.count == {0: 1, 1: 1}
    assert counts.level == {0: 0, 1: 1}


def test_count_p4():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    counts, _ = count_paths(g, view, m, 3, delta=max_view_degree(view))
    assert counts.count == {0: 1, 1: 1, 2: 1, 3: 1}


def test_count_shared_middle_edge():
    g = build_graph([(0, 4), (2, 4), (4, 5), (5, 6)])
    view = whole(g)
    m = Matching([(4, 5)], view)
    counts, _ = count_paths(g, view, m, 3, delta=max_view_degree(view))
    # Both ends of the matching edge (4, 5) hold its count.
    assert counts.count == {0: 1, 2: 1, 4: 2, 5: 2, 6: 2}


def test_count_precondition():
    g = gen_path(4)
    view = whole(g)
    with pytest.raises(ShorterPathExists):
        count_paths(g, view, Matching([(1, 2)], view), 5, delta=max_view_degree(view))


def shortest_at(d):
    """(g, view, m) for each seed of gen_random(9, 9, 0.3, 0..13) whose
    matching's shortest augmenting path has length d: the maximum matching
    less two edges at d = 1, else the elimination to length d - 2."""
    for seed in range(14):
        g = gen_random(9, 9, 0.3, seed)
        view = whole(g)
        if d == 1:
            m, _ = weakened(view, 2)
        else:
            # Eliminating shorter paths leaves the shortest at >= d.
            m, _, _ = eliminate_short_aug_paths(
                g, view, Matching([], view), (d - 1) // 2, seed=seed
            )
        if oracle.shortest_aug_path_len(view, m) == d:
            yield g, view, m


@pytest.mark.parametrize("d", [1, 3, 5])
def test_count_matches_oracle(d):
    hits = 0
    for g, view, m in shortest_at(d):
        hits += 1
        counts, stats = count_paths(g, view, m, d, delta=max_view_degree(view))
        # One engine run: the prefix sweep is the BFS.
        assert [label for label, _ in stats.per_phase] == ["count-sweeps"]
        assert counts.level == oracle.alternating_levels(view, m, depth_limit=d)
        expected = enumerate_aug_paths(view, m, d)
        assert {v: counts.count.get(v, 0) for v in view.in_nodes} == per_node_counts(expected)
        # Conservation across the levels.
        start_total = sum(c for v, c in counts.count.items() if counts.level[v] == 0)
        end_total = sum(c for v, c in counts.count.items() if counts.level[v] == d)
        assert start_total == end_total == sum(
            c for v, c in expected.node_counts.items() if g.side[v] == "A"
        )
    assert hits > 0 or d == 5


def test_cover_single_edge_d1():
    g = build_graph([(0, 1)])
    view = whole(g)
    s_h, _, _ = cover_short_paths(g, view, Matching([], view), 1, forest=forest(g))
    assert len(s_h) == 1
    residual = view.without_nodes(s_h)
    assert oracle.shortest_aug_path_len(residual, Matching([], residual)) == INF


def test_cover_no_paths():
    g = gen_path(4)
    view = whole(g)
    m = oracle.max_matching_oracle(view)
    s_h, _, _ = cover_short_paths(g, view, m, 3, forest=forest(g))
    assert s_h == set()


def test_cover_p4_d3():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    s_h, _, _ = cover_short_paths(g, view, m, 3, forest=forest(g))
    assert s_h in ({0}, {3}, {1, 2})
    residual = view.without_nodes(s_h)
    m_bar = m.restricted_to(residual)
    assert oracle.shortest_aug_path_len(residual, m_bar) > 3


def test_cover_pairs_and_bound():
    for seed in range(10):
        g = gen_random(10, 10, 0.3, seed)
        view = whole(g)
        m, best = weakened(view, 2)
        d = oracle.shortest_aug_path_len(view, m)
        if d is INF or d > 5:
            continue
        s_h, _, _ = cover_short_paths(g, view, m, d, forest=forest(g))
        residual = view.without_nodes(s_h)
        m_bar = m.restricted_to(residual)
        assert oracle.shortest_aug_path_len(residual, m_bar) > d
        # Matched nodes leave in pairs.
        for v in s_h:
            p = m.partner_of(v)
            if p is not None:
                assert p in s_h
        # Set size within the stage coefficient.
        delta_true = 1.0 - m.size / best if best else 0.0
        opt = best
        assert len(s_h) <= stage_alpha(d, max_view_degree(view)) * delta_true * opt + 1e-9


@pytest.mark.parametrize("d", [1, 3, 5])
def test_cover_matches_the_sequential_halving_cover(d):
    """The threshold sweep removes exactly the nodes of the sequential
    halving loop."""
    hits = 0
    for g, view, m in shortest_at(d):
        hits += 1
        s_h, _, _ = cover_short_paths(g, view, m, d, forest=forest(g))
        assert s_h == halving_cover(view, m, d)
    assert hits > 0 or d == 5


def test_cover_takes_the_counts_that_reach_the_threshold():
    """On the path 0-1-2 without a matching, Delta^1 = 2 and phase 1 takes
    every count c with 2c >= 2: the free A-nodes 0 and 2, whose position
    comes first, and not the B-node 1 that both paths share."""
    g = gen_path(3)
    view = whole(g)
    s_h, _, _ = cover_short_paths(g, view, Matching([], view), 1, forest=forest(g))
    assert s_h == halving_cover(view, Matching([], view), 1) == {0, 2}


def test_repair_stages_match_the_sequential_halving_cover():
    """On criterion 4's deficient matchings, every stage of the repair
    removes exactly the nodes of the sequential halving loop on the
    residual it starts from, and a stage below the shortest remaining
    length removes none."""
    rng = random.Random(44)
    covered = 0
    for i in range(40):
        k = (2, 3)[i % 2]
        na = rng.randint(6, 20)
        g = gen_random(na, rng.randint(6, 20), rng.uniform(0.15, 0.35), rng.randrange(1 << 30))
        view = whole(g)
        best_edges = sorted(oracle.max_matching_oracle(view).edges)
        if len(best_edges) < 2:
            continue
        m = Matching(best_edges[1 + (i % 3 == 0):], view)
        result, _, _ = repair_matching(g, view, m, k, forest=forest(g))
        residual = view
        for d, removed in result.per_stage:
            m_bar = m.restricted_to(residual)
            if oracle.shortest_aug_path_len(residual, m_bar) == d:
                assert removed == halving_cover(residual, m_bar, d), f"instance {i}, d = {d}"
                covered += 1
            else:
                assert removed == set()
            residual = residual.without_nodes(removed)
    assert covered >= 35


def test_repair_runs_no_bfs_inside_a_count():
    """Every alternating BFS of a repair is a check's: the counts level the
    nodes in their own prefix sweep. The threshold phases return the last,
    empty check's layering."""
    multi = 0
    for seed in range(10):
        g = gen_random(10, 10, 0.3, seed)
        view = whole(g)
        m, _ = weakened(view, 2)
        d = oracle.shortest_aug_path_len(view, m)
        if d is INF or d > 5:
            continue
        f = forest(g)
        s_h, layering, stats = cover_short_paths(g, view, m, d, forest=f)
        labels = [label for label, _ in stats.per_phase]
        multi += labels.count("witness-check") >= 2
        residual = view.without_nodes(s_h)
        m_bar = m.restricted_to(residual)
        assert layering.level == oracle.alternating_levels(residual, m_bar, depth_limit=d)
        _, _, stats = repair_matching(g, view, m, 3, forest=f)
        assert {label for label, _ in stats.per_phase} == {
            "reachability",
            "witness-check",
            "max-degree",
            "count-sweeps",
            "remove",
        }
    assert multi >= 5


def test_every_position_ends_in_a_removal_round():
    """A position whose batch is empty still runs its removal round: no node
    can see that the batch was empty elsewhere. On P4 every count is 1 and
    phase i picks counts >= Delta^3 / 2^i = 8 / 2^i, so the three positions
    of each of the first two phases remove nothing."""
    g = gen_path(4)
    view = whole(g)
    s_h, _, stats = cover_short_paths(g, view, Matching([(1, 2)], view), 3, forest=forest(g))
    phases = stats.per_phase
    counts = [i for i, (label, _) in enumerate(phases) if label == "count-sweeps"]
    assert len(counts) >= 7 and s_h
    assert all(phases[i + 1] == ("remove", 1) for i in counts)


def test_repair_maximum_matching_no_removal():
    g = gen_random(8, 8, 0.4, 2)
    view = whole(g)
    m = oracle.max_matching_oracle(view)
    result, m_bar, _ = repair_matching(g, view, m, 2, forest=forest(g))
    assert result.s1 == set()
    assert m_bar.edges == m.edges


def test_repair_p4_k2():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    result, m_bar, _ = repair_matching(g, view, m, 2, forest=forest(g))
    residual = view.without_nodes(result.s1)
    assert oracle.shortest_aug_path_len(residual, m_bar) >= 5
    stages = dict(result.per_stage)
    assert stages[1] == set()
    assert stages[3]
    # Stage 3 = 2k - 1 ends the repair: its closing check's layering is kept.
    assert result.layering.level == oracle.alternating_levels(residual, m_bar, depth_limit=3)


def test_repair_counts_only_the_stages_a_check_leaves(monkeypatch):
    """On P4 with M = {(1, 2)} the shortest augmenting path has length 3:
    stage 1 is recorded empty and nothing is counted for it."""
    import bvc.repair

    counted = []
    real = bvc.repair.count_paths

    def spy(graph, view, matching, d, **kwargs):
        counted.append(d)
        return real(graph, view, matching, d, **kwargs)

    monkeypatch.setattr(bvc.repair, "count_paths", spy)
    g = gen_path(4)
    view = whole(g)
    result, _, _ = repair_matching(g, view, Matching([(1, 2)], view), 2, forest=forest(g))
    assert counted and set(counted) == {3}
    assert result.per_stage[0] == (1, set())
    assert [d for d, _ in result.per_stage] == [1, 3]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_repair_keeps_the_layering_the_cover_reads(k):
    """The result's layering is that of the last check, which found no
    augmenting path of length <= 2k - 1 over the final residual: the
    oracle's levels there. The layered cover read off it is the one a fresh
    BFS gives, |M| plus the componentwise smallest B-class."""
    for seed in range(6):
        g = gen_random(11, 11, 0.3, seed)
        view = whole(g)
        m, _ = weakened(view, 2)
        f = forest(g)
        result, m_bar, _ = repair_matching(g, view, m, k, forest=f)
        residual = view.without_nodes(result.s1)
        level = oracle.alternating_levels(residual, m_bar, depth_limit=2 * k - 1)
        assert result.layering.level == level
        cover, stats = koenig_approx_cover(
            g, residual, m_bar, k, forest=f, layering=result.layering
        )
        fresh, _ = koenig_approx_cover(g, residual, m_bar, k, forest=f, layering=None)
        assert cover.nodes == fresh.nodes and "partition" not in dict(stats.per_phase)
        classes = b_classes(residual, level, k)
        assert cover.size == m_bar.size + sum(
            min(len(c & comp) for c in classes) for comp in components(g)
        )


def test_repair_k1_on_maximal_matching():
    from bvc.matching import maximal_matching

    g = gen_random(9, 9, 0.3, 5)
    view = whole(g)
    m, _ = maximal_matching(g, seed=5)
    result, _, _ = repair_matching(g, view, m, 1, forest=forest(g))
    assert result.s1 == set()


@pytest.mark.parametrize("k", [2, 3])
def test_repair_bounds(k):
    for seed in range(8):
        g = gen_random(11, 11, 0.3, seed)
        view = whole(g)
        m, best = weakened(view, 2)
        result, m_bar, _ = repair_matching(g, view, m, k, forest=forest(g))
        residual = view.without_nodes(result.s1)
        assert oracle.shortest_aug_path_len(residual, m_bar) >= 2 * k + 1
        # Unmatched nodes after repair were unmatched before.
        for v in residual.in_nodes:
            if not m_bar.is_matched(v):
                assert not m.is_matched(v) or m.partner_of(v) in result.s1
                if m.is_matched(v):
                    # The partner left only together with v, never alone.
                    assert v in result.s1 or m.partner_of(v) not in result.s1
        delta_true = 1.0 - m.size / best if best else 0.0
        opt = best
        assert len(result.s1) <= repair_alpha(k, max_view_degree(view)) * delta_true * opt + 1e-9


def test_unmatched_preservation_direct():
    for seed in range(6):
        g = gen_random(10, 10, 0.35, seed)
        view = whole(g)
        m, _ = weakened(view, 3)
        result, m_bar, _ = repair_matching(g, view, m, 2, forest=forest(g))
        residual = view.without_nodes(result.s1)
        for v in residual.in_nodes:
            if m.is_matched(v):
                assert m_bar.is_matched(v), "repair created an unmatched node"


def test_det_cover_p4():
    g = gen_path(4)
    view = whole(g)
    cover, _ = det_cover_low_diameter(g, view, 1.0)
    assert cover.is_valid()
    assert cover.size <= 4
    assert cover.size <= 3


def test_det_cover_k23():
    g = gen_complete(2, 3)
    view = whole(g)
    cover, _ = det_cover_low_diameter(g, view, 0.5)
    assert cover.is_valid()
    assert cover.size <= 3


def test_det_cover_runs_no_count_after_a_certified_elimination():
    """The default provider leaves no augmenting path of length <= 2k' - 1,
    so the repair's first check ends it: no count, and the only max-degree
    aggregate is the pipeline's own."""
    g = gen_random(20, 20, 0.1, 3)
    g = g.with_bandwidth((g.n - 1).bit_length() + 4)
    view = whole(g)
    cover, stats = det_cover_low_diameter(g, view, 0.5)
    labels = [label for label, _ in stats.per_phase]
    assert "count-sweeps" not in labels and "layering" not in labels
    # The layered cover reads the repair check's layering: no BFS of its own.
    assert "partition" not in labels
    assert labels.count("max-degree") == 1
    assert cover.is_valid()
    assert cover.size <= 1.5 * oracle.min_vc_oracle(view).size


def test_det_cover_edgeless():
    g = build_graph([], extra_nodes=[0, 1])
    view = whole(g)
    cover, _ = det_cover_low_diameter(g, view, 0.5)
    assert cover.size == 0


@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
def test_det_cover_bound_random(eps):
    for seed in range(4):
        g = gen_random(12, 12, 0.25, seed)
        view = whole(g)
        cover, _ = det_cover_low_diameter(g, view, eps)
        assert cover.is_valid()
        opt = oracle.min_vc_oracle(view).size
        assert cover.size <= (1 + eps) * opt + 1e-9


def test_alpha_value_small_delta():
    # Stage coefficient at d=1, degree bound 2: 2*4*(1 + ln 2).
    assert stage_alpha(1, 2) == pytest.approx(8 * (1 + math.log(2)))
    assert repair_alpha(2, 1) == pytest.approx(24.0)


@pytest.mark.parametrize("width", [2, 3, 4])
@pytest.mark.parametrize("d", [1, 3, 5, 7, 9])
def test_count_rounds_follow_documented_schedule(d, width):
    """count_paths is one `count-sweeps` run of exactly
    2d*ceil(w/B) + 1 rounds, w = bitlength(Delta^d), whose levels and
    counts do not depend on B."""
    g, m_edges = _thick_path(d, width)
    view = whole(g)
    m = Matching(m_edges, view)
    delta = max_view_degree(view)
    w = (delta**d).bit_length()
    floor = (g.n - 1).bit_length() + 4
    expected = enumerate_aug_paths(view, m, d)
    level = oracle.alternating_levels(view, m, depth_limit=d)
    for bw in (floor, floor + 7, 64):
        g_bw = g.with_bandwidth(bw)
        counts, stats = count_paths(g_bw, whole(g_bw), m, d, delta=delta)
        assert stats.per_phase == [("count-sweeps", 2 * d * math.ceil(w / bw) + 1)]
        assert counts.level == level
        assert {v: counts.count.get(v, 0) for v in view.in_nodes} == per_node_counts(expected)

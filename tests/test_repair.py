import math

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
from bvc.primitives import elect_leader_and_bfs
from bvc.repair import (
    cover_short_paths,
    count_paths,
    det_cover_low_diameter,
    repair_alpha,
    repair_matching,
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
    counts, _ = count_paths(g, view, Matching([], view), 1, delta=view.max_view_degree())
    assert counts.p_node == {0: 1, 1: 1}
    assert counts.total == 1


def test_count_p4():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    counts, _ = count_paths(g, view, m, 3, delta=view.max_view_degree())
    assert counts.p_node[0] == 1
    assert counts.p_node[3] == 1
    assert counts.p_edge[(1, 2)] == 1


def test_count_shared_middle_edge():
    g = build_graph([(0, 4), (2, 4), (4, 5), (5, 6)])
    view = whole(g)
    m = Matching([(4, 5)], view)
    counts, _ = count_paths(g, view, m, 3, delta=view.max_view_degree())
    assert counts.p_edge[(4, 5)] == 2
    assert counts.p_node[0] == 1
    assert counts.p_node[2] == 1
    assert counts.p_node[6] == 2


def test_count_precondition():
    g = gen_path(4)
    view = whole(g)
    with pytest.raises(ShorterPathExists):
        count_paths(g, view, Matching([(1, 2)], view), 5, delta=view.max_view_degree())


@pytest.mark.parametrize("d", [1, 3, 5])
def test_count_matches_oracle(d):
    from bvc.matching import eliminate_short_aug_paths

    hits = 0
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
        if oracle.shortest_aug_path_len(view, m) != d:
            continue
        hits += 1
        counts, _ = count_paths(g, view, m, d, delta=view.max_view_degree())
        expected = oracle.enumerate_aug_paths(view, m, d)
        for v, c in expected.node_counts.items():
            assert counts.p_node.get(v, 0) == c, f"node {v}"
        for e, c in expected.edge_counts.items():
            assert counts.p_edge.get(e, 0) == c, f"edge {e}"
        # Conservation across the levels.
        start_total = sum(
            c for v, c in counts.p_node.items() if counts.level.get(v) == 0
        )
        end_total = sum(
            c for v, c in counts.p_node.items() if counts.level.get(v) == d
        )
        assert start_total == end_total == counts.total
    assert hits > 0 or d == 5


def test_cover_single_edge_d1():
    g = build_graph([(0, 1)])
    view = whole(g)
    s_h, _ = cover_short_paths(g, view, Matching([], view), 1, forest=forest(g))
    assert len(s_h) == 1
    residual = view.without_nodes(s_h)
    assert oracle.shortest_aug_path_len(residual, Matching([], residual)) == INF


def test_cover_no_paths():
    g = gen_path(4)
    view = whole(g)
    m = oracle.max_matching_oracle(view)
    s_h, _ = cover_short_paths(g, view, m, 3, forest=forest(g))
    assert s_h == set()


def test_cover_p4_d3():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    s_h, _ = cover_short_paths(g, view, m, 3, forest=forest(g))
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
        s_h, _ = cover_short_paths(g, view, m, d, forest=forest(g))
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
        assert len(s_h) <= stage_alpha(d, view.max_view_degree()) * delta_true * opt + 1e-9


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
    stages = dict((d, f) for d, f, _ in result.per_stage)
    assert stages[1] == set()
    assert stages[3]


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
        assert len(result.s1) <= result.alpha * delta_true * opt + 1e-9


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
    """count_paths costs exactly d + 4 layering rounds and
    d*(ceil((2+w)/B) + ceil((2+2w)/B)) + 1 sweep rounds, w = bitlength(Delta^d)."""
    g, m_edges = _thick_path(d, width)
    view = whole(g)
    m = Matching(m_edges, view)
    delta = view.max_view_degree()
    w = (delta**d).bit_length()
    floor = (g.n - 1).bit_length() + 4
    for bw in (floor, floor + 7, 64):
        g_bw = g.with_bandwidth(bw)
        _, stats = count_paths(g_bw, whole(g_bw), m, d, delta=delta)
        phases = dict(stats.per_phase)
        assert phases["layering"] == d + 4
        sweeps = d * (math.ceil((2 + w) / bw) + math.ceil((2 + 2 * w) / bw)) + 1
        assert phases["count-sweeps"] == sweeps, (bw, phases)

import math

import pytest

from bvc import oracle
from bvc.errors import InvalidParam
from bvc.graph import (
    Matching,
    SubgraphView,
    build_graph,
    gen_complete,
    gen_disjoint_edges,
    gen_path,
    gen_random,
)
from bvc.matching import (
    approx_matching,
    eliminate_short_aug_paths,
    maximal_matching,
    parse_provider,
    select_disjoint_paths,
)
from bvc.primitives import alternating_bfs
from bvc.runtime import derive_seed

INF = math.inf


def whole(g):
    return SubgraphView.whole(g)


def find_disjoint_aug_paths(g, view, m, d, *, seed=0):
    """A maximal set of vertex-disjoint length-d augmenting paths: one
    layering to depth d, checked free of shorter paths, then one selection."""
    layering, _ = alternating_bfs(g, view, m, d)
    assert not list(layering.witnesses(view, m, below=d))
    _, paths, _ = select_disjoint_paths(g, view, m, d, layering, seed=derive_seed(seed, 2))
    return paths


def is_maximal(view, m):
    return all(m.is_matched(u) or m.is_matched(v) for u, v in view.in_edges)


def test_maximal_disjoint_edges():
    g = gen_disjoint_edges(3)
    m, _ = maximal_matching(g, seed=3)
    assert m.size == 3


def test_maximal_star():
    g = gen_complete(1, 4)
    m, _ = maximal_matching(g, seed=5)
    assert m.size == 1


def test_maximal_p4():
    for seed in range(10):
        g = gen_path(4)
        m, _ = maximal_matching(g, seed=seed)
        assert m.size in (1, 2)
        assert is_maximal(whole(g), m)


def test_maximal_random_graphs():
    for seed in range(6):
        g = gen_random(12, 12, 0.2, seed)
        view = whole(g)
        m, stats = maximal_matching(g, seed=seed)
        assert is_maximal(view, m)
        # A maximal matching is at least half of maximum.
        assert 2 * m.size >= oracle.max_matching_oracle(view).size


def test_maximal_determinism():
    g = gen_random(10, 10, 0.3, 2)
    m1, s1 = maximal_matching(g, seed=9)
    m2, s2 = maximal_matching(g, seed=9)
    assert m1.edges == m2.edges
    assert s1.to_dict() == s2.to_dict()


def test_find_paths_single_free_edge():
    g = build_graph([(0, 1)])
    view = whole(g)
    paths = find_disjoint_aug_paths(g, view, Matching([], view), 1, seed=1)
    assert paths == [(0, 1)]


def test_find_paths_two_disjoint_edges():
    g = gen_disjoint_edges(2)
    view = whole(g)
    paths = find_disjoint_aug_paths(g, view, Matching([], view), 1, seed=1)
    assert sorted(paths) == [(0, 1), (2, 3)]


def test_find_paths_p4_length3():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    paths = find_disjoint_aug_paths(g, view, m, 3, seed=1)
    assert paths == [(0, 1, 2, 3)]


def assert_valid_aug_paths(view, m, d, paths):
    seen = set()
    base = view.base
    for path in paths:
        assert len(path) == d + 1
        assert not (set(path) & seen)
        seen.update(path)
        assert not m.is_matched(path[0]) and not m.is_matched(path[-1])
        for i in range(d):
            u, v = path[i], path[i + 1]
            assert view.contains_edge(u, v)
            if i % 2 == 0:
                assert m.partner_of(u) != v
            else:
                assert m.partner_of(u) == v


def test_find_paths_properties_random():
    found_any = False
    for seed in range(12):
        g = gen_random(10, 10, 0.25, seed)
        view = whole(g)
        m_edges = sorted(oracle.max_matching_oracle(view).edges)
        m = Matching(m_edges[2:], view)
        d = oracle.shortest_aug_path_len(view, m)
        if d is INF or d > 9:
            continue
        found_any = True
        paths = find_disjoint_aug_paths(g, view, m, d, seed=seed)
        assert paths, "a shortest augmenting path must be found"
        assert_valid_aug_paths(view, m, d, paths)
        # Maximality: removing the chosen nodes leaves no length-d path.
        residual = view.without_nodes([v for p in paths for v in p])
        rest = m.restricted_to(residual)
        assert oracle.shortest_aug_path_len(residual, rest) > d
    assert found_any


def test_select_augments_by_path_count():
    from bvc.matching import select_disjoint_paths
    from bvc.primitives import alternating_bfs

    for seed in range(8):
        g = gen_random(10, 10, 0.3, seed)
        view = whole(g)
        m = Matching([], view)
        layering, _ = alternating_bfs(g, view, m, 1)
        flipped, paths, _ = select_disjoint_paths(g, view, m, 1, layering, seed=seed)
        assert flipped.size == m.size + len(paths)


def test_eliminate_k1_is_maximal():
    g = gen_path(4)
    view = whole(g)
    m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), 1, seed=4)
    assert is_maximal(view, m)


def test_eliminate_p4_k2_reaches_maximum():
    g = gen_path(4)
    view = whole(g)
    m0 = Matching([(1, 2)], view)
    m, _, _ = eliminate_short_aug_paths(g, view, m0, 2, seed=4)
    assert m.size == 2


def test_eliminate_large_k_gives_maximum():
    for seed in range(5):
        g = gen_random(9, 9, 0.3, seed)
        view = whole(g)
        k = (g.n + 2) // 2
        m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=seed)
        assert m.size == oracle.max_matching_oracle(view).size


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_eliminate_postcondition_and_hk_bound(k):
    for seed in range(4):
        g = gen_random(11, 11, 0.25, seed)
        view = whole(g)
        m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=seed)
        assert oracle.shortest_aug_path_len(view, m) >= 2 * k + 1
        best = oracle.max_matching_oracle(view).size
        assert (k + 1) * m.size >= k * best  # |M| >= (1 - 1/(k+1)) |M*|


def test_eliminate_monotone_size_and_phases():
    g = gen_random(12, 12, 0.3, 7)
    view = whole(g)
    m0, _ = maximal_matching(g, seed=1)
    sizes = [m0.size]
    lengths = []
    # Phase i draws the same seeds whatever k is, so the run with k stops
    # at the matching that phase d = 2k - 1 of the run with k = 3 leaves.
    for k in (1, 2, 3):
        m, _, _ = eliminate_short_aug_paths(g, view, m0, k, seed=2)
        sizes.append(m.size)
        lengths.append(oracle.shortest_aug_path_len(view, m))
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    # After the phase for d, no augmenting path of length <= d remains.
    for d, length in zip((1, 3, 5), lengths):
        assert length > d
    assert lengths == sorted(lengths)


def test_eliminate_deterministic_mode():
    g = gen_random(10, 10, 0.3, 3)
    view = whole(g)
    m1, _, s1 = eliminate_short_aug_paths(g, view, Matching([], view), 3, seed=None)
    m2, _, s2 = eliminate_short_aug_paths(g, view, Matching([], view), 3, seed=None)
    assert m1.edges == m2.edges
    assert s1.rounds == s2.rounds


def test_approx_matching_bounds():
    g = gen_complete(2, 3)
    view = whole(g)
    m, _ = approx_matching(g, view, 0.5, seed=1)
    assert m.size == 2
    for seed in range(4):
        g = gen_random(14, 14, 0.2, seed)
        view = whole(g)
        best = oracle.max_matching_oracle(view).size
        m, _ = approx_matching(g, view, 0.01, seed=seed)
        assert m.size >= 0.99 * best
        m1, _ = approx_matching(g, view, 1.0, seed=seed)
        assert is_maximal(view, m1)


def test_provider_parsing():
    assert parse_provider("maximal").kind == "maximal"
    assert parse_provider("eliminate:k=3").k == 3
    assert parse_provider("approx:delta=0.25").delta == 0.25
    assert parse_provider("det-approx:delta=0.5").kind == "det-approx"
    for bad in ("nope", "eliminate:j=3", "approx:delta=x", "maximal:k=2"):
        with pytest.raises(InvalidParam):
            parse_provider(bad)


def test_provider_runs():
    g = gen_random(8, 8, 0.3, 1)
    view = whole(g)
    m, _ = parse_provider("eliminate:k=2").run(g, view, seed=5)
    assert oracle.shortest_aug_path_len(view, m) >= 5
    m, _ = parse_provider("det-approx:delta=0.5").run(g, view, seed=5)
    assert 2 * m.size >= oracle.max_matching_oracle(view).size

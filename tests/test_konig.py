import math

import pytest

from bvc import oracle
from bvc.errors import ShorterPathExists
from bvc.graph import (
    Matching,
    SubgraphView,
    VertexCover,
    build_graph,
    gen_complete,
    gen_disjoint_edges,
    gen_even_cycle,
    gen_path,
    gen_random,
)
from bvc.konig import compute_partition, koenig_approx_cover, koenig_exact_cover
from bvc.matching import eliminate_short_aug_paths
from bvc.primitives import elect_leader_and_bfs

INF = math.inf


def whole(g):
    return SubgraphView.whole(g)


def forest(g):
    return elect_leader_and_bfs(g)[0]


def candidate_cover(view, partition, s):
    """The s-th candidate cover, checked to be a vertex cover."""
    cover = VertexCover([v for v in view.in_nodes if partition.in_candidate(v, s)], view)
    assert cover.is_valid()
    return cover


def b_class_sizes(partition):
    return [
        sum(1 for c in partition.b_class.values() if c == i)
        for i in range(1, partition.k + 1)
    ]


def test_partition_p4_k1():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    partition, _ = compute_partition(g, view, m, 1)
    assert partition.a_class == {0: 0, 2: 1}
    assert partition.b_class == {1: 1, 3: INF}


def test_partition_p4_maximum_k2():
    g = gen_path(4)
    view = whole(g)
    m = oracle.max_matching_oracle(view)
    partition, _ = compute_partition(g, view, m, 2)
    assert all(c == INF for c in partition.a_class.values())
    assert all(c == INF for c in partition.b_class.values())


def test_partition_witness_raises():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    with pytest.raises(ShorterPathExists):
        compute_partition(g, view, m, 2)


def test_candidate_cover_p4():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    partition, _ = compute_partition(g, view, m, 1)
    cover = candidate_cover(view, partition, 1)
    assert cover.nodes == {1, 2}
    assert cover.size == m.size + b_class_sizes(partition)[0]


def test_candidate_cover_single_matched_edge():
    g = build_graph([(0, 1)])
    view = whole(g)
    m = Matching([(0, 1)], view)
    partition, _ = compute_partition(g, view, m, 1)
    cover = candidate_cover(view, partition, 1)
    assert cover.nodes == {0}


def test_candidate_cover_k23_maximum():
    g = gen_complete(2, 3)
    view = whole(g)
    m = oracle.max_matching_oracle(view)
    partition, _ = compute_partition(g, view, m, 1)
    cover = candidate_cover(view, partition, 1)
    assert cover.nodes == {0, 1}


def test_all_candidates_are_covers():
    for seed in range(5):
        g = gen_random(10, 10, 0.3, seed)
        view = whole(g)
        for k in (1, 2, 3):
            m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=seed)
            partition, _ = compute_partition(g, view, m, k)
            for s in range(1, k + 1):
                candidate_cover(view, partition, s)  # validates internally
            # All B-classes 1..k hold matched nodes only.
            for v, c in partition.b_class.items():
                if c != INF:
                    assert m.is_matched(v)
            sizes = b_class_sizes(partition)
            i_star = partition.i_star(sizes)
            assert i_star - 1 == sizes.index(min(sizes))  # argmin, ties to the smallest index
            assert sizes[i_star - 1] * k <= m.size


def test_approx_cover_p4_k1():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    cover, _ = koenig_approx_cover(g, view, m, 1, forest=forest(g))
    assert cover.is_valid()
    assert cover.size <= 2 * m.size


def test_approx_cover_bound_and_identity():
    for seed in range(6):
        g = gen_random(12, 12, 0.25, seed)
        view = whole(g)
        for k in (1, 2, 3):
            m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=seed)
            cover, _ = koenig_approx_cover(g, view, m, k, forest=forest(g))
            assert cover.is_valid()
            assert k * cover.size <= (k + 1) * m.size
            # Size identity, componentwise stars summed.
            partition, _ = compute_partition(g, view, m, k)
            total = m.size
            for comp in g.components():
                comp_set = set(comp)
                sizes = [
                    sum(
                        1
                        for v, c in partition.b_class.items()
                        if c == i and v in comp_set
                    )
                    for i in range(1, k + 1)
                ]
                total += min(sizes)
            assert cover.size == total


def test_approx_cover_with_maximum_matching_is_optimal():
    for seed in range(4):
        g = gen_random(9, 9, 0.35, seed)
        view = whole(g)
        m = oracle.max_matching_oracle(view)
        k = max(1, m.size)
        cover, _ = koenig_approx_cover(g, view, m, k, forest=forest(g))
        assert cover.size == m.size


def test_approx_cover_empty_view():
    g = build_graph([], extra_nodes=[0, 1, 2])
    view = whole(g)
    cover, _ = koenig_approx_cover(g, view, Matching([], view), 2, forest=forest(g))
    assert cover.size == 0


def test_exact_cover_families():
    cases = [
        gen_path(4),
        gen_complete(2, 3),
        gen_disjoint_edges(4),
        gen_even_cycle(8),
    ]
    for g in cases:
        view = whole(g)
        cover, _ = koenig_exact_cover(g, view, seed=2)
        assert cover.is_valid()
        assert cover.size == oracle.min_vc_oracle(view).size


def test_exact_cover_random():
    for seed in range(6):
        g = gen_random(10, 11, 0.25, seed)
        view = whole(g)
        cover, _ = koenig_exact_cover(g, view, seed=seed)
        assert cover.is_valid()
        assert cover.size == oracle.min_vc_oracle(view).size


def test_exact_cover_reads_the_last_check():
    """The cover is read off the elimination's last, empty check, so no
    layering runs after it, and phases beyond d = 15 select on their
    check's layering instead of a BFS of their own. An elimination too
    short for any check (n <= 15) is followed by one reachability BFS."""
    g = gen_path(40)
    cover, stats = koenig_exact_cover(g, whole(g), seed=0)
    labels = [label for label, _ in stats.per_phase]
    assert cover.size == oracle.min_vc_oracle(whole(g)).size
    assert labels[-2:] == ["reachability", "witness-check"]
    assert labels.count("reachability") == labels.count("witness-check") > 1
    assert "select[d=21]" in labels
    assert all(int(label[6:-1]) <= 15 for label in labels if label.startswith("bfs[d="))

    g = gen_random(7, 8, 0.3, 1)
    cover, stats = koenig_exact_cover(g, whole(g), seed=0)
    labels = [label for label, _ in stats.per_phase]
    assert cover.size == oracle.min_vc_oracle(whole(g)).size
    assert labels[-2] == "select[d=15]" and labels[-1] == "reachability"
    assert labels.count("reachability") == 1 and "witness-check" not in labels


def test_approx_cover_round_bound():
    for n, k in [(12, 2), (24, 3), (48, 2)]:
        g = gen_path(n)
        view = whole(g)
        m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=3)
        d = oracle.diameter(g)
        f, stats = elect_leader_and_bfs(g)
        _, cover_stats = koenig_approx_cover(g, view, m, k, forest=f)
        stats.add_sequential(cover_stats)
        assert stats.rounds <= 8 * (d + k) + 20

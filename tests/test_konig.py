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
from support import UNREACHED, b_classes, candidate, components, layer_classes


def whole(g):
    return SubgraphView.whole(g)


def forest(g):
    return elect_leader_and_bfs(g)[0]


def candidate_cover(view, layering, k, s):
    """The s-th candidate cover, checked to be a vertex cover."""
    cover = VertexCover(candidate(view, layering.level, k, s), view)
    assert cover.is_valid()
    return cover


def b_class_sizes(view, layering, k):
    return [len(c) for c in b_classes(view, layering.level, k)]


def test_partition_p4_k1():
    """The BFS stops at level 2k - 1, so node 2 at level 2 = 2k is
    unreached, which puts it in every candidate as its A-class k did."""
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    layering, _ = compute_partition(g, view, m, 1)
    a_class, b_class = layer_classes(view, layering.level)
    assert a_class == {0: 0, 2: UNREACHED}
    assert b_class == {1: 1, 3: UNREACHED}


def test_partition_p4_maximum_k2():
    g = gen_path(4)
    view = whole(g)
    m = oracle.max_matching_oracle(view)
    layering, _ = compute_partition(g, view, m, 2)
    a_class, b_class = layer_classes(view, layering.level)
    assert all(c == UNREACHED for c in a_class.values())
    assert all(c == UNREACHED for c in b_class.values())


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_partition_bfs_stops_at_2k_minus_1(k):
    """On a path whose matching leaves both ends free, the levels run along
    the path: the BFS reaches exactly levels 0..2k - 1, in 2k rounds."""
    g = gen_path(2 * k + 4)
    view = whole(g)
    m = Matching([(i, i + 1) for i in range(1, 2 * k + 2, 2)], view)
    layering, stats = compute_partition(g, view, m, k)
    assert layering.level == {v: v for v in range(2 * k)}
    assert stats.rounds == 2 * k
    assert [label for label, _ in stats.per_phase] == ["partition"]


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
    layering, _ = compute_partition(g, view, m, 1)
    cover = candidate_cover(view, layering, 1, 1)
    assert cover.nodes == {1, 2}
    assert cover.size == m.size + b_class_sizes(view, layering, 1)[0]


def test_candidate_cover_single_matched_edge():
    g = build_graph([(0, 1)])
    view = whole(g)
    m = Matching([(0, 1)], view)
    layering, _ = compute_partition(g, view, m, 1)
    cover = candidate_cover(view, layering, 1, 1)
    assert cover.nodes == {0}


def test_candidate_cover_k23_maximum():
    g = gen_complete(2, 3)
    view = whole(g)
    m = oracle.max_matching_oracle(view)
    layering, _ = compute_partition(g, view, m, 1)
    cover = candidate_cover(view, layering, 1, 1)
    assert cover.nodes == {0, 1}


def test_all_candidates_are_covers():
    for seed in range(5):
        g = gen_random(10, 10, 0.3, seed)
        view = whole(g)
        for k in (1, 2, 3):
            m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=seed)
            layering, _ = compute_partition(g, view, m, k)
            for s in range(1, k + 1):
                candidate_cover(view, layering, k, s)  # validates internally
            # All B-classes 1..k hold matched nodes only.
            for v in set().union(*b_classes(view, layering.level, k)):
                assert m.is_matched(v)
            sizes = b_class_sizes(view, layering, k)
            i_star = sizes.index(min(sizes)) + 1
            assert sizes[i_star - 1] * k <= m.size
            # In each component the cover is the candidate at the argmin of
            # that component's class sizes, ties to the smallest index.
            cover, _ = koenig_approx_cover(g, view, m, k, forest=forest(g), layering=None)
            for comp in components(g):
                comp_sizes = [len(c & comp) for c in b_classes(view, layering.level, k)]
                s = comp_sizes.index(min(comp_sizes)) + 1
                assert cover.nodes & comp == candidate(view, layering.level, k, s) & comp


def test_approx_cover_p4_k1():
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    cover, _ = koenig_approx_cover(g, view, m, 1, forest=forest(g), layering=None)
    assert cover.is_valid()
    assert cover.size <= 2 * m.size


def test_approx_cover_bound_and_identity():
    for seed in range(6):
        g = gen_random(12, 12, 0.25, seed)
        view = whole(g)
        for k in (1, 2, 3):
            m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=seed)
            cover, _ = koenig_approx_cover(g, view, m, k, forest=forest(g), layering=None)
            assert cover.is_valid()
            assert k * cover.size <= (k + 1) * m.size
            # Size identity, componentwise stars summed.
            layering, _ = compute_partition(g, view, m, k)
            total = m.size
            for comp_set in components(g):
                total += min(len(c & comp_set) for c in b_classes(view, layering.level, k))
            assert cover.size == total


def test_approx_cover_with_maximum_matching_is_optimal():
    for seed in range(4):
        g = gen_random(9, 9, 0.35, seed)
        view = whole(g)
        m = oracle.max_matching_oracle(view)
        k = max(1, m.size)
        cover, _ = koenig_approx_cover(g, view, m, k, forest=forest(g), layering=None)
        assert cover.size == m.size


def test_approx_cover_empty_view():
    g = build_graph([], extra_nodes=[0, 1, 2])
    view = whole(g)
    cover, _ = koenig_approx_cover(g, view, Matching([], view), 2, forest=forest(g), layering=None)
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
    short for any check (n <= 15) is followed by one reachability BFS.

    The first instance runs the deterministic rule on a 22-node path whose
    A-side ids fall along it: every B-node takes its right-hand neighbour,
    so one augmenting path of length 21 survives the unchecked phases."""
    g = build_graph([(10 - i, 11 + i) for i in range(11)] + [(11 + i, 9 - i) for i in range(10)])
    unchecked, _, _ = eliminate_short_aug_paths(g, whole(g), Matching([], whole(g)), 8, seed=None)
    assert oracle.shortest_aug_path_len(whole(g), unchecked) == 21
    cover, stats = koenig_exact_cover(g, whole(g), seed=None)
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


def test_exact_cover_checks_stop_where_the_reachability_stops():
    """The exact cover's checks deepen their BFS only while it grows, so
    their BFS rounds follow the depth L of the final alternating
    reachability, not the elimination's depth 2k - 1 of about n."""
    g = gen_random(300, 300, 0.006, 1)
    view = whole(g)
    _, stats = koenig_exact_cover(g, view, seed=0)
    matching, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), g.n // 2 + 1, seed=0)
    deepest = max(oracle.alternating_levels(view, matching).values(), default=0)
    bfs_rounds = sum(r for label, r in stats.per_phase if label == "reachability")
    assert bfs_rounds < 4 * (deepest + 17)


def test_approx_cover_round_bound():
    for n, k in [(12, 2), (24, 3), (48, 2)]:
        g = gen_path(n)
        view = whole(g)
        m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=3)
        d = oracle.diameter(g)
        f, stats = elect_leader_and_bfs(g)
        _, cover_stats = koenig_approx_cover(g, view, m, k, forest=f, layering=None)
        stats.add_sequential(cover_stats)
        assert stats.rounds <= 8 * (d + k) + 20

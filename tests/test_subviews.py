"""Operations on proper subgraph views: communication uses every graph
edge, but covers and matchings are only about the in-view part."""

import random

from bvc import oracle
from bvc.graph import Matching, gen_random
from bvc.konig import koenig_approx_cover, koenig_exact_cover
from bvc.matching import eliminate_short_aug_paths, maximal_matching
from bvc.primitives import elect_leader_and_bfs
from bvc.repair import det_cover_low_diameter
from support import b_classes, components, induced


def random_subview(g, seed, keep=0.7):
    rng = random.Random(seed)
    nodes = [v for v in g.node_ids if rng.random() < keep]
    return induced(g, nodes)


def test_exact_cover_on_subview():
    for seed in range(5):
        g = gen_random(10, 10, 0.3, seed)
        view = random_subview(g, seed + 100)
        cover, _ = koenig_exact_cover(g, view, seed=seed)
        assert cover.is_valid()
        assert cover.size == oracle.min_vc_oracle(view).size
        assert all(view.contains_node(v) for v in cover.nodes)


def test_layered_cover_on_subview():
    for seed in range(5):
        g = gen_random(11, 11, 0.3, seed)
        view = random_subview(g, seed + 200)
        k = 2
        m, _, _ = eliminate_short_aug_paths(g, view, Matching([], view), k, seed=seed)
        assert oracle.shortest_aug_path_len(view, m) >= 2 * k + 1
        forest, _ = elect_leader_and_bfs(g)
        cover, _ = koenig_approx_cover(g, view, m, k, forest=forest, layering=None)
        assert cover.is_valid()
        assert k * cover.size <= (k + 1) * m.size
        # Size identity over the in-view B-classes, componentwise.
        classes = b_classes(view, oracle.alternating_levels(view, m, 2 * k - 1), k)
        assert cover.size == m.size + sum(
            min(len(c & comp) for c in classes) for comp in components(g)
        )


def test_maximal_matching_on_subview():
    g = gen_random(12, 12, 0.25, 3)
    view = random_subview(g, 7)
    m, _ = maximal_matching(g, view, seed=9)
    assert all(m.is_matched(u) or m.is_matched(v) for u, v in view.in_edges)
    for u, v in m.edges:
        assert view.contains_edge(u, v)


def test_det_pipeline_on_subview():
    for seed in range(3):
        g = gen_random(12, 12, 0.25, seed)
        view = random_subview(g, seed + 300)
        cover, _ = det_cover_low_diameter(g, view, 0.5)
        assert cover.is_valid()
        opt = oracle.min_vc_oracle(view).size
        assert cover.size <= 1.5 * opt + 1e-9

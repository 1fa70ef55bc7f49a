"""Each pipeline's guarantee, checked against networkx's maximum matching
size nu on small drawn graphs: stars, complete bipartite graphs, paths and
sparse random graphs, alone or two side by side, at the default or the
floor bandwidth, on the whole graph or an induced sub-view; and the levels
and predecessors of the alternating BFS, against the oracle's levels; the
counts of shortest augmenting paths, against the tests' reference; the
layered cover read off a caller's layering, against a fresh BFS and the
class rule; the election's forest and the cluster trees with their
one-hop extension, against networkx's BFS; the MPX partition, against a
sequential one on the shifts it drew; the traffic of the election's first
round and of MPX, and the neighbours MPX leaves an old origin with. A last
test checks that a failing property test leaves the rest of the session
running."""

import math
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bvc import oracle
from bvc.clustering import (
    MpxPartitionProgram,
    build_cluster_trees,
    mpx_partition,
    randomized_pipeline,
    shrink_partition,
)
from bvc.graph import Matching, SubgraphView, build_graph, ceil_log2
from bvc.konig import koenig_approx_cover, koenig_exact_cover
from bvc.matching import eliminate_short_aug_paths
from bvc.primitives import LeaderBfsProgram, alternating_bfs, elect_leader_and_bfs
from bvc.repair import count_paths, det_cover_low_diameter, repair_matching
from bvc.runtime import frame_count, id_bits
from support import (
    class_rule_cover,
    components,
    disjoint_union,
    enumerate_aug_paths,
    graphs,
    induced,
    matching_size,
    max_view_degree,
    mpx_reference,
    per_node_counts,
    region_bfs,
    tree_build_bits,
)

SETTINGS = settings(max_examples=75, derandomize=True, deadline=None, database=None)


@st.composite
def unions(draw):
    """A drawn graph, alone or beside a second one."""
    g = draw(graphs())
    if draw(st.booleans()):
        g = disjoint_union(g, draw(graphs()))
    return g


@st.composite
def networks(draw):
    g = draw(unions())
    if draw(st.booleans()):
        g = g.with_bandwidth(ceil_log2(g.n) + 4)
    return g


@st.composite
def views(draw):
    """A network and the whole of it, or the sub-view induced without up
    to a quarter of its nodes."""
    g = draw(networks())
    dropped = draw(st.sets(st.sampled_from(g.node_ids), max_size=g.n // 4))
    return g, induced(g, set(g.node_ids) - dropped)


SEEDS = st.none() | st.integers(0, 10_000)


@st.composite
def matched_views(draw):
    """A network, a view of it, a greedy matching over a drawn prefix of
    the view's edges in drawn order, and a BFS depth limit."""
    g, view = draw(views())
    edges = draw(st.permutations(view.in_edges))
    used, matched = set(), []
    for u, v in edges[: draw(st.integers(0, len(edges)))]:
        if u not in used and v not in used:
            used |= {u, v}
            matched.append((u, v))
    return g, view, Matching(matched, view), draw(st.integers(0, g.n))


def falling_minima_path(n):
    """A path of even n nodes whose every other node is a local minimum,
    with ids falling towards one end: id n/2 - 1 - p/2 at each even
    position p, n/2 + (p - 1)/2 at each odd one. Every node changes its
    leader Theta(n) times."""
    ids = [n // 2 - 1 - p // 2 if p % 2 == 0 else n // 2 + (p - 1) // 2 for p in range(n)]
    return build_graph(list(zip(ids, ids[1:])))


@SETTINGS
@example(falling_minima_path(400))
@given(unions())
def test_election_builds_the_min_id_bfs_forest_in_one_frame(g):
    """At the default and the floor bandwidth, the forest is the BFS forest
    from each component's minimum id, each parent the smallest-id
    neighbour one level closer and the children exactly the nodes naming
    that parent. Every message fits one frame, so the floor costs no
    round: at most id_bits + 3 bits, no fragmentation round, and the same
    rounds at both bandwidths.

    The timing that lets nodes hold no distance: every leader a node
    adopts is smaller than the one before, and a node at distance h from
    its root adopts the root in round h + 1 (a root leads itself from
    round 1)."""
    root = {v: min(comp) for comp in components(g) for v in comp}
    parent, depth = region_bfs(g, root)
    expected = {
        v: (parent[v], tuple(u for u in g.node_ids if parent[u] == v)) for v in g.node_ids
    }
    real = LeaderBfsProgram.step
    adopted = {}  # node -> (round, leader) of its last change of leader or parent

    def step(self, ctx, st, inbox, rnd, rng):
        old = st.lead, st.parent
        result = real(self, ctx, st, inbox, rnd, rng)
        if (st.lead, st.parent) != old:
            assert st.lead < old[0], f"node {ctx.node} went from {old[0]} to {st.lead}"
            adopted[ctx.node] = rnd, st.lead
        return result

    runs = []
    for h in (g, g.with_bandwidth(ceil_log2(g.n) + 4)):
        adopted.clear()
        with mock.patch.object(LeaderBfsProgram, "step", step):
            runs.append(elect_leader_and_bfs(h))
        for v in g.node_ids:
            assert adopted.get(v, (1, v)) == (depth[v] + 1, root[v]), v
    for forest, stats in runs:
        assert forest == expected
        assert stats.fragmentation_rounds == 0
        assert stats.max_message_bits <= id_bits(g.n) + 3
    assert runs[0][1].rounds == runs[1][1].rounds


@SETTINGS
@given(unions())
def test_election_starts_from_the_nodes_without_a_smaller_neighbour(g):
    """In round 1 exactly the nodes with a neighbour and none of a smaller
    id send. Any other node can never lead, so it stays silent until it
    adopts a leader."""
    senders = set()
    real = LeaderBfsProgram.step

    def step(self, ctx, st, inbox, rnd, rng):
        result = real(self, ctx, st, inbox, rnd, rng)
        if rnd == 1 and result[1]:
            senders.add(ctx.node)
        return result

    with mock.patch.object(LeaderBfsProgram, "step", step):
        elect_leader_and_bfs(g)
    assert senders == {v for v in g.node_ids if g.adjacency[v] and min(g.adjacency[v]) > v}


@SETTINGS
@given(matched_views())
def test_alt_bfs_learns_levels_and_predecessors(instance):
    """The levels are the oracle's, and each levelled node's predecessors
    are its in-view neighbours one level down over the alternating edge
    type. The run takes limit + 1 rounds and one bit per offer."""
    g, view, m, limit = instance
    layering, stats = alternating_bfs(g, view, m, limit)
    level = oracle.alternating_levels(view, m, limit)
    assert layering.level == level and layering.preds.keys() == level.keys()
    offers = 0
    for v, lv in level.items():
        partner = m.partner_of(v)
        nbrs = list(view.view_neighbors(v))
        # Up from an even level over a non-matching edge, from an odd
        # level over the matching edge.
        preds = [u for u in nbrs if level.get(u) == lv - 1 and (u == partner) == (lv % 2 == 0)]
        assert layering.preds[v] == tuple(sorted(preds))
        if lv < limit:
            offers += len([u for u in nbrs if u != partner]) if lv % 2 == 0 else partner is not None
    assert stats.rounds == limit + 1
    assert stats.total_bits == offers


@SETTINGS
@given(matched_views(), st.integers(0, 3))
def test_count_paths_matches_the_oracle(instance, k):
    """On a drawn matching, or at k >= 1 on the residual a repair leaves
    of it, the counts of shortest augmenting paths through every node, a
    matching edge's at both its ends, and the levels are the oracle's. The
    count takes 2d*ceil(w/B) + 1 rounds with messages of at most min(B, w)
    bits, w = bitlength(Delta^d), and sends w bits per offer of the
    alternating BFS to depth d and per predecessor edge, no more."""
    g, view, m, _ = instance
    if k:
        forest, _ = elect_leader_and_bfs(g)
        result, m, _ = repair_matching(g, view, m, k, forest=forest)
        view = view.without_nodes(result.s1)
    d = oracle.shortest_aug_path_len(view, m)
    assume(d < math.inf)
    delta = max_view_degree(view)
    counts, stats = count_paths(g, view, m, d, delta=delta)
    expected = enumerate_aug_paths(view, m, d)
    assert {v: counts.count.get(v, 0) for v in view.in_nodes} == per_node_counts(expected)
    assert counts.level == oracle.alternating_levels(view, m, depth_limit=d)
    w = (delta**d).bit_length()
    assert stats.rounds == 2 * d * frame_count(w, g.bandwidth) + 1
    assert stats.max_message_bits <= min(g.bandwidth, w)
    layering, bfs_stats = alternating_bfs(g, view, m, d)
    pred_edges = sum(len(layering.preds[v]) for v, lv in layering.level.items() if lv >= 1)
    assert stats.total_bits == w * (bfs_stats.total_bits + pred_edges)


@SETTINGS
@given(views(), SEEDS)
def test_exact_cover_has_size_nu(instance, seed):
    g, view = instance
    cover, _ = koenig_exact_cover(g, view, seed=seed)
    assert cover.is_valid() and cover.size == matching_size(view)


@SETTINGS
@given(views(), st.sampled_from((0.05, 0.25, 0.5, 1.0)))
def test_det_low_diam_within_1_plus_eps_of_nu(instance, eps):
    g, view = instance
    cover, _ = det_cover_low_diameter(g, view, eps)
    assert cover.is_valid() and cover.size <= (1 + eps) * matching_size(view) + 1e-9


@SETTINGS
@given(views(), st.integers(1, 40), SEEDS)
def test_diameter1_within_1_plus_1_over_k_of_nu(instance, k, seed):
    g, view = instance
    forest, _ = elect_leader_and_bfs(g)
    matching, _, _ = eliminate_short_aug_paths(
        g, view, Matching([], view), k, seed=seed, forest=forest
    )
    cover, _ = koenig_approx_cover(g, view, matching, k, forest=forest, layering=None)
    assert cover.is_valid() and k * cover.size <= (k + 1) * matching_size(view)


@SETTINGS
@given(matched_views(), st.sampled_from((1, 2, 3, 9)), SEEDS)
def test_layered_cover_reads_the_callers_layering(instance, k, seed):
    """The layered cover is the same node set whether it reads its caller's
    layering or runs its own BFS, and it is the class rule's cover on a
    depth-2k BFS. The callers' layerings are those of `diameter1` (the last,
    empty check of an elimination at k, if it ran one) and of `det-low-diam`
    (the last check of a repair, here of a drawn greedy matching at
    k <= 3, over its residual)."""
    g, view, m, _ = instance
    forest, _ = elect_leader_and_bfs(g)
    matching, layering, _ = eliminate_short_aug_paths(
        g, view, Matching([], view), k, seed=seed, forest=forest
    )
    result, m_bar, _ = repair_matching(g, view, m, min(k, 3), forest=forest)
    residual = view.without_nodes(result.s1)
    for view, matching, k, layering in (
        (view, matching, k, layering),
        (residual, m_bar, min(k, 3), result.layering),
    ):
        cover, stats = koenig_approx_cover(g, view, matching, k, forest=forest, layering=layering)
        fresh, _ = koenig_approx_cover(g, view, matching, k, forest=forest, layering=None)
        assert cover.nodes == fresh.nodes == class_rule_cover(g, view, matching, k)
        assert ("partition" in dict(stats.per_phase)) == (layering is None)


@SETTINGS
@given(networks(), st.sampled_from((0.1, 0.5, 1.0)), st.integers(0, 10_000))
def test_rand_pipeline_is_valid_and_reproducible(g, eps, seed):
    cover, stats, _ = randomized_pipeline(g, eps, seed=seed)
    again, stats_again, _ = randomized_pipeline(g, eps, seed=seed)
    assert cover.is_valid() and cover.size >= matching_size(SubgraphView.whole(g))
    assert again.nodes == cover.nodes and stats_again == stats


MPX_LAMBDAS = st.sampled_from((0.125, 0.25, 1.0))


@SETTINGS
@given(networks(), MPX_LAMBDAS, st.integers(0, 10_000))
def test_mpx_is_the_sequential_shifted_distance_partition(g, lam, seed):
    """Each node's origin and parent are `mpx_reference`'s on the shifts
    the program drew: no send rule moves a partition."""
    shifts, scales, current = {}, set(), []
    real_step, real_draw = MpxPartitionProgram.step, MpxPartitionProgram.draw_shift

    def step(self, ctx, st, inbox, rnd, rng):
        current[:] = [ctx.node]
        return real_step(self, ctx, st, inbox, rnd, rng)

    def draw_shift(self, rng):
        shifts[current[0]] = shift = real_draw(self, rng)
        scales.add(self.scale)
        return shift

    with mock.patch.object(MpxPartitionProgram, "step", step):
        with mock.patch.object(MpxPartitionProgram, "draw_shift", draw_shift):
            result = mpx_partition(g, lam, seed=seed)
    (scale,) = scales
    assert shifts.keys() == set(g.node_ids)
    assert (result[0], result[1]) == mpx_reference(g, shifts, scale)


def _mpx_mail(g, lam, seed, check):
    """Run MPX; return its result and, per directed edge (v, u), the last
    candidate v received from u as (key, origin). `check(program, v, u,
    candidate, last, rnd)` sees every candidate v sends u, as (key,
    origin), beside the last one v received from u (None before any)."""
    last = {}
    real = MpxPartitionProgram.step

    def step(self, ctx, st, inbox, rnd, rng):
        for u, msg in inbox.items():
            last[ctx.node, u] = (msg.values[0] - self.offset, msg.values[1])
        result = real(self, ctx, st, inbox, rnd, rng)
        for u, msg in result[1].items():
            candidate = (msg.values[0] - self.offset, msg.values[1])
            check(self, ctx.node, u, candidate, last.get((ctx.node, u)), rnd)
        return result

    with mock.patch.object(MpxPartitionProgram, "step", step):
        result = mpx_partition(g, lam, seed=seed)
    return result, last


@SETTINGS
@given(networks(), MPX_LAMBDAS, st.integers(0, 10_000))
def test_mpx_sends_only_candidates_that_can_improve_or_tie_the_receiver(g, lam, seed):
    """Every node hears from each neighbour in round 1. After that, a
    message from v to u carries a candidate that, one hop on, is at most
    the last candidate u sent v, which u's best never exceeds: it could
    improve u or tie it."""

    def check(program, v, u, candidate, last, rnd):
        assert (last is None) == (rnd == 1)
        if last is not None:
            one_hop_on = (candidate[0] + program.scale, candidate[1])
            assert one_hop_on <= last, f"{v} -> {u} in round {rnd}: {candidate} after {last}"

    _mpx_mail(g, lam, seed, check)


@SETTINGS
@given(networks(), MPX_LAMBDAS, st.integers(0, 10_000))
def test_mpx_lists_exactly_the_neighbours_that_hold_an_old_origin(g, lam, seed):
    """After the relaxation, the last candidate v heard from a neighbour u
    names u's origin unless v is u's parent, whose "child" tag names it, or
    v is in u's stale list, which the tree build's first round sends
    u's origin to; and a stale list holds no other node. So after that
    round every node holds every neighbour's origin."""
    (assignment, parent, stale, _), last = _mpx_mail(g, lam, seed, lambda *_: None)
    for u in g.node_ids:
        old = {v for v in g.adjacency[u] if last[v, u][1] != assignment[u] and v != parent[u]}
        assert set(stale[u]) == old


@SETTINGS
@given(networks(), st.sampled_from((0.1, 0.25, 0.5, 1.0)), st.integers(0, 10_000), st.data())
def test_cluster_trees_are_bfs_trees_of_the_origin_regions(g, lam, seed, data):
    """On an MPX assignment, with some members hand-dropped afterwards:
    each node's MPX parent is its networkx BFS parent in its origin region,
    min (depth, id); each peer list holds the neighbours of the same
    origin; the tree build takes 3 rounds (1 on an edgeless graph), with a
    "child" tag to each parent, the origin to each stale neighbour and a
    member flag from each member to its neighbours; each live cluster's tree
    is the BFS tree of its origin region rooted at the origin, with
    children = the nodes that name it parent; and the attached nodes are
    the non-members next to a member."""
    assignment, mpx_parent, stale, _ = mpx_partition(g, lam, seed=seed)
    parent, depth = region_bfs(g, assignment)
    assert mpx_parent == parent
    cs = shrink_partition(g, assignment, mpx_parent, stale)
    for v in data.draw(st.sets(st.sampled_from(g.node_ids), max_size=g.n // 3)):
        cs.members[v] = None
    stats = build_cluster_trees(g, cs)
    assert stats.rounds == (3 if g.edges else 1)
    assert stats.total_bits == tree_build_bits(g, cs)
    for v in g.node_ids:
        same_origin = (u for u in sorted(g.adjacency[v]) if assignment[u] == assignment[v])
        assert cs.peers[v] == tuple(same_origin)
    live_origins = set(cs.members.values())
    live = {v for v in g.node_ids if assignment[v] in live_origins}
    assert cs.forest == {
        v: (parent[v], tuple(sorted(u for u in live if parent[u] == v))) for v in live
    }
    assert cs.max_tree_height == max((depth[v] for v in live), default=0)
    members = cs.members
    assert cs.attached == {
        v
        for v in g.node_ids
        if members[v] is None and any(members[u] is not None for u in g.adjacency[v])
    }


TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    """Under pyproject's `filterwarnings = ["error"]`, a failing `@given`
    test reports its falsifying example and the tests after it still run.
    Without conftest.py, the import in hypothesis' failure report warns,
    pytest stops with INTERNALERROR, and the second test never runs."""
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "Falsifying example" in run.stdout
    assert run.returncode == 1

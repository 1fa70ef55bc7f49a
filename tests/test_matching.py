import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvc import oracle
from bvc.errors import InvalidParam, ProgramFault
from bvc.graph import (
    Matching,
    SubgraphView,
    build_graph,
    ceil_log2,
    default_bandwidth,
    gen_complete,
    gen_disjoint_edges,
    gen_path,
    gen_random,
)
from bvc.matching import (
    _T_GONE,
    _T_LOCK,
    _T_TOKEN,
    PathSelectProgram,
    ProviderSpec,
    approx_matching,
    eliminate_short_aug_paths,
    maximal_matching,
    parse_provider,
    select_disjoint_paths,
)
from bvc.primitives import (
    AlternatingLayering,
    alternating_bfs,
    alternating_offers,
    elect_leader_and_bfs,
    witness_check,
)
from bvc.runtime import RoundStats, derive_seed, frame_count, id_bits
from support import count_seedings, disjoint_union, graphs, induced

INF = math.inf


def whole(g):
    return SubgraphView.whole(g)


def find_disjoint_aug_paths(g, view, m, d, *, seed=0):
    """A maximal set of vertex-disjoint length-d augmenting paths: one
    layering to depth d, checked free of shorter paths, then one selection."""
    layering, _ = alternating_bfs(g, view, m, d)
    layering.require_no_witness_below(view, m, d)
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
    assert s1 == s2


@pytest.mark.parametrize("m", [1, 5, 50])
def test_maximal_matching_is_the_d1_elimination_phase(m):
    """The maximal matching is one alternating BFS to depth 1 (limit + 1 = 2
    rounds) and one selection at d = 1. Every token is one frame at the
    default bandwidth, so the period is d·(f + 1) = 2 and, on disjoint
    edges, the selection takes 2d + 1 = 3 rounds: each B-node launches
    towards its A-node in round 1, the token lands in round 2 and the
    A-node locks, and the lock lands in round 3. A locked node tells only
    its offer targets "gone", and a B-node at level d has none."""
    g = gen_disjoint_edges(m)
    for seed in range(8):
        matching, stats = maximal_matching(g, seed=seed)
        assert matching.size == m
        assert stats.rounds == 5
        assert stats.per_phase == [("bfs[d=1]", 2), ("select[d=1]", 3)]


@pytest.mark.parametrize("partners", [(1, None), (None, 0)])
def test_inconsistent_partner_outputs_are_a_program_fault(monkeypatch, partners):
    """Node programs that disagree about a partner are a protocol fault,
    not a parameter out of range, whichever end of the edge claims it. A
    node claims one by ending consumed; node v sits at level v."""
    import bvc.matching

    g = build_graph([(0, 1)])
    view = whole(g)
    layering, _ = alternating_bfs(g, view, Matching([], view), 1)
    forged = {
        v: {"consumed": p is not None, "level": v, "chain_up": p, "chain_down": p}
        for v, p in enumerate(partners)
    }
    monkeypatch.setattr(bvc.matching, "run", lambda *args, **kwargs: (forged, RoundStats()))
    with pytest.raises(ProgramFault, match="inconsistent partner outputs"):
        select_disjoint_paths(g, view, Matching([], view), 1, layering, seed=1)


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


@st.composite
def _layered_instances(draw):
    """A small graph (one of the families, or two side by side), a view of
    it (the whole graph, or the sub-view induced without up to a quarter of
    its nodes), a start matching, a number k of elimination phases, a seed
    and the source of the layering. Small k leave shorter paths than small
    graphs otherwise keep; k = 8 runs every phase that goes unchecked."""
    g = draw(graphs())
    if draw(st.booleans()):
        g = disjoint_union(g, draw(graphs()))
    dropped = draw(st.none() | st.sets(st.sampled_from(g.node_ids), max_size=g.n // 4))
    keep = None if dropped is None else set(g.node_ids) - dropped
    start = draw(st.sampled_from(("greedy", "empty")))
    k = draw(st.sampled_from((0, 1, 2, 8)))
    seed = draw(st.none() | st.integers(0, 10_000))
    source = draw(st.sampled_from(("check", "bfs")))
    return g, keep, start, k, seed, source


def _greedy_maximal(view):
    """A maximal matching that takes edges from an odd-numbered node first:
    on a path it leaves both ends free, joined by one augmenting path."""
    matched = set()
    edges = []
    for u, v in sorted(view.in_edges, key=lambda e: (e[0] % 2 == 0, e)):
        if u not in matched and v not in matched:
            matched.update((u, v))
            edges.append((u, v))
    return Matching(edges, view)


def _selections(instance):
    """(graph, view, matching, d, layering) for an instance at the default
    and at the floor bandwidth: d is the matching's shortest augmenting
    path length (INF when none remains) and the layering reaches at least
    depth d. The matchings are the empty one, a greedy maximal one, and
    what the elimination phases d <= 2k - 1 leave of either; k <= 8, so
    every phase runs unchecked, and unseeded phases follow the
    deterministic rule."""
    g0, keep, start, k, seed, source = instance
    for g in (g0, g0.with_bandwidth(ceil_log2(g0.n) + 4)):
        view = whole(g) if keep is None else induced(g, keep)
        m = Matching([], view) if start == "empty" else _greedy_maximal(view)
        if k:
            m, _, _ = eliminate_short_aug_paths(g, view, m, k, seed=seed)
        d = oracle.shortest_aug_path_len(view, m)
        if source == "bfs":
            layering, _ = alternating_bfs(g, view, m, g.n + 1 if d == INF else d)
        else:
            forest, _ = elect_leader_and_bfs(g)
            shortest, layering, _ = witness_check(g, view, m, forest, 2 * k + 1, g.n + 1)
            assert shortest == (None if d == INF else d)
        yield g, view, m, d, layering


def _select_seeds(instance, d, g):
    """Both modes: the deterministic rule, and one seed per instance."""
    return (None, derive_seed(instance[3], d, g.bandwidth))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_layered_instances())
def test_layered_nodes_start_alive_and_selection_clears_length_d(instance):
    """PathSelectProgram starts with every layered node alive, which holds
    because every node above level 0 of an alternating BFS, from
    `alternating_bfs` or from `witness_check`, has a predecessor one level
    down. On that start, a selection at the shortest length d leaves
    no augmenting path of length <= d, in both modes, at the default and
    at the floor bandwidth."""
    for g, view, m, d, layering in _selections(instance):
        for v, lv in layering.level.items():
            if lv > 0:
                assert layering.preds[v], f"node {v} at level {lv} has no predecessor"
        if d == INF:
            continue
        for select_seed in _select_seeds(instance, d, g):
            flipped, paths, _ = select_disjoint_paths(g, view, m, d, layering, seed=select_seed)
            assert paths and flipped.size == m.size + len(paths)
            assert oracle.shortest_aug_path_len(view, flipped) > d


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_layered_instances())
def test_tokens_go_to_predecessors_and_every_other_message_along_offers(instance):
    """A selection sends a token only to one of the sender's predecessors,
    and a "gone" or a lock only to one of the sender's
    `alternating_offers`, which never name a predecessor. So no token
    queues behind another message on its edge, as the period assumes, in
    both modes, at the default and at the floor bandwidth.

    The arrivals the program has no guard for never happen: tokens reach
    a node at level l only in rounds r with (r - 1) mod P = (d - l)·f,
    P = d·(f + 1) and f the frames of a token, and only while it is alive,
    unconsumed and, above level 0, left with a live predecessor once the
    same step's "gone" messages count; a lock reaches only an unconsumed
    node."""
    real_setup, real = PathSelectProgram.setup, PathSelectProgram.step
    frames = None  # f of the run under way

    def setup(self, n, bandwidth):
        nonlocal frames
        real_setup(self, n, bandwidth)
        idw = id_bits(n)
        frames = frame_count(2 + (0 if self.det else 2 * idw) + idw, bandwidth)

    def step(self, ctx, st, inbox, rnd, rng):
        tags = {u: msg.values[0] for u, msg in inbox.items()}
        where = f"at {ctx.node}, level {st['level']}, round {rnd}"
        if _T_LOCK in tags.values():
            assert not st["consumed"], f"lock {where}"
        if _T_TOKEN in tags.values():
            gone = {u for u, tag in tags.items() if tag == _T_GONE}
            live = st["level"] == 0 or bool(st["in_alive"] - gone)
            assert st["alive"] and not st["consumed"] and live, f"token {where}"
            offset = (rnd - 1) % (self.d * (frames + 1))
            assert offset == (self.d - st["level"]) * frames, f"token {where}"
        result = real(self, ctx, st, inbox, rnd, rng)
        preds = self.layering.preds.get(ctx.node, ())
        offers = alternating_offers(ctx, self.partner.get(ctx.node))
        for u, msg in result[1].items():
            # A token has three fields (tag, priority, initiator); a "gone"
            # or a lock has the tag alone.
            targets = preds if len(msg.values) == 3 else offers
            assert u in targets, f"{msg.values} from {ctx.node} to {u} in round {rnd}"
        return result

    with (
        mock.patch.object(PathSelectProgram, "setup", setup),
        mock.patch.object(PathSelectProgram, "step", step),
    ):
        for g, view, m, d, layering in _selections(instance):
            if d == INF:
                continue
            for select_seed in _select_seeds(instance, d, g):
                select_disjoint_paths(g, view, m, d, layering, seed=select_seed)


def test_phase_without_a_witness_at_level_d_runs_no_engine(monkeypatch):
    """With no free B-node at level d there is no initiator, so the
    selection makes no engine run and records its phase at 0 rounds,
    called directly or by the elimination."""
    import bvc.matching

    def no_run(program, *args, **kwargs):
        raise AssertionError(f"select[d={program.d}] ran the engine")

    monkeypatch.setattr(bvc.matching, "run", no_run)
    # P4 with its middle edge matched: a witness at level 3, none at 1.
    g = gen_path(4)
    view = whole(g)
    m = Matching([(1, 2)], view)
    layering, _ = alternating_bfs(g, view, m, 3)
    assert dict(layering.witnesses(view, m)) == {3: 3}
    flipped, paths, stats = select_disjoint_paths(g, view, m, 1, layering, phase="select[d=1]")
    assert (flipped, paths, stats.rounds) == (m, [], 0)
    assert stats.per_phase == [("select[d=1]", 0)]

    # A perfect matching leaves no free node: phases d = 3 and 5 select
    # on layerings without any level.
    g = gen_disjoint_edges(3)
    view = whole(g)
    m = Matching([(0, 1), (2, 3), (4, 5)], view)
    _, _, stats = eliminate_short_aug_paths(g, view, m, 3, seed=1)
    assert stats.per_phase[1::2] == [("select[d=1]", 0), ("select[d=3]", 0), ("select[d=5]", 0)]


@pytest.mark.parametrize("d", [5, 7, 9])
def test_select_on_one_alternating_path_takes_2d_plus_1_rounds(d):
    """One token walks d hops down and the lock climbs d hops back: 2d + 1
    rounds at the default bandwidth, where every token is one frame, in
    both modes. The initiator, locked last, has no offer targets to tell
    "gone". (The test keeps the name it had when the count was 2d + 2.)"""
    g = gen_path(d + 1)
    view = whole(g)
    m = Matching([(v, v + 1) for v in range(1, d, 2)], view)
    layering, _ = alternating_bfs(g, view, m, d)
    for seed in (None, 1):
        _, paths, stats = select_disjoint_paths(g, view, m, d, layering, seed=seed)
        assert paths == [tuple(range(d + 1))]
        assert stats.rounds == 2 * d + 1


@pytest.mark.parametrize("n", [40, 300, 1000])
@pytest.mark.parametrize("d", [1, 3, 9])
def test_select_period_is_d_times_token_frames_plus_one(n, d):
    """An iteration lasts d·(f + 1) rounds, f the frames of a token: d
    token hops of f rounds down, then d one-round lock hops back up. A
    token is 2 + id_bits(n) bits in deterministic mode and carries a
    2·id_bits(n)-bit priority besides in randomized mode: one frame in
    both modes at the default bandwidth, at least two in randomized mode
    at the floor ceil(log2 n) + 4."""
    floor = ceil_log2(n) + 4
    for det, bandwidth, frames in (
        (True, default_bandwidth(n), 1),
        (False, default_bandwidth(n), 1),
        (False, floor, None),
    ):
        token_bits = 2 + id_bits(n) if det else 2 + 3 * id_bits(n)
        f = frame_count(token_bits, bandwidth)
        assert (f == frames) if frames else (f >= 2)
        program = PathSelectProgram(d, det, {}, AlternatingLayering({}, {}), ())
        program.setup(n, bandwidth)
        assert program.period == d * (f + 1)


@pytest.mark.parametrize("a", [10, 25, 50])
def test_deterministic_select_on_complete_graph_takes_2a_plus_1_rounds(a):
    """On K_{a,a} with the empty matching, every free B-node launches
    towards the smallest A-node, so a deterministic iteration selects one
    edge, and a of them run d·(f + 1) = 2 rounds apart. The last lock lands
    in round 2a + 1 at an initiator, which sends nothing more. (The test
    keeps the name it had when the count was 2a + 2.)"""
    g = gen_complete(a, a)
    view = whole(g)
    m = Matching([], view)
    layering, _ = alternating_bfs(g, view, m, 1)
    flipped, paths, stats = select_disjoint_paths(g, view, m, 1, layering, seed=None)
    assert len(paths) == flipped.size == a
    assert stats.rounds == 2 * a + 1


def test_deterministic_select_fits_one_frame_at_the_floor():
    """At the floor bandwidth ceil(log2 n) + 4, the deterministic token of
    2 + id_bits(n) bits is the widest message and fits one frame, so a
    selection fragments nothing."""
    for g0, edges, d in (
        (gen_path(40), [(v, v + 1) for v in range(1, 39, 2)], 39),
        (gen_random(30, 30, 0.08, 5), [], 1),
    ):
        g = g0.with_bandwidth(ceil_log2(g0.n) + 4)
        view = whole(g)
        m = Matching(edges, view)
        layering, _ = alternating_bfs(g, view, m, d)
        _, paths, stats = select_disjoint_paths(g, view, m, d, layering, seed=None)
        assert paths
        assert stats.fragmentation_rounds == 0
        assert stats.max_message_bits == 2 + id_bits(g.n) <= g.bandwidth


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
    assert parse_provider("maximal") == ProviderSpec(1)
    assert parse_provider("eliminate:k=3") == ProviderSpec(3)
    assert parse_provider("approx:delta=0.25") == ProviderSpec(3, delta=0.25)
    assert parse_provider("det-approx:delta=0.5") == ProviderSpec(1, seeded=False, delta=0.5)
    for bad in ("nope", "eliminate:j=3", "approx:delta=x", "maximal:k=2", "approx:delta=0"):
        with pytest.raises(InvalidParam):
            parse_provider(bad)


def test_provider_runs():
    g = gen_random(8, 8, 0.3, 1)
    view = whole(g)
    m, _ = parse_provider("eliminate:k=2").run(g, view, seed=5)
    assert oracle.shortest_aug_path_len(view, m) >= 5
    m, _ = parse_provider("det-approx:delta=0.5").run(g, view, seed=5)
    assert 2 * m.size >= oracle.max_matching_oracle(view).size


def _drawing_next_hop(self, st, rng):
    """PathSelectProgram._next_hop without the forced-forward skip: every
    seeded hop draws, also from a single live predecessor."""
    if self.det:
        nxt = min(st["in_alive"])
    else:
        choices = sorted(st["in_alive"])
        nxt = choices[rng.randrange(len(choices))]
    st["chain_down"] = nxt
    return nxt


def test_forced_forwards_draw_nothing_and_change_no_selection(monkeypatch):
    """A forwarder with one live predecessor takes it without drawing. On
    seeded random graphs at d = 1, 3 and 5, at the default and at the floor
    bandwidth, each selection equals the one in which every hop draws:
    partners, paths, rounds and bits alike, with no more generator
    seedings, and fewer over all selections."""
    seedings = {"skip": 0, "draw": 0}
    lengths = set()
    for gseed in range(8):
        g0 = gen_random(40, 40, 0.06, gseed)
        for g in (g0, g0.with_bandwidth(ceil_log2(g0.n) + 4)):
            view = whole(g)
            for k in (0, 1, 2):
                m = Matching([], view)
                if k:
                    m, _, _ = eliminate_short_aug_paths(g, view, m, k, seed=gseed)
                d = oracle.shortest_aug_path_len(view, m)
                if d != 2 * k + 1:
                    continue
                lengths.add(d)
                layering, _ = alternating_bfs(g, view, m, d)
                result, counted = {}, {}
                for side in seedings:
                    with monkeypatch.context() as patch:
                        if side == "draw":
                            patch.setattr(PathSelectProgram, "_next_hop", _drawing_next_hop)
                        seeds = count_seedings(patch)
                        flipped, paths, stats = select_disjoint_paths(
                            g, view, m, d, layering, seed=derive_seed(gseed, d)
                        )
                    result[side] = (flipped.partner, paths, stats.rounds, stats.total_bits)
                    counted[side] = len(seeds)
                    seedings[side] += len(seeds)
                assert result["skip"] == result["draw"]
                assert counted["skip"] <= counted["draw"]
    assert lengths == {1, 3, 5}
    assert seedings["skip"] < seedings["draw"]

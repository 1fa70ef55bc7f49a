import heapq
import random
from dataclasses import asdict

import pytest

import bvc.runtime
from bvc.errors import InvalidParam, ProgramFault, RoundCapExceeded
from bvc.graph import (
    Matching,
    SubgraphView,
    build_graph,
    ceil_log2,
    default_bandwidth,
    gen_path,
    gen_random,
)
from bvc.runtime import (
    Msg,
    NodeContext,
    NodeProgram,
    RoundStats,
    derive_seed,
    frame_count,
    id_bits,
    run,
)
from bvc.matching import PathSelectProgram, maximal_matching, select_disjoint_paths
from bvc.primitives import (
    AggregateProgram,
    AltBfsProgram,
    LeaderBfsProgram,
    alternating_bfs,
    elect_leader_and_bfs,
    pipelined_aggregate,
)
from bvc.repair import AnnounceRemovalProgram, CountSweepProgram, _announce_removals, count_paths
from support import induced, max_view_degree


class EchoOnce(NodeProgram):
    """Sends one empty frame to every neighbor, then halts."""

    def init(self, ctx):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        out = {u: Msg() for u in ctx.neighbors}
        return state, out, True


class BigPayload(NodeProgram):
    """Node 0 sends `bits` worth of payload to node 1; node 1 waits for it."""

    def __init__(self, bits):
        self.bits = bits

    def init(self, ctx):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        if ctx.node == 0:
            return state, {1: Msg((0, self.bits))}, True
        if inbox:
            return inbox[0].nbits, {}, True
        return state, {}, False, None

    def output(self, ctx, state):
        return state


class RandomReporter(NodeProgram):
    def init(self, ctx):
        return []

    def step(self, ctx, state, inbox, rnd, rng):
        state.append(rng.randrange(1 << 30))
        return state, {}, rnd >= 3


class NeverHalts(NodeProgram):
    def init(self, ctx):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        return state, {}, False


class Sleeper(NodeProgram):
    """Wakes only at round 50, then halts."""

    def init(self, ctx):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        if rnd == 1:
            return None, {}, False, 50
        return rnd, {}, True

    def output(self, ctx, state):
        return state


class Faulty(NodeProgram):
    def init(self, ctx):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        raise RuntimeError("boom")


class SendsToStranger(NodeProgram):
    def init(self, ctx):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        return state, {ctx.node + 2: Msg()}, True


def test_bit_helpers():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(5) == 3
    assert id_bits(1) == 1
    assert default_bandwidth(2) == 5
    assert default_bandwidth(16) == 16


def test_msg_width_validation():
    m = Msg((5, 3), (1, 1))
    assert m.values == (5, 1)
    assert m.nbits == 4
    with pytest.raises(InvalidParam):
        Msg((8, 3))


def test_echo_once_single_edge():
    g = build_graph([(0, 1)])
    outputs, stats = run(EchoOnce(), g, seed=1)
    assert stats.rounds == 1
    assert stats.max_message_bits <= default_bandwidth(2)
    assert stats.fragmentation_rounds == 0


def test_payload_fragmentation():
    bw = default_bandwidth(2)
    g = build_graph([(0, 1)]).with_bandwidth(bw)
    outputs, stats = run(BigPayload(3 * bw), g, seed=1)
    # Three frames occupy the edge for rounds 1..3; delivery read at round 4.
    assert outputs[1] == 3 * bw
    assert stats.fragmentation_rounds == 2
    assert stats.max_message_bits == bw
    assert stats.total_bits == 3 * bw
    assert stats.rounds == 4


def test_single_frame_payload_takes_one_round():
    bw = default_bandwidth(2)
    g = build_graph([(0, 1)]).with_bandwidth(bw)
    _, stats = run(BigPayload(bw), g, seed=1)
    assert stats.fragmentation_rounds == 0
    assert stats.total_bits == bw


def test_zero_bit_payload_costs_a_round():
    g = build_graph([(0, 1)])
    outputs, stats = run(BigPayload(0), g, seed=1)
    assert outputs[1] == 0
    assert stats.total_bits == 0
    assert stats.rounds == 2


def test_determinism_same_seed():
    g = gen_path(6)
    out1, st1 = run(RandomReporter(), g, seed=42)
    out2, st2 = run(RandomReporter(), g, seed=42)
    out3, _ = run(RandomReporter(), g, seed=43)
    assert out1 == out2
    assert st1 == st2
    assert out1 != out3


def test_unseeded_draw_faults():
    g = gen_path(6)
    with pytest.raises(ProgramFault, match="unseeded"):
        run(RandomReporter(), g)
    outputs, _ = run(RandomReporter(), g, seed=0)
    assert all(len(draws) == 3 for draws in outputs.values())


def test_round_cap(monkeypatch):
    monkeypatch.setattr(bvc.runtime, "ROUND_CAP", 10)
    g = build_graph([(0, 1)])
    with pytest.raises(RoundCapExceeded):
        run(NeverHalts(), g, seed=0)


def test_quiescence_detection():
    g = build_graph([(0, 1)])

    class Stuck(NodeProgram):
        def init(self, ctx):
            return None

        def step(self, ctx, state, inbox, rnd, rng):
            return state, {}, False, None  # waits for mail that never comes

    with pytest.raises(RoundCapExceeded):
        run(Stuck(), g, seed=0)
    outputs, stats = run(Stuck(), g, seed=0, allow_quiescence=True)
    assert stats.rounds == 1


def test_wake_at_fast_forward():
    g = build_graph([(0, 1)])
    outputs, stats = run(Sleeper(), g, seed=0)
    assert outputs == {0: 50, 1: 50}
    assert stats.rounds == 50


def test_program_fault_wrapped():
    g = build_graph([(0, 1)])
    with pytest.raises(ProgramFault):
        run(Faulty(), g, seed=0)
    with pytest.raises(ProgramFault):
        run(SendsToStranger(), gen_path(4), seed=0)


def test_bandwidth_floor_enforced():
    g = gen_path(40)
    with pytest.raises(InvalidParam):
        g.with_bandwidth(5)
    assert g.with_bandwidth(ceil_log2(40) + 4).bandwidth == 10


def test_stats_json_fields():
    g = build_graph([(0, 1)])
    _, stats = run(EchoOnce(), g, seed=0, phase="echo")
    d = asdict(stats)
    assert set(d) == {
        "rounds",
        "max_message_bits",
        "total_bits",
        "fragmentation_rounds",
        "per_phase",
    }
    assert d["per_phase"] == [("echo", 1)]


def test_derive_seed_order_sensitivity():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(5, 7, 11) == derive_seed(5, 7, 11)


def test_phase_merge_keeps_round_sum():
    g = build_graph([(0, 1)])
    _, s1 = run(EchoOnce(), g, seed=0, phase="a")
    _, s2 = run(BigPayload(3 * default_bandwidth(2)), g, seed=0, phase="b")
    s1.add_sequential(s2)
    assert s1.rounds == sum(r for _, r in s1.per_phase)
    assert [label for label, _ in s1.per_phase] == ["a", "b"]


class SendsNonMsg(NodeProgram):
    def init(self, ctx):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        return state, {u: (1, 1) for u in ctx.neighbors}, True


class WakesNow(NodeProgram):
    def init(self, ctx):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        return state, {}, False, rnd


class FailsIn(NodeProgram):
    """Raises in `setup`, `init` or `output`; each step sends to the
    higher neighbors and halts. At "mailed init" only node 0 starts, so
    node 2 is first reached by mail in round 3, and its `init` raises."""

    def __init__(self, where):
        self.where = where
        if where == "mailed init":
            self.start = {0}

    def setup(self, n, bandwidth):
        if self.where == "setup":
            raise RuntimeError("setup boom")

    def init(self, ctx):
        if self.where == "init" or self.where == "mailed init" and ctx.node == 2:
            raise RuntimeError("init boom")
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        return state, {u: Msg() for u in ctx.neighbors if u > ctx.node}, True

    def output(self, ctx, state):
        if self.where == "output":
            raise RuntimeError("output boom")
        return state


class SendsToHalted(NodeProgram):
    """Node 1 halts in round 1. Node 0 sends it `bits` bits in round `at`,
    then sleeps; node 1 counts what it received."""

    def __init__(self, bits, at):
        self.bits = bits
        self.at = at

    def init(self, ctx):
        return 0

    def step(self, ctx, state, inbox, rnd, rng):
        if ctx.node == 1:
            return state + len(inbox), {}, True
        if rnd < self.at:
            return state, {}, False
        return state, {1: Msg((0, self.bits))} if rnd == self.at else {}, False, None


def test_send_guards_raise_program_fault():
    g = gen_path(3)
    with pytest.raises(ProgramFault, match="non-Msg"):
        run(SendsNonMsg(), g, seed=0)
    with pytest.raises(ProgramFault, match="non-neighbor"):
        run(SendsToStranger(), g, seed=0)


def test_wake_at_not_in_future_raises_program_fault():
    with pytest.raises(ProgramFault, match="wake_at"):
        run(WakesNow(), gen_path(2), seed=0)


class EndsInRound3(NodeProgram):
    """A run that ends in round 3. Node 0 asks in round 1 to step in round
    `at`; with `every_round`, every node steps every round (a
    three-element result) and halts in round `halt_at`."""

    end = 3

    def __init__(self, at, every_round=False, halt_at=None):
        self.at = at
        self.every_round = every_round
        self.halt_at = halt_at

    def init(self, ctx):
        return 0

    def step(self, ctx, state, inbox, rnd, rng):
        if self.every_round:
            return state + 1, {}, rnd == self.halt_at
        return state + 1, {}, False, self.at if ctx.node == 0 and rnd == 1 else None


def test_wake_after_end_raises_program_fault():
    g = gen_path(2)
    outputs, stats = run(EndsInRound3(3), g)
    assert outputs == {0: 2, 1: 1}
    assert stats.rounds == 3
    with pytest.raises(ProgramFault, match="wake_at 4 > end 3"):
        run(EndsInRound3(4), g)
    # Stepping every round asks for round 4 in round 3, unless halting.
    outputs, stats = run(EndsInRound3(None, every_round=True, halt_at=3), g)
    assert (outputs, stats.rounds) == ({0: 3, 1: 3}, 3)
    with pytest.raises(ProgramFault, match="wake_at 4 > end 3"):
        run(EndsInRound3(None, every_round=True), g)


@pytest.mark.parametrize("where", ["init", "output", "setup", "mailed init"])
def test_init_and_output_errors_raise_program_fault(where):
    match = "init failed at node 2" if where == "mailed init" else f"{where} failed"
    with pytest.raises(ProgramFault, match=match):
        run(FailsIn(where), gen_path(3), seed=0)


def test_message_to_halted_node_dropped_but_counted():
    bw = default_bandwidth(2)
    g = build_graph([(0, 1)]).with_bandwidth(bw)
    outputs, stats = run(SendsToHalted(5, 2), g, seed=0, allow_quiescence=True)
    # Delivery would need a round 3; the dropped message only costs bits.
    assert outputs[1] == 0
    assert (stats.rounds, stats.total_bits) == (2, 5)
    outputs, stats = run(SendsToHalted(3 * bw, 2), g, seed=0, allow_quiescence=True)
    # All three frames are sent (rounds 2..4), then the run goes quiet.
    assert outputs[1] == 0
    assert (stats.rounds, stats.total_bits, stats.fragmentation_rounds) == (4, 3 * bw, 2)


class SendsAndHalts(NodeProgram):
    """Every node sends `bits` bits to every neighbor in round 1 and halts."""

    def __init__(self, bits):
        self.bits = bits

    def init(self, ctx):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        return state, {u: Msg((0, self.bits)) for u in ctx.neighbors}, True


def test_frames_after_the_last_halt_are_not_sent():
    bw = default_bandwidth(2)
    g = build_graph([(0, 1)]).with_bandwidth(bw)
    _, stats = run(SendsAndHalts(3 * bw), g, seed=0)
    # Everyone halted in round 1: only the first frame on each edge moved.
    assert stats == RoundStats(
        rounds=1, max_message_bits=bw, total_bits=2 * bw, per_phase=[("main", 1)]
    )


def test_run_rejects_view_of_another_graph():
    g = gen_path(4)
    other = gen_path(4)
    with pytest.raises(InvalidParam, match="another graph"):
        run(EchoOnce(), g, SubgraphView.whole(other), seed=0)


class ReportsContext(NodeProgram):
    """Outputs every NodeContext field and the received senders; each
    node sends its entry in `data` (small ints, 0 by default) to every
    in-view neighbor, then halts after round 2."""

    def __init__(self, data=None):
        self.data = data or {}

    def init(self, ctx):
        return []

    def step(self, ctx, state, inbox, rnd, rng):
        state.append(sorted((u, m.values) for u, m in inbox.items()))
        if rnd == 1:
            out = {u: Msg((self.data.get(ctx.node, 0), 8)) for u in ctx.view_neighbors}
            return state, out, False
        return state, {}, True

    def output(self, ctx, state):
        return ctx._asdict(), state


def test_view_reused_across_runs_matches_fresh_view():
    g = gen_random(7, 7, 0.4, 3)
    keep = [v for v in g.node_ids if v % 3]
    view = induced(g, keep)
    first = run(ReportsContext({v: v for v in g.node_ids}), g, view, seed=5)
    run(EchoOnce(), g, view, seed=1)
    second = run(ReportsContext({v: 2 * v for v in g.node_ids}), g, view, seed=5)
    for data, (out, stats) in (({v: v for v in g.node_ids}, first),
                               ({v: 2 * v for v in g.node_ids}, second)):
        fresh_out, fresh_stats = run(ReportsContext(data), g, induced(g, keep), seed=5)
        assert out == fresh_out
        assert stats == fresh_stats
    assert first[0] != second[0]


def test_contexts_under_a_proper_sub_view():
    g = gen_path(5)
    view = induced(g, [0, 1, 2, 4])
    outputs, _ = run(ReportsContext(), g, view, seed=0)
    ctx = {v: out[0] for v, out in outputs.items()}
    assert ctx[3]["in_view"] is False and ctx[3]["view_neighbors"] == ()
    assert ctx[3]["neighbors"] == (2, 4)
    assert ctx[2] == dict(
        node=2, side="A", in_view=True, neighbors=(1, 3), view_neighbors=(1,)
    )
    assert ctx[4]["in_view"] is True and ctx[4]["view_neighbors"] == ()
    for v in g.node_ids:
        assert ctx[v]["view_neighbors"] == tuple(view.view_neighbors(v))
        assert ctx[v]["neighbors"] == g.adjacency[v]


def test_node_context_is_immutable_and_keyword_built():
    ctx = NodeContext(node=0, side="A", in_view=True, neighbors=(), view_neighbors=())
    # Per-node data comes from the program, not the context.
    assert ctx._fields == ("node", "side", "in_view", "neighbors", "view_neighbors")
    with pytest.raises(AttributeError):
        ctx.node = 1


# ---------------------------------------------------------------------------
# The engine against a plain per-frame simulation
# ---------------------------------------------------------------------------


def reference_run(program, graph, view, *, seed, allow_quiescence, round_cap, seen):
    """The engine's semantics spelled out: round 1 is due for the nodes
    that start (all of them when `start` is None); each round steps the
    due nodes in id order, a node getting its state when first due, then
    moves one frame along every busy edge; a message whose last frame
    moved arrives next round unless its target halted. A program with
    `end` stops after round `end`, or jumps to it when nothing is left to
    do. Only nodes with a state have an output. Adds to `seen` the end
    cases the run met."""
    n = graph.n
    bw = graph.bandwidth
    ctxs = {
        v: NodeContext(
            node=v,
            side=graph.side[v],
            in_view=view.contains_node(v),
            neighbors=graph.adjacency[v],
            view_neighbors=tuple(u for u in graph.adjacency[v] if view.contains_edge(u, v)),
        )
        for v in graph.node_ids
    }
    program.setup(n, bw)
    end = program.end
    states = {}
    halted = set()
    queues = {}  # edge -> [[frames_left, last_frame_bits, started, msg], ...]
    mail = {}  # round -> target -> {sender: msg}
    wake = {v: 1 for v in (graph.node_ids if program.start is None else program.start)}
    heap = [(1, v) for v in wake]
    stats = dict(rounds=0, max_message_bits=0, total_bits=0, fragmentation_rounds=0)
    rnd = 0
    while len(halted) < n and rnd != end:
        while heap and (heap[0][1] in halted or wake.get(heap[0][1]) != heap[0][0]):
            heapq.heappop(heap)
        candidates = [rnd + 1] if queues else []
        candidates += [min(mail)] if mail else []
        candidates += [heap[0][0]] if heap else []
        if not candidates:
            if end is not None:
                seen.add("quiet before end")
                stats["rounds"] = end
                break
            if allow_quiescence:
                break
            raise RoundCapExceeded("quiescent")
        rnd = min(candidates)
        if rnd > round_cap:
            raise RoundCapExceeded("cap")
        stats["rounds"] = rnd
        inboxes = mail.pop(rnd, {})
        if inboxes and rnd == end:
            seen.add("mail in round end")
        due = set(inboxes)
        while heap and heap[0][0] == rnd:
            _, v = heapq.heappop(heap)
            if wake.get(v) == rnd:
                due.add(v)
        for v in sorted(due - halted):
            wake[v] = None
            if v not in states:
                states[v] = program.init(ctxs[v])
            inbox = {u: inboxes.get(v, {})[u] for u in sorted(inboxes.get(v, {}))}
            result = program.step(ctxs[v], states[v], inbox, rnd, random.Random(derive_seed(seed, v, rnd)))
            states[v], outbox, halt = result[:3]
            at = result[3] if len(result) == 4 else rnd + 1
            for tgt in sorted(outbox):
                msg = outbox[tgt]
                if tgt not in graph.adjacency[v] or not isinstance(msg, Msg):
                    raise ProgramFault("bad send")
                frames = frame_count(msg.nbits, bw)
                queues.setdefault((v, tgt), []).append([frames, msg.nbits - bw * (frames - 1), False, msg])
            if halt:
                halted.add(v)
            elif at is not None:
                if end is not None and at > end:
                    raise ProgramFault("wake after end")
                wake[v] = at
                heapq.heappush(heap, (at, v))
        fragmented = False
        for (src, tgt), q in list(queues.items()):
            head = q[0]
            fragmented |= head[2]
            head[2] = True
            head[0] -= 1
            bits = head[1] if head[0] == 0 else bw
            stats["total_bits"] += bits
            stats["max_message_bits"] = max(stats["max_message_bits"], bits)
            if head[0] == 0:
                q.pop(0)
                if tgt not in halted:
                    mail.setdefault(rnd + 1, {}).setdefault(tgt, {})[src] = head[3]
                if not q:
                    del queues[(src, tgt)]
        stats["fragmentation_rounds"] += fragmented
    if rnd == end and queues:
        seen.add("frames in flight at end")
    outputs = {v: program.output(ctxs[v], states[v]) for v in sorted(states)}
    return outputs, stats


class RandomTraffic(NodeProgram):
    """Random sends of random widths (up to several frames), halts and
    wakes, all drawn from the node's own stream; outputs what it saw and
    its entry in `data`. Only the nodes in `start` step in round 1 (all
    at None), and with an `end` no wake falls after it."""

    def __init__(self, p_halt, max_bits, waits, start, end, data):
        self.p_halt = p_halt
        self.max_bits = max_bits
        self.waits = waits
        self.start = start
        self.end = end
        self.data = data

    def init(self, ctx):
        return [ctx.in_view, ctx.view_neighbors, self.data.get(ctx.node)]

    def step(self, ctx, state, inbox, rnd, rng):
        state.append((rnd, [(u, m.values) for u, m in inbox.items()]))
        out = {}
        for u in ctx.neighbors:
            if rng.random() < 0.5:
                w = rng.randrange(self.max_bits + 1)
                out[u] = Msg((rng.getrandbits(w) if w else 0, w))
        if rng.random() < self.p_halt or rnd > 8:
            return state, out, True
        r = rng.random()
        wake = rnd + 1 if not self.waits or r < 0.3 else None if r < 0.6 else rnd + rng.randrange(1, 6)
        if self.end is not None and wake is not None and wake > self.end:
            wake = None
        if wake == rnd + 1:
            return state, out, False
        return state, out, False, wake


def test_engine_matches_per_frame_reference(monkeypatch):
    seen = set()
    for case in range(200):
        rng = random.Random(case)
        if case % 24 == 0:
            g = build_graph([])
        else:
            g = gen_random(rng.randrange(1, 7), rng.randrange(1, 7), rng.choice([0.2, 0.5, 0.9]), case)
        kept = [v for v in g.node_ids if rng.random() < 0.8]
        bw = default_bandwidth(g.n) + rng.choice([0, 3])
        g = g.with_bandwidth(bw)
        view = induced(g, kept)
        kwargs = dict(seed=case, allow_quiescence=case % 3 == 0)
        data = {v: 3 * v for v in g.node_ids} if case % 2 else {}
        round_cap = rng.choice([10, 1000])
        monkeypatch.setattr(bvc.runtime, "ROUND_CAP", round_cap)
        p_start = rng.choice([0.3, 1.0])
        start = None if p_start == 1.0 else {v for v in g.node_ids if rng.random() < p_start}
        end = rng.randrange(1, 12) if case % 5 < 2 else None
        if g.n == 0 and end is not None:
            seen.add("no nodes, with end")

        def program():
            return RandomTraffic(
                rng.choice([0.05, 0.4]), rng.choice([bw, 4 * bw]), case % 4 > 0, start, end, data
            )

        state = rng.getstate()
        try:
            outputs, stats = run(program(), g, view, **kwargs)
            got = (outputs, {k: v for k, v in asdict(stats).items() if k != "per_phase"})
        except RoundCapExceeded:
            got = RoundCapExceeded
        rng.setstate(state)
        try:
            want = reference_run(program(), g, view, round_cap=round_cap, seen=seen, **kwargs)
        except RoundCapExceeded:
            want = RoundCapExceeded
        assert got == want, case
    assert seen == {
        "quiet before end", "mail in round end", "frames in flight at end", "no nodes, with end"
    }


# ---------------------------------------------------------------------------
# Start rules skip only steps that do nothing
# ---------------------------------------------------------------------------


def every_start_rule(g, view, seed):
    """Runs each program with a start rule on (g, view): the election, two
    aggregations, alternating BFS, and, for the empty and a maximal
    matching, the count, a selection in each mode and two removal rounds at
    the shortest augmenting length. Returns everything they returned."""
    forest, elect_stats = elect_leader_and_bfs(g)
    got = [forest, elect_stats]
    got.append(
        pipelined_aggregate(
            g, forest, {v: (1,) for v in g.node_ids}, combine="sum",
            value_width=id_bits(g.n) + 1, phase="count",
        )
    )
    got.append(
        pipelined_aggregate(
            g, forest, {v: (v, g.n - 1 - v) for v in g.node_ids}, combine="max",
            value_width=id_bits(g.n), answer=max, phase="max",
        )
    )
    for m in (Matching([], view), maximal_matching(g, view, seed=seed)[0]):
        layering, bfs_stats = alternating_bfs(g, view, m, g.n)
        got += [sorted(m.edges), layering, bfs_stats]
        lengths = [lv for _, lv in layering.witnesses(view, m)]
        if not lengths:
            continue
        d = min(lengths)
        counts, count_stats = count_paths(g, view, m, d, delta=max_view_degree(view))
        got += [counts, count_stats]
        for sel_seed in (seed, None):
            flipped, paths, sel_stats = select_disjoint_paths(g, view, m, d, layering, seed=sel_seed)
            got += [sorted(flipped.edges), paths, sel_stats]
        top = max(counts.count.values())
        heavy = {v for v, c in counts.count.items() if c == top}
        got += [_announce_removals(g, view, heavy), _announce_removals(g, view, set())]
    return got


@pytest.mark.parametrize(
    "program",
    [
        LeaderBfsProgram,
        AggregateProgram,
        AltBfsProgram,
        CountSweepProgram,
        PathSelectProgram,
        AnnounceRemovalProgram,
    ],
)
def test_start_rule_skips_only_no_op_steps(monkeypatch, program):
    """Each program's start set gives the outputs and stats of a run in
    which every node steps in round 1 (start None), on seeded random
    graphs, whole and induced sub-views, at the default and the floor
    bandwidth. The drivers state the default of every node that never
    acts, so they return the same either way."""
    sizes = []  # of the start sets given, per `every_start_rule` call

    def keep(self, start):
        sizes.append(len(start))
        vars(self)["given"] = start

    given = property(lambda self: vars(self)["given"], keep)
    every_node = property(lambda self: None, lambda self, start: None)
    sparse = 0
    for seed in range(6):
        base = gen_random(9 + seed % 3, 10, 0.22, seed)
        kept = [v for v in base.node_ids if (v * 7 + seed) % 5]
        for bw in (base.bandwidth, ceil_log2(base.n) + 4):
            g = base.with_bandwidth(bw)
            for view in (SubgraphView.whole(g), induced(g, kept)):
                monkeypatch.setattr(program, "start", given)
                with_rule = every_start_rule(g, view, seed)
                sparse += any(size < g.n for size in sizes)
                sizes.clear()
                monkeypatch.setattr(program, "start", every_node)
                assert with_rule == every_start_rule(g, view, seed), (seed, bw)
    assert sparse > 0


def test_a_run_inits_only_the_nodes_that_step(monkeypatch):
    """On a path of 10^4 nodes matched but at its ends, one free A-node
    starts an alternating BFS to depth 3 and its offers reach three more
    nodes: the run inits and steps those four, and builds their contexts
    alone, not n. An isolated free A-node is at level 0 without acting."""
    g = build_graph([(v, v + 1) for v in range(9_999)], extra_nodes=[10_000])
    view = SubgraphView.whole(g)
    m = Matching([(v, v + 1) for v in range(1, 9_999, 2)], view)
    calls = {"init": 0, "step": 0}
    for name in calls:
        real = getattr(AltBfsProgram, name)

        def counted(self, ctx, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, ctx, *args)

        monkeypatch.setattr(AltBfsProgram, name, counted)
    layering, stats = alternating_bfs(g, view, m, 3)
    assert layering.level == {0: 0, 1: 1, 2: 2, 3: 3, 10_000: 0}
    assert stats.rounds == 4
    assert calls == {"init": 4, "step": 4}
    assert sorted(g.contexts) == [0, 1, 2, 3, 10_000]

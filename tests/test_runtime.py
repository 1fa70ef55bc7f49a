import heapq
import random
from dataclasses import asdict

import pytest

import bvc.runtime
from bvc.errors import InvalidParam, ProgramFault, RoundCapExceeded
from bvc.graph import (
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
from support import induced


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
    """Raises in `init` or in `output`; steps halt at once."""

    def __init__(self, where):
        self.where = where

    def init(self, ctx):
        if self.where == "init":
            raise RuntimeError("init boom")
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        return state, {}, True

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


@pytest.mark.parametrize("where", ["init", "output"])
def test_init_and_output_errors_raise_program_fault(where):
    with pytest.raises(ProgramFault, match=f"{where} failed"):
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
    node sends its input (small ints) to every in-view neighbor, then
    halts after round 2."""

    def init(self, ctx):
        return []

    def step(self, ctx, state, inbox, rnd, rng):
        state.append(sorted((u, m.values) for u, m in inbox.items()))
        if rnd == 1:
            out = {u: Msg((ctx.input or 0, 8)) for u in ctx.view_neighbors}
            return state, out, False
        return state, {}, True

    def output(self, ctx, state):
        return ctx._asdict(), state


def test_view_reused_across_runs_matches_fresh_view():
    g = gen_random(7, 7, 0.4, 3)
    keep = [v for v in g.node_ids if v % 3]
    view = induced(g, keep)
    first = run(ReportsContext(), g, view, seed=5, inputs={v: v for v in g.node_ids})
    run(EchoOnce(), g, view, seed=1)
    second = run(ReportsContext(), g, view, seed=5, inputs={v: 2 * v for v in g.node_ids})
    for inputs, (out, stats) in (({v: v for v in g.node_ids}, first),
                                 ({v: 2 * v for v in g.node_ids}, second)):
        fresh_out, fresh_stats = run(
            ReportsContext(), g, induced(g, keep), seed=5, inputs=inputs
        )
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
        node=2, side="A", in_view=True, neighbors=(1, 3), view_neighbors=(1,), input=None
    )
    assert ctx[4]["in_view"] is True and ctx[4]["view_neighbors"] == ()
    for v in g.node_ids:
        assert ctx[v]["view_neighbors"] == tuple(view.view_neighbors(v))
        assert ctx[v]["neighbors"] == g.adjacency[v]


def test_node_context_is_immutable_and_keyword_built():
    ctx = NodeContext(node=0, side="A", in_view=True, neighbors=(), view_neighbors=())
    assert ctx.input is None
    with pytest.raises(AttributeError):
        ctx.node = 1


# ---------------------------------------------------------------------------
# The engine against a plain per-frame simulation
# ---------------------------------------------------------------------------


def reference_run(program, graph, view, *, seed, inputs, allow_quiescence, round_cap):
    """The engine's semantics spelled out: each round steps the due nodes
    in id order, then moves one frame along every busy edge; a message
    whose last frame moved arrives next round unless its target halted."""
    n = graph.n
    bw = graph.bandwidth
    ctxs = {
        v: NodeContext(
            node=v,
            side=graph.side[v],
            in_view=view.contains_node(v),
            neighbors=graph.adjacency[v],
            view_neighbors=tuple(u for u in graph.adjacency[v] if view.contains_edge(u, v)),
            input=None if inputs is None else inputs.get(v),
        )
        for v in graph.node_ids
    }
    program.setup(n, bw)
    states = {v: program.init(ctxs[v]) for v in graph.node_ids}
    halted = set()
    queues = {}  # edge -> [[frames_left, last_frame_bits, started, msg], ...]
    mail = {}  # round -> target -> {sender: msg}
    wake = {v: 1 for v in graph.node_ids}
    heap = [(1, v) for v in graph.node_ids]
    stats = dict(rounds=0, max_message_bits=0, total_bits=0, fragmentation_rounds=0)
    rnd = 0
    while len(halted) < n:
        while heap and (heap[0][1] in halted or wake.get(heap[0][1]) != heap[0][0]):
            heapq.heappop(heap)
        candidates = [rnd + 1] if queues else []
        candidates += [min(mail)] if mail else []
        candidates += [heap[0][0]] if heap else []
        if not candidates:
            if allow_quiescence:
                break
            raise RoundCapExceeded("quiescent")
        rnd = min(candidates)
        if rnd > round_cap:
            raise RoundCapExceeded("cap")
        stats["rounds"] = rnd
        inboxes = mail.pop(rnd, {})
        due = set(inboxes)
        while heap and heap[0][0] == rnd:
            _, v = heapq.heappop(heap)
            if wake.get(v) == rnd:
                due.add(v)
        for v in sorted(due - halted):
            wake[v] = None
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
    outputs = {v: program.output(ctxs[v], states[v]) for v in graph.node_ids}
    return outputs, stats


class RandomTraffic(NodeProgram):
    """Random sends of random widths (up to several frames), halts and
    wakes, all drawn from the node's own stream; outputs what it saw."""

    def __init__(self, p_halt, max_bits, waits):
        self.p_halt = p_halt
        self.max_bits = max_bits
        self.waits = waits

    def init(self, ctx):
        return [ctx.in_view, ctx.view_neighbors, ctx.input]

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
        if not self.waits or r < 0.3:
            return state, out, False
        return state, out, False, None if r < 0.6 else rnd + rng.randrange(1, 6)


def test_engine_matches_per_frame_reference(monkeypatch):
    for case in range(150):
        rng = random.Random(case)
        g = gen_random(rng.randrange(1, 7), rng.randrange(1, 7), rng.choice([0.2, 0.5, 0.9]), case)
        kept = [v for v in g.node_ids if rng.random() < 0.8]
        bw = default_bandwidth(g.n) + rng.choice([0, 3])
        g = g.with_bandwidth(bw)
        view = induced(g, kept)
        kwargs = dict(
            seed=case,
            inputs={v: 3 * v for v in g.node_ids} if case % 2 else None,
            allow_quiescence=case % 3 == 0,
        )
        round_cap = rng.choice([10, 1000])
        monkeypatch.setattr(bvc.runtime, "ROUND_CAP", round_cap)

        def program():
            return RandomTraffic(rng.choice([0.05, 0.4]), rng.choice([bw, 4 * bw]), case % 4 > 0)

        state = rng.getstate()
        try:
            outputs, stats = run(program(), g, view, **kwargs)
            got = (outputs, {k: v for k, v in asdict(stats).items() if k != "per_phase"})
        except RoundCapExceeded:
            got = RoundCapExceeded
        rng.setstate(state)
        try:
            want = reference_run(program(), g, view, round_cap=round_cap, **kwargs)
        except RoundCapExceeded:
            want = RoundCapExceeded
        assert got == want, case

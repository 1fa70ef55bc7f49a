"""Round-synchronous message-passing simulation with bandwidth accounting.

The engine runs a node program on every node of a graph. Per round, each
directed edge carries at most one frame of at most B bits; larger messages
are fragmented transparently and arrive once their last frame has been
transmitted. B is the graph's own `bandwidth`, set once per network (see
BipartiteGraph.with_bandwidth), never per run. Identical (program, graph,
view, seed) inputs give bit-identical outputs and statistics.

Randomness is per node and per round, derived from the run's seed. Only
programs that draw need a seed: a run is unseeded by default, and a draw
in an unseeded run raises ProgramFault, so a deterministic phase is
draw-free by check, not by convention.

Nodes may sleep: a step may return a fourth element `wake_at` (a future
round, or None for "wake only on message"). A sleeping node is woken early
whenever a message arrives. A program may also step only some nodes in
round 1 (`start`) and fix the run's last round (`end`), so that no node
wakes only to halt. All this skips only steps the program declares to be
no-ops, which draw nothing, so outputs and simulated costs are unaffected.

Host cost grows with the nodes that step, not with n: a graph and each view
keep their nodes' contexts, per-node data comes from the program, and a
node gets its state when it starts or first receives mail. A program fixes
its widths once per run in `setup`. A round steps only the starting nodes
(round 1) or those with mail or a due wake, the engine books traffic once
per message, not once per frame, and it sorts only the inboxes a
multi-frame message joined.
"""

from __future__ import annotations

import heapq
import random
import types
from dataclasses import dataclass, field

from .errors import InvalidParam, ProgramFault, RoundCapExceeded
from .graph import BipartiteGraph, NodeContext, SubgraphView, ceil_log2

_M64 = (1 << 64) - 1

# No run steps beyond this round.
ROUND_CAP = 1_000_000

# The inbox of every step without mail: one shared, read-only mapping.
_NO_MAIL = types.MappingProxyType({})

# The state of a node that has not acted yet.
_NO_STATE = object()


def _splitmix(x: int) -> int:
    x &= _M64
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def derive_seed(seed: int, *parts: int) -> int:
    """Counter-based seed derivation; independent of evaluation order."""
    s = _splitmix(seed)
    for p in parts:
        s = _splitmix(s ^ _splitmix(p))
    return s


class _LazyRng:
    """The random stream of the node being stepped, keyed by (seed, node,
    round). The engine re-arms one instance before every step by storing
    the node and round and clearing the stream; the stream itself is
    derived only when the step first draws, since most draw nothing. Valid
    only during that step. Without a seed, a draw raises ProgramFault."""

    __slots__ = ("_seed", "_node", "_rnd", "_rng")

    def __init__(self, seed: int | None):
        self._seed = seed
        self._node = self._rnd = 0
        self._rng = None

    def __getattr__(self, name):
        if self._seed is None:
            raise ProgramFault(
                f"node {self._node} drew randomness in round {self._rnd} of an unseeded run"
            )
        if self._rng is None:
            self._rng = random.Random(derive_seed(self._seed, self._node, self._rnd))
        return getattr(self._rng, name)


def id_bits(n: int) -> int:
    """Bits needed to name a node, at least 1."""
    return max(1, ceil_log2(n))


def frame_count(nbits: int, bandwidth: int) -> int:
    """Frames, hence rounds, an `nbits`-bit message takes on one edge; an
    empty message still takes one."""
    return max(1, -(-nbits // bandwidth))


class Msg:
    """A message as a tuple of unsigned integer fields with declared widths.

    The declared widths prove the message fits in `nbits` bits; the receiver
    reads the field values directly.
    """

    __slots__ = ("values", "nbits")

    def __init__(self, *fields: tuple[int, int]):
        values = ()
        nbits = 0
        for value, width in fields:
            if width < 0 or value < 0 or value >> width:
                raise InvalidParam(f"field value {value} does not fit in {width} bits")
            values += (value,)
            nbits += width
        self.values = values
        self.nbits = nbits

    def __repr__(self) -> str:  # pragma: no cover
        return f"Msg({self.values}, nbits={self.nbits})"


@dataclass
class RoundStats:
    rounds: int = 0
    max_message_bits: int = 0
    total_bits: int = 0
    fragmentation_rounds: int = 0
    per_phase: list = field(default_factory=list)

    def add_sequential(self, other: "RoundStats") -> None:
        """Append a later phase: rounds add up."""
        self.rounds += other.rounds
        self.max_message_bits = max(self.max_message_bits, other.max_message_bits)
        self.total_bits += other.total_bits
        self.fragmentation_rounds += other.fragmentation_rounds
        self.per_phase.extend(other.per_phase)

    def add_parallel(self, others: list["RoundStats"], label: str) -> None:
        """Fold in runs that execute concurrently on edge-disjoint subgraphs:
        rounds advance together, traffic adds up."""
        if not others:
            self.per_phase.append((label, 0))
            return
        rounds = max(o.rounds for o in others)
        self.rounds += rounds
        self.max_message_bits = max(
            self.max_message_bits, max(o.max_message_bits for o in others)
        )
        self.total_bits += sum(o.total_bits for o in others)
        self.fragmentation_rounds += max(o.fragmentation_rounds for o in others)
        self.per_phase.append((label, rounds))


class NodeProgram:
    """Interface executed by the runtime. Per-node data, such as a
    matching or a layering, comes from the program's constructor and is
    read by `ctx.node`.

    setup(n, bandwidth) -> None, once per run before any init: fix here
        what depends only on n, the bandwidth and the program's arguments.
    init(ctx) -> state (default None), when the node first acts: in round
        1 if it starts, else when its first mail arrives. A node that never
        acts has no state and no output; a driver that reads one states
        its default.
    step(ctx, state, inbox, rnd, rng) -> (state, outbox, halted[, wake_at])
        inbox: {sender: Msg} in sender order, read-only; outbox:
        {neighbor: Msg}. wake_at None means sleep until a message arrives;
        omitted means step every round. rng is valid only during the step.
    output(ctx, state) -> per-node result

    start: None, every node steps in round 1, or the set of nodes that do;
    any other sleeps until mail arrives, so leave a node out only where its
    round-1 step would return (state, {}, False, None).

    end: None, or the run's last round, set in `setup` by a program whose
    schedule fixes it. The run stops after it, or jumps to it once quiet; a
    wake after it, the next round's in round `end` included, is a fault.
    """

    start = None
    end: int | None = None

    def setup(self, n: int, bandwidth: int) -> None:
        pass

    def init(self, ctx: NodeContext):
        return None

    def step(self, ctx, state, inbox, rnd, rng):
        raise NotImplementedError

    def output(self, ctx, state):
        return state


def _send_fault(v: int, outbox: dict, neighbors: frozenset[int]) -> ProgramFault:
    """The fault for the first bad message of an outbox that has one, in
    target order."""
    for tgt in sorted(outbox):
        if tgt not in neighbors:
            return ProgramFault(f"node {v} sent to non-neighbor {tgt}")
        if not isinstance(outbox[tgt], Msg):
            return ProgramFault(f"node {v} sent a non-Msg object")
    raise AssertionError("outbox has no bad message")


def run(
    program: NodeProgram,
    graph: BipartiteGraph,
    view: SubgraphView | None = None,
    *,
    seed: int | None = None,
    phase: str = "main",
    allow_quiescence: bool = False,
):
    """Execute `program` on every node until all halt or round `end`
    passed, with every edge carrying at most `graph.bandwidth` bits per round.

    Returns (outputs, RoundStats) where outputs maps each node that holds a
    state, in id order, to its program output.

    Raises:
        InvalidParam: the view is over another graph.
        RoundCapExceeded: a round beyond ROUND_CAP was due, or, without
            `end`, no node can ever act again while some are unhalted
            (unless allow_quiescence, which then force-halts everyone; used
            by algorithms that converge without an explicit termination signal).
        ProgramFault: setup, or a node's init, step or output raised,
            or a step sent to a non-neighbor, sent a non-Msg, asked to wake
            in the past or after `end`, or drew randomness in a run without
            a seed.
    """
    if view is not None and view.base is not graph:
        raise InvalidParam("view is over another graph")
    n = graph.n
    bw = graph.bandwidth

    ctxs = (graph if view is None else view).contexts
    try:
        program.setup(n, bw)
    except Exception as exc:  # noqa: BLE001 - converted to ProgramFault
        raise ProgramFault(f"setup failed: {exc!r}") from exc
    end = program.end
    init = program.init
    states = {}
    # Nodes due next round, in step order; later wakes sit in `wake_heap`,
    # live while `wake_round` still holds them.
    awake = list(graph.node_ids) if program.start is None else sorted(program.start)

    neighbor_sets = graph.neighbor_sets()
    step = program.step
    rng = _LazyRng(seed)
    halted: set[int] = set()
    # A message holds its edge for frame_count(nbits, bw) consecutive
    # rounds, from the round it is sent or, behind earlier messages on that
    # edge, from the round after the edge frees up. It arrives at the start
    # of the round after its last frame, unless its target has halted by
    # then; its bits count either way. Bits are booked when a message is
    # sent and frames still unsent when every node has halted, or after
    # round `end`, are taken back, so only frames actually transmitted count.
    inbox_next: dict[int, dict[int, Msg]] = {}
    edge_busy: dict[tuple[int, int], int] = {}  # last round an edge is held
    arrivals: dict[int, list] = {}  # last-frame round -> [(src, tgt, msg, first round)]
    frag: set[int] = set()  # rounds in which some edge carries a continuation frame
    tx_until = 0  # last round in which some edge carries a frame
    wake_heap: list[tuple[int, int]] = []
    wake_round: dict[int, int] = {}
    total_bits = max_bits = 0
    rnd = 0

    while True:
        if awake or inbox_next or tx_until > rnd:
            nxt = rnd + 1
        else:
            while wake_heap and wake_round.get(wake_heap[0][1]) != wake_heap[0][0]:
                heapq.heappop(wake_heap)
            if not wake_heap:
                if len(halted) < n:
                    if end is not None:
                        rnd = end  # quiet before the last round: jump to it
                    elif not allow_quiescence:
                        raise RoundCapExceeded(
                            f"quiescent at round {rnd} with {n - len(halted)} nodes unhalted"
                        )
                break
            nxt = wake_heap[0][0]
        if nxt > ROUND_CAP:
            raise RoundCapExceeded(f"round cap {ROUND_CAP} exceeded")
        rnd = nxt

        inbox_now, inbox_next = inbox_next, {}
        order, awake = awake, []
        if inbox_now or (wake_heap and wake_heap[0][0] == rnd):
            due = set(order)
            due.update(inbox_now)
            while wake_heap and wake_heap[0][0] == rnd:
                _, v = heapq.heappop(wake_heap)
                if wake_round.get(v) == rnd:
                    due.add(v)
            order = sorted(due)
        newly_halted = []
        for v in order:
            if wake_round:
                wake_round.pop(v, None)
            inbox = inbox_now.get(v, _NO_MAIL)
            rng._node = v
            rng._rnd = rnd
            rng._rng = None
            ctx = ctxs[v]
            state = states.get(v, _NO_STATE)
            if state is _NO_STATE:
                try:
                    state = init(ctx)
                except Exception as exc:  # noqa: BLE001
                    raise ProgramFault(f"init failed at node {v}: {exc!r}") from exc
            try:
                result = step(ctx, state, inbox, rnd, rng)
            except Exception as exc:  # noqa: BLE001
                raise ProgramFault(f"step failed at node {v}, round {rnd}: {exc!r}") from exc
            if len(result) == 3:
                state, outbox, halt = result
                wake = rnd + 1
            else:
                state, outbox, halt, wake = result
            states[v] = state
            if outbox:
                if not outbox.keys() <= neighbor_sets[v]:
                    raise _send_fault(v, outbox, neighbor_sets[v])
                for tgt, msg in outbox.items():
                    if not isinstance(msg, Msg):
                        raise _send_fault(v, outbox, neighbor_sets[v])
                    nbits = msg.nbits
                    total_bits += nbits
                    if nbits <= bw and (tx_until < rnd or edge_busy.get((v, tgt), 0) < rnd):
                        # One frame on an idle edge: it arrives next round.
                        if nbits > max_bits:
                            max_bits = nbits
                        if tgt not in halted:
                            inbox_next.setdefault(tgt, {})[v] = msg
                        continue
                    frames = frame_count(nbits, bw)
                    # Only a last frame carries fewer than bw bits. A message
                    # that is held back never raises the maximum: the one
                    # ahead of it has already sent a bw-bit frame.
                    max_bits = max(max_bits, nbits if frames == 1 else bw)
                    first = max(rnd, edge_busy.get((v, tgt), 0) + 1)
                    last = first + frames - 1
                    edge_busy[(v, tgt)] = last
                    frag.update(range(first + 1, last + 1))
                    arrivals.setdefault(last, []).append((v, tgt, msg, first))
                    tx_until = max(tx_until, last)
            if halt:
                halted.add(v)
                newly_halted.append(v)
            elif wake is not None:
                if wake <= rnd:
                    raise ProgramFault(f"node {v} requested wake_at {wake} <= round {rnd}")
                if wake == rnd + 1:
                    awake.append(v)
                else:
                    if end is not None and wake > end:
                        raise ProgramFault(f"node {v} requested wake_at {wake} > end {end}")
                    wake_round[v] = wake
                    heapq.heappush(wake_heap, (wake, v))

        # Mail sent this round to a node that halted later in the round is
        # dropped; its bits still count.
        for v in newly_halted:
            inbox_next.pop(v, None)

        # Nodes step in id order, so single-frame mail joins an inbox in
        # sender order; a multi-frame arrival may not.
        landed = arrivals.pop(rnd, ())
        for src, tgt, msg, _ in landed:
            if tgt not in halted:
                inbox_next.setdefault(tgt, {})[src] = msg
        for tgt in {tgt for _, tgt, _, _ in landed if tgt not in halted}:
            inbox_next[tgt] = dict(sorted(inbox_next[tgt].items()))

        if len(halted) == n or rnd == end:
            if awake:
                raise ProgramFault(f"node {awake[0]} requested wake_at {rnd + 1} > end {end}")
            for last, pending in arrivals.items():
                for _, _, msg, first in pending:
                    unsent = last - max(first, rnd + 1) + 1
                    total_bits -= msg.nbits - bw * (frame_count(msg.nbits, bw) - unsent)
            break

    outputs = {}
    for v in sorted(states):
        try:
            outputs[v] = program.output(ctxs[v], states[v])
        except Exception as exc:  # noqa: BLE001
            raise ProgramFault(f"output failed at node {v}: {exc!r}") from exc
    stats = RoundStats(
        rounds=rnd,
        max_message_bits=max_bits,
        total_bits=total_bits,
        fragmentation_rounds=sum(1 for r in frag if r <= rnd),
    )
    stats.per_phase.append((phase, stats.rounds))
    return outputs, stats

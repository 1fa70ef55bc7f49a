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
whenever a message arrives. This only skips steps the program declares to
be no-ops, so simulated round counts are unaffected.

Host cost: a view computes its per-node topology (in-view flag and in-view
neighbors) once, and every run over it builds its contexts from that; a
run given no view reads the adjacency directly, so it builds no view. A program fixes its widths
once per run in `setup`. A round steps only the nodes with mail or a due
wake, and the engine books traffic once per message, not once per frame.
"""

from __future__ import annotations

import heapq
import random
import types
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidParam, ProgramFault, RoundCapExceeded
from .graph import BipartiteGraph, SubgraphView, ceil_log2

_M64 = (1 << 64) - 1

# No run steps beyond this round.
ROUND_CAP = 1_000_000

# The inbox of every step without mail: one shared, read-only mapping.
_NO_MAIL = types.MappingProxyType({})


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


class NodeContext(NamedTuple):
    """What a node knows a priori besides n and B, which the program
    receives in `setup`. Immutable."""

    node: int
    side: str
    in_view: bool
    neighbors: tuple[int, ...]
    view_neighbors: tuple[int, ...]
    input: object = None


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
    """Interface executed by the runtime.

    setup(n, bandwidth) -> None, once per run before any init: fix here
        what depends only on n, the bandwidth and the program's arguments.
    init(ctx) -> state
    step(ctx, state, inbox, rnd, rng) -> (state, outbox, halted[, wake_at])
        inbox: {sender: Msg}, read-only; outbox: {neighbor: Msg}. wake_at
        None means sleep until a message arrives; omitted means step every
        round. rng is valid only during the step.
    output(ctx, state) -> per-node result
    """

    def setup(self, n: int, bandwidth: int) -> None:
        pass

    def init(self, ctx: NodeContext):
        raise NotImplementedError

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
    inputs: dict | None = None,
    phase: str = "main",
    allow_quiescence: bool = False,
):
    """Execute `program` on every node until all halt, with every edge
    carrying at most `graph.bandwidth` bits per round.

    Returns (outputs, RoundStats) where outputs maps node -> program output.

    Raises:
        InvalidParam: the view is over another graph.
        RoundCapExceeded: a round beyond ROUND_CAP was due, or no node can
            ever act again while some are unhalted (unless allow_quiescence,
            which then force-halts everyone; used by algorithms that
            converge without an explicit termination signal).
        ProgramFault: a node's init/step/output raised, or a step sent to a
            non-neighbor, sent a non-Msg, asked to wake in the past, or drew
            randomness in a run without a seed.
    """
    if view is not None and view.base is not graph:
        raise InvalidParam("view is over another graph")
    n = graph.n
    bw = graph.bandwidth

    side = graph.side
    adjacency = graph.adjacency
    inputs = {} if inputs is None else inputs
    if view is None:
        ctxs = {
            v: NodeContext._make((v, side[v], True, adjacency[v], adjacency[v], inputs.get(v)))
            for v in graph.node_ids
        }
    else:
        ctxs = {
            v: NodeContext._make((v, side[v], in_view, adjacency[v], view_nbrs, inputs.get(v)))
            for v, (in_view, view_nbrs) in view.topology().items()
        }

    try:
        program.setup(n, bw)
    except Exception as exc:  # noqa: BLE001 - converted to ProgramFault
        raise ProgramFault(f"setup failed: {exc!r}") from exc
    states = {}
    for v, ctx in ctxs.items():
        try:
            states[v] = program.init(ctx)
        except Exception as exc:  # noqa: BLE001 - converted to ProgramFault
            raise ProgramFault(f"init failed at node {v}: {exc!r}") from exc

    neighbor_sets = graph.neighbor_sets()
    step = program.step
    rng = _LazyRng(seed)
    halted: set[int] = set()
    # A message holds its edge for frame_count(nbits, bw) consecutive
    # rounds, from the round it is sent or, behind earlier messages on that
    # edge, from the round after the edge frees up. It arrives at the start
    # of the round after its last frame, unless its target has halted by
    # then; its bits count either way. Bits are booked when a message is
    # sent and frames still unsent when every node has halted are taken
    # back, so only frames actually transmitted count.
    inbox_next: dict[int, dict[int, Msg]] = {}
    edge_busy: dict[tuple[int, int], int] = {}  # last round an edge is held
    arrivals: dict[int, list] = {}  # last-frame round -> [(src, tgt, msg, first round)]
    frag: set[int] = set()  # rounds in which some edge carries a continuation frame
    tx_until = 0  # last round in which some edge carries a frame
    # Nodes due next round, in step order; later wakes sit in `wake_heap`,
    # where an entry is live while `wake_round` still holds it.
    awake = list(graph.node_ids)
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
                if len(halted) == n or allow_quiescence:
                    break
                raise RoundCapExceeded(
                    f"quiescent at round {rnd} with {n - len(halted)} nodes unhalted"
                )
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
            if len(inbox) > 1:
                inbox = {u: inbox[u] for u in sorted(inbox)}
            rng._node = v
            rng._rnd = rnd
            rng._rng = None
            try:
                result = step(ctxs[v], states[v], inbox, rnd, rng)
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
                    wake_round[v] = wake
                    heapq.heappush(wake_heap, (wake, v))

        # Mail sent this round to a node that halted later in the round is
        # dropped; its bits still count.
        for v in newly_halted:
            inbox_next.pop(v, None)

        for src, tgt, msg, _ in arrivals.pop(rnd, ()):
            if tgt not in halted:
                inbox_next.setdefault(tgt, {})[src] = msg

        if len(halted) == n:
            for last, pending in arrivals.items():
                for _, _, msg, first in pending:
                    unsent = last - max(first, rnd + 1) + 1
                    total_bits -= msg.nbits - bw * (frame_count(msg.nbits, bw) - unsent)
            break

    outputs = {}
    for v, ctx in ctxs.items():
        try:
            outputs[v] = program.output(ctx, states[v])
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

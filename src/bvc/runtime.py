"""Round-synchronous message-passing simulation with bandwidth accounting.

The engine runs a node program on every node of a graph. Per round, each
directed edge carries at most one frame of at most B bits; larger messages
are fragmented transparently and arrive once their last frame has been
transmitted. Identical (program, graph, view, seed, bandwidth) inputs give
bit-identical outputs and statistics.

Nodes may sleep: a step may return a fourth element `wake_at` (a future
round, or None for "wake only on message"). A sleeping node is woken early
whenever a message arrives. This only skips steps the program declares to
be no-ops, so simulated round counts are unaffected.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .errors import InvalidParam, ProgramFault, RoundCapExceeded
from .graph import BipartiteGraph, SubgraphView

_M64 = (1 << 64) - 1


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
    """Creates the per-(seed, node, round) random stream only when used;
    the key derivation itself is deferred since most steps draw nothing."""

    __slots__ = ("_parts", "_rng")

    def __init__(self, seed: int, node: int, rnd: int):
        self._parts = (seed, node, rnd)
        self._rng = None

    def __getattr__(self, name):
        if self._rng is None:
            self._rng = random.Random(derive_seed(*self._parts))
        return getattr(self._rng, name)


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def id_bits(n: int) -> int:
    """Bits needed to name a node, at least 1."""
    return max(1, ceil_log2(n))


def default_bandwidth(n: int) -> int:
    """Default per-edge, per-round budget: 4 * ceil(log2 n) bits, but never
    below the runtime's own floor of ceil(log2 n) + 4."""
    return max(4 * ceil_log2(n), ceil_log2(n) + 4)


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
        nbits = 0
        values = []
        for value, width in fields:
            if width < 0 or value < 0 or (value >> width) != 0:
                raise InvalidParam(f"field value {value} does not fit in {width} bits")
            values.append(value)
            nbits += width
        self.values = tuple(values)
        self.nbits = nbits

    def __repr__(self) -> str:  # pragma: no cover
        return f"Msg({self.values}, nbits={self.nbits})"


@dataclass(frozen=True)
class NodeContext:
    """Everything a node is allowed to know a priori."""

    node: int
    n: int
    bandwidth: int
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

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "max_message_bits": self.max_message_bits,
            "total_bits": self.total_bits,
            "fragmentation_rounds": self.fragmentation_rounds,
            "per_phase": [[label, r] for label, r in self.per_phase],
        }

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

    init(ctx) -> state
    step(ctx, state, inbox, rnd, rng) -> (state, outbox, halted[, wake_at])
        inbox: {sender: Msg}; outbox: {neighbor: Msg}. wake_at None means
        sleep until a message arrives; omitted means step every round.
    output(ctx, state) -> per-node result
    """

    def init(self, ctx: NodeContext):
        raise NotImplementedError

    def step(self, ctx, state, inbox, rnd, rng):
        raise NotImplementedError

    def output(self, ctx, state):
        return state


def run(
    program: NodeProgram,
    graph: BipartiteGraph,
    view: SubgraphView | None = None,
    *,
    seed: int = 0,
    bandwidth: int | None = None,
    round_cap: int = 1_000_000,
    inputs: dict | None = None,
    phase: str = "main",
    allow_quiescence: bool = False,
):
    """Execute `program` on every node until all halt.

    Returns (outputs, RoundStats) where outputs maps node -> program output.

    Raises:
        RoundCapExceeded: the cap was hit, or no node can ever act again
            while some are unhalted (unless allow_quiescence, which then
            force-halts everyone; used by algorithms that converge without
            an explicit termination signal).
        ProgramFault: a node's init/step/output raised.
    """
    if view is None:
        view = SubgraphView.whole(graph)
    n = graph.n
    bw = default_bandwidth(n) if bandwidth is None else bandwidth
    if bw < ceil_log2(n) + 4:
        raise InvalidParam(f"bandwidth {bw} below floor {ceil_log2(n) + 4}")
    if round_cap <= 0:
        raise InvalidParam("round_cap must be positive")

    ctxs = {}
    for v in graph.node_ids:
        vn = tuple(u for u in graph.adjacency[v] if view.contains_edge(u, v))
        ctxs[v] = NodeContext(
            node=v,
            n=n,
            bandwidth=bw,
            side=graph.side[v],
            in_view=view.contains_node(v),
            neighbors=graph.adjacency[v],
            view_neighbors=vn,
            input=None if inputs is None else inputs.get(v),
        )

    states = {}
    for v in graph.node_ids:
        try:
            states[v] = program.init(ctxs[v])
        except Exception as exc:  # noqa: BLE001 - converted to ProgramFault
            raise ProgramFault(f"init failed at node {v}: {exc!r}") from exc

    halted: set[int] = set()
    # (frames_left, last_frame_bits, first_pending, msg) per directed edge.
    queues: dict[tuple[int, int], list] = {}
    pending_inbox: dict[int, dict[int, dict[int, Msg]]] = {}
    wake_heap: list[tuple[int, int]] = [(1, v) for v in graph.node_ids]
    wake_round: dict[int, int | None] = {v: 1 for v in graph.node_ids}
    heapq.heapify(wake_heap)
    stats = RoundStats()
    rnd = 0

    while True:
        nxt = None
        if queues:
            nxt = rnd + 1
        if pending_inbox:
            first = min(pending_inbox)
            nxt = first if nxt is None else min(nxt, first)
        while wake_heap and (
            wake_heap[0][1] in halted or wake_round.get(wake_heap[0][1]) != wake_heap[0][0]
        ):
            heapq.heappop(wake_heap)
        if wake_heap:
            nxt = wake_heap[0][0] if nxt is None else min(nxt, wake_heap[0][0])

        if nxt is None:
            if len(halted) == n:
                break
            if allow_quiescence:
                break
            raise RoundCapExceeded(
                f"quiescent at round {rnd} with {n - len(halted)} nodes unhalted"
            )
        if nxt > round_cap:
            raise RoundCapExceeded(f"round cap {round_cap} exceeded")
        rnd = nxt
        stats.rounds = rnd

        inbox_map = pending_inbox.pop(rnd, {})
        to_step = set(inbox_map)
        while wake_heap and wake_heap[0][0] == rnd:
            _, v = heapq.heappop(wake_heap)
            if v not in halted and wake_round.get(v) == rnd:
                to_step.add(v)
        for v in sorted(to_step):
            if v in halted:
                continue
            wake_round[v] = None
            raw = inbox_map.get(v, {})
            inbox = raw if len(raw) < 2 else {u: raw[u] for u in sorted(raw)}
            rng = _LazyRng(seed, v, rnd)
            try:
                result = program.step(ctxs[v], states[v], inbox, rnd, rng)
            except Exception as exc:  # noqa: BLE001
                raise ProgramFault(f"step failed at node {v}, round {rnd}: {exc!r}") from exc
            if len(result) == 3:
                state, outbox, halt = result
                wake = rnd + 1
            else:
                state, outbox, halt, wake = result
            states[v] = state
            if outbox:
                for tgt in sorted(outbox):
                    msg = outbox[tgt]
                    if tgt not in ctxs[v].neighbors:
                        raise ProgramFault(f"node {v} sent to non-neighbor {tgt}")
                    if not isinstance(msg, Msg):
                        raise ProgramFault(f"node {v} sent a non-Msg object")
                    frames = frame_count(msg.nbits, bw)
                    last_bits = msg.nbits - bw * (frames - 1)
                    queues.setdefault((v, tgt), []).append([frames, last_bits, True, msg])
            if halt:
                halted.add(v)
            elif wake is not None:
                if wake <= rnd:
                    raise ProgramFault(f"node {v} requested wake_at {wake} <= round {rnd}")
                wake_round[v] = wake
                heapq.heappush(wake_heap, (wake, v))

        if queues:
            fragmented = False
            done_edges = []
            for edge in queues:
                q = queues[edge]
                head = q[0]
                if head[2]:
                    head[2] = False
                else:
                    fragmented = True
                head[0] -= 1
                frame_bits = head[1] if head[0] == 0 else bw
                stats.total_bits += frame_bits
                if frame_bits > stats.max_message_bits:
                    stats.max_message_bits = frame_bits
                if head[0] == 0:
                    q.pop(0)
                    tgt = edge[1]
                    if tgt not in halted:
                        pending_inbox.setdefault(rnd + 1, {}).setdefault(tgt, {})[
                            edge[0]
                        ] = head[3]
                    if not q:
                        done_edges.append(edge)
            for edge in done_edges:
                del queues[edge]
            if fragmented:
                stats.fragmentation_rounds += 1

        if len(halted) == n:
            break

    outputs = {}
    for v in graph.node_ids:
        try:
            outputs[v] = program.output(ctxs[v], states[v])
        except Exception as exc:  # noqa: BLE001
            raise ProgramFault(f"output failed at node {v}: {exc!r}") from exc
    stats.per_phase.append((phase, stats.rounds))
    return outputs, stats

"""Distributed building blocks: leader election with BFS tree, pipelined
tree aggregation, and parallel alternating-path BFS.

All of these are node programs for the round-synchronous engine. The leader
election floods the minimum id, each node reading a neighbor's hop distance
off the round that neighbor's new leader arrived in, and detects
termination with an echo whose certificates are keyed to the exact
(leader, distance, parent) a node currently holds: a certificate for a
non-minimal leader can never complete because the true minimum node never
adopts a larger id, so the first DONE broadcast is always genuine.

A forest maps each node to its parent (None at a root) and its children,
which the nodes themselves learned. That is all aggregation reads, so it
runs over any spanning forest a protocol built, such as the per-cluster
trees of the randomized pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidParam, ShorterPathExists
from .graph import SIDE_A, SIDE_B, BipartiteGraph, Matching, SubgraphView
from .runtime import Msg, NodeProgram, RoundStats, frame_count, id_bits, run

_STATUS = 0
_DONE = 1


# node -> (parent or None, children)
Forest = dict[int, tuple[int | None, tuple[int, ...]]]


class LeaderBfsProgram(NodeProgram):
    """Min-id leader election with BFS tree, echo termination, and a final
    DONE broadcast down the tree. Each node learns its children from the
    child flag in its neighbors' statuses, and outputs its forest entry
    (parent or None, children).

    A status is (tag, leader, child flag), plus the certificate bit to the
    parent only: id_bits + 2 or + 3 bits, one frame at every B >= the
    floor ceil(log2 n) + 4, since id_bits(n) <= ceil(log2 n) + 1. It
    carries no distance, because the round tells it. Every message is one
    frame and an edge carries at most one per round, so a message sent in
    round r arrives in round r + 1; and a node sends its status in the
    round it adopts a leader. Hence a node that adopts leader L in round r
    holds distance r - 1 to it: L itself sends in round 1 at distance 0,
    and a node that first hears of L in round r hears it from neighbors
    that adopted L in round r - 1, at distance r - 2 (had one adopted it
    earlier, the node would have heard earlier, and leaders only fall).
    So a status from u that names a leader other than the last one heard
    from u, arriving in round r, puts u at distance r - 2. Later statuses
    naming the same leader come from nodes that adopted it no earlier, so
    no node ever improves its distance under an unchanged leader, and
    those statuses change only the child flag or the certificate bit."""

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)

    def init(self, ctx):
        return {
            "lead": ctx.node,
            "dist": 0,
            "parent": ctx.node,  # own id encodes "no parent"
            "nbr": {},
            # The neighbors that keep this node's certificate incomplete.
            "blocking": set(ctx.neighbors),
            "sent": None,
            "children": (),
        }

    @staticmethod
    def _blocks(st, u):
        """Whether neighbor u has not yet reported this node's leader at a
        distance <= dist + 1, or is a child whose certificate is
        incomplete."""
        entry = st["nbr"].get(u)
        if entry is None:
            return True
        lu, du, child, cu = entry
        dist = st["dist"]
        return lu != st["lead"] or du > dist + 1 or (child and du == dist + 1 and not cu)

    def _update(self, ctx, st, senders):
        """Fold in the statuses the senders just sent. After every step no
        neighbor offers a better (lead, dist) than this node holds, so a
        better one comes from a sender; and only the senders' standing
        changes unless this node's (lead, dist) does."""
        nbr = st["nbr"]
        if senders:
            # The parent is the smallest id among the best candidates, and
            # changes only on a strict improvement.
            best, parent = min(((nbr[u][0], nbr[u][1] + 1), u) for u in senders)
            if best < (st["lead"], st["dist"]):
                st["lead"], st["dist"] = best
                st["parent"] = parent
                senders = ctx.neighbors
        blocking = st["blocking"]
        for u in senders:
            if self._blocks(st, u):
                blocking.add(u)
            else:
                blocking.discard(u)

    def step(self, ctx, st, inbox, rnd, rng):
        idw = self.idw
        nbr = st["nbr"]
        done_received = False
        senders = []
        for u, msg in inbox.items():
            vals = msg.values
            if vals[0] == _STATUS:
                lu = vals[1]
                old = nbr.get(u)
                du = old[1] if old is not None and old[0] == lu else rnd - 2
                nbr[u] = (lu, du, vals[2], vals[3] if len(vals) == 4 else 0)
                senders.append(u)
            else:
                done_received = True

        self._update(ctx, st, senders)
        complete = not st["blocking"]
        out = {}

        if done_received or (st["lead"] == ctx.node and complete):
            lead, dist = st["lead"], st["dist"]
            children = [
                u for u, (lu, du, child, _cu) in nbr.items() if child and lu == lead and du == dist + 1
            ]
            st["children"] = tuple(sorted(children))
            done = Msg((_DONE, 1))
            for c in children:
                out[c] = done
            return st, out, True

        # The parent changes only with the leader, and the distance never
        # changes without it.
        status = (st["lead"], st["parent"], int(complete))
        if status != st["sent"]:
            sent, st["sent"] = st["sent"], status
            # Only the parent needs the certificate bit; the other statuses
            # leave it out, one bit fewer each.
            full = Msg((_STATUS, 1), (status[0], idw), (1, 1), (status[2], 1))
            if sent is not None and sent[:2] == status[:2]:
                # Only the certificate bit changed: the other neighbors
                # already hold this exact short status.
                out[st["parent"]] = full
                return st, out, False, None
            short = Msg((_STATUS, 1), (status[0], idw), (0, 1))
            for u in ctx.neighbors:
                out[u] = full if u == st["parent"] else short
        return st, out, False, None

    def output(self, ctx, st):
        return None if st["parent"] == ctx.node else st["parent"], st["children"]


def elect_leader_and_bfs(graph: BipartiteGraph) -> tuple[Forest, RoundStats]:
    """A BFS forest with one tree per component, rooted at its leader (the
    minimum id).

    The program reads only node ids and graph neighbors and draws no
    randomness, so the forest depends on the graph alone: a pipeline elects
    once and passes the forest to every phase, whatever view it works on."""
    return run(LeaderBfsProgram(), graph, phase="elect-bfs")


# ---------------------------------------------------------------------------
# Pipelined aggregation over a tree
# ---------------------------------------------------------------------------

_COMBINERS = {
    "sum": lambda a, b: a + b,
    "min": min,
    "max": max,
}


class AggregateProgram(NodeProgram):
    """Convergecast of k values with pipelining, then pipelined broadcast.

    Input per node: (parent, children, values). A node sends value j to its
    parent, combined with its subtree's, once every child has sent its
    value j, at most one value per step; the root broadcasts each result as
    soon as it is final, and every node forwards the results it receives.
    An edge delivers messages in the order they were sent, so a message
    holds only the value: its index is the count of values before it.

    Schedule: a message takes P = frame_count(value_width, B) rounds on an
    edge (a leaf sends one value per step; later ones queue behind the
    first). A node whose subtree has height s delivers value j to its
    parent in round (s + j + 1)·P + 1, so for k >= 1 a tree of height
    H >= 1 finishes in (2H + k - 1)·P + 1 rounds and a lone node in one.
    """

    def __init__(self, k: int, combine: str, value_width: int):
        if combine not in _COMBINERS:
            raise ValueError(f"unknown combine {combine!r}")
        self.k = k
        self.fn = _COMBINERS[combine]
        self.vw = value_width

    def init(self, ctx):
        parent, children, values = ctx.input
        if len(values) != self.k:
            raise ValueError("every node must hold exactly k values")
        return {
            "parent": parent,
            "children": children,
            "partial": list(values),
            "heard": dict.fromkeys(children, 0),  # values received per child
            "sent": 0,  # values sent up, or at the root broadcast
            # A lone root holds every result at once.
            "results": list(values) if parent is None and not children else [],
        }

    def step(self, ctx, st, inbox, rnd, rng):
        parent, partial, heard, results = st["parent"], st["partial"], st["heard"], st["results"]
        out = {}
        for u, msg in inbox.items():
            if u == parent:
                results.append(msg.values[0])
                for c in st["children"]:
                    out[c] = msg
            else:
                j = heard[u]
                heard[u] = j + 1
                partial[j] = self.fn(partial[j], msg.values[0])

        ready = min(heard.values(), default=self.k)
        j = st["sent"]
        if j < ready and len(results) < self.k:
            st["sent"] = j + 1
            msg = Msg((partial[j], self.vw))
            if parent is not None:
                out[parent] = msg
            else:
                results.append(partial[j])
                for c in st["children"]:
                    out[c] = msg
        if len(results) == self.k:
            return st, out, True
        # A value already complete goes out next step; otherwise wait for mail.
        return st, out, False, rnd + 1 if st["sent"] < ready else None

    def output(self, ctx, st):
        return tuple(st["results"])


def pipelined_aggregate(
    graph: BipartiteGraph,
    forest: Forest,
    values: dict[int, tuple],
    *,
    combine: str,
    value_width: int,
    phase: str,
) -> tuple[dict[int, tuple], RoundStats]:
    """Aggregate k values per node over each tree of `forest` and broadcast
    the treewise results back to every node."""
    k = len(next(iter(values.values()), ()))
    inputs = {v: forest[v] + (values[v],) for v in graph.node_ids}
    program = AggregateProgram(k, combine, value_width)
    return run(program, graph, inputs=inputs, phase=phase)


# ---------------------------------------------------------------------------
# Alternating-path BFS
# ---------------------------------------------------------------------------

@dataclass
class AlternatingLayering:
    """Shortest alternating-path levels from the free in-view A-side nodes,
    and the predecessors the BFS learned: `preds` maps each levelled node
    to the sorted nodes one level down that offered to it.

    Nodes absent from `level` were not reached within the depth limit.
    """

    level: dict[int, int]
    preds: dict[int, tuple[int, ...]]

    @classmethod
    def from_outputs(cls, outputs: dict[int, tuple]) -> "AlternatingLayering":
        """The layering held by program outputs that start with (level or
        None, predecessors)."""
        level = {v: o[0] for v, o in outputs.items() if o[0] is not None}
        return cls(level, {v: outputs[v][1] for v in level})

    def witnesses(self, view: SubgraphView, matching: Matching) -> Iterator[tuple[int, int]]:
        """(node, level) for each free in-view B-node at an odd level: each
        ends an augmenting path of exactly that length."""
        side = view.base.side
        for v, lv in self.level.items():
            if (
                lv % 2 == 1
                and side[v] == SIDE_B
                and not matching.is_matched(v)
                and view.contains_node(v)
            ):
                yield v, lv

    def require_no_witness_below(self, view: SubgraphView, matching: Matching, d: int) -> None:
        """Raise ShorterPathExists on a witness at a level below `d`: an
        augmenting path shorter than the caller assumed."""
        for v, lv in self.witnesses(view, matching):
            if lv < d:
                raise ShorterPathExists(f"free B-node {v} at level {lv} < {d}")

    def dag_inputs(self, graph: BipartiteGraph, matching: Matching) -> dict[int, tuple]:
        """Per-node input (partner, level, preds) of the programs that walk
        the levels down."""
        return {
            v: (matching.partner_of(v), self.level.get(v), self.preds.get(v, ()))
            for v in graph.node_ids
        }


def alternating_offers(ctx, partner: int | None) -> list[int]:
    """The neighbors a levelled in-view node below the depth limit offers
    to in an alternating BFS: an A-node its in-view non-matching
    neighbors, a B-node its matching partner. They include every node that
    took its level from this one; the others sit at lower levels or stay
    unlevelled."""
    if ctx.side == SIDE_B:
        return [] if partner is None else [partner]
    return [w for w in ctx.view_neighbors if w != partner]


class AltBfsProgram(NodeProgram):
    """Layered exploration of the orientation that alternates non-matching
    and matching edges, to a fixed depth, in slots of f = frame_count(w, B)
    rounds; an offer carries the sender's count x of alternating paths from
    level 0, capped at 2^w - 1. The BFS's w = 1 makes an offer one bit that
    means only "reached", and f = 1.

    Input per node: its matching partner (or None), where the matching lies
    in the view. Level 0 is exactly the set of free in-view A-nodes, with
    x = 1; they offer in round 1. An in-view node without a level that
    receives offers in round r takes level (r - 1) // f, sums them into its
    x, keeps the senders as its predecessors and, below the depth limit,
    offers onward to its `alternating_offers` in that round. Every
    level-(j - 1) node offered in round (j - 1)·f + 1, so the offers of a
    level-j node land together in round j·f + 1 and the senders are
    exactly its predecessors. The last offers land in round limit·f + 1,
    when every node halts.
    """

    width = 1

    def __init__(self, depth_limit: int):
        self.limit = depth_limit

    def setup(self, n, bandwidth):
        self.f = frame_count(self.width, bandwidth)
        self.end = self.limit * self.f + 1
        self.cap = (1 << self.width) - 1
        # The BFS's every offer: built once, not once per offering node.
        self.capped = Msg((self.cap, self.width))

    def init(self, ctx):
        partner = ctx.input
        level = 0 if ctx.in_view and ctx.side == SIDE_A and partner is None else None
        return {"partner": partner, "level": level, "x": int(level == 0), "preds": ()}

    def step(self, ctx, st, inbox, rnd, rng):
        out = {}
        if st["level"] is None:
            if inbox and ctx.in_view:
                st["level"] = (rnd - 1) // self.f
                st["x"] = sum(msg.values[0] for msg in inbox.values())
                st["preds"] = tuple(inbox)
                self._offer(ctx, st, out)
        elif rnd == 1:
            self._offer(ctx, st, out)
        return st, out, rnd >= self.end, self.end

    def _offer(self, ctx, st, out):
        if st["level"] < self.limit:
            x = st["x"]
            msg = self.capped if x >= self.cap else Msg((x, self.width))
            for w in alternating_offers(ctx, st["partner"]):
                out[w] = msg

    def output(self, ctx, st):
        return st["level"], st["preds"]


def alternating_bfs(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    depth_limit: int,
    *,
    phase: str = "alt-bfs",
) -> tuple[AlternatingLayering, RoundStats]:
    """Distributed alternating BFS in depth_limit + 1 rounds; levels match
    the sequential oracle."""
    inputs = {v: matching.partner_of(v) for v in graph.node_ids}
    outputs, stats = run(AltBfsProgram(depth_limit), graph, view, inputs=inputs, phase=phase)
    return AlternatingLayering.from_outputs(outputs), stats


def witness_check(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    forest: Forest,
    d: int,
    depth: int,
) -> tuple[int | None, AlternatingLayering, RoundStats]:
    """The length of the shortest augmenting path of length <= `depth`, or
    None when there is none, known to every node. `d` >= 1 is the length
    the caller expects at least (a shorter path is still reported).

    The check deepens its alternating BFS only while the BFS keeps
    growing: attempt t = min(d, depth), then t <- min(2t, depth). Each
    attempt is a BFS to depth t and one min over `forest`, to which every
    free in-view B-node at an odd level <= t sends its level, every other
    node at level t (the live frontier) sends t + 1 and the rest a
    sentinel. A min below t + 1 is the answer; t + 1 doubles t below
    `depth`; the sentinel, or t + 1 at `depth`, is None. Levels <= t do not
    depend on the depth limit, so the returned layering (the last
    attempt's) agrees with one to `depth` up to its own depth. A None
    check that ended on the sentinel left no node at level t, hence none
    deeper: its layering is the full alternating reachability, and so is
    that of any check to depth >= n - 1."""
    if d < 1:
        raise InvalidParam("d must be >= 1")  # t = 0 would never double
    stats = RoundStats()
    width = id_bits(graph.n) + 2
    sentinel = (1 << width) - 1
    t = min(d, depth)
    while True:
        layering, bfs_stats = alternating_bfs(graph, view, matching, t, phase="reachability")
        stats.add_sequential(bfs_stats)
        values = {v: (sentinel,) for v in graph.node_ids}
        for v, lv in layering.level.items():
            if lv == t:
                values[v] = (t + 1,)
        for v, lv in layering.witnesses(view, matching):
            values[v] = (lv,)
        mins, agg_stats = pipelined_aggregate(
            graph,
            forest,
            values,
            combine="min",
            value_width=width,
            phase="witness-check",
        )
        stats.add_sequential(agg_stats)
        shortest = min((mins[v][0] for v in graph.node_ids), default=sentinel)
        # A frontier at level t has t + 1 <= n below the sentinel, but t
        # itself may exceed it on a tiny graph: test the sentinel first.
        if shortest == sentinel:
            return None, layering, stats
        if shortest <= t:
            return shortest, layering, stats
        if t == depth:
            return None, layering, stats
        t = min(2 * t, depth)

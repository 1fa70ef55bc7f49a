"""Distributed building blocks: leader election with BFS tree, pipelined
tree aggregation, and parallel alternating-path BFS.

All of these are node programs for the round-synchronous engine. The leader
election floods the minimum id and detects termination with an echo whose
certificates are keyed to the (leader, parent) a node currently holds: a
certificate for a non-minimal leader can never complete because the true
minimum node never adopts a larger id, so the first DONE broadcast is
always genuine. Nodes hold no distance: a node announces a leader in the
round it adopts it, so it adopts each leader from the neighbors one hop
closer to it. Only the local minima, the nodes without a smaller-id
neighbor, start a flood: every node knows its neighbors' ids before round 1
(the KT1 model), and any other node can never lead. On a path whose ids run
in path order that leaves one flood and O(n log n) bits instead of
Theta(n^2); local minima whose ids fall along a long path still cost
Theta(n) leader changes per node.

A forest maps each node to its parent (None at a root) and its children,
which the nodes themselves learned. That is all aggregation reads, so it
runs over any spanning forest a protocol built, such as the per-cluster
trees of the randomized pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator

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

    A node with a smaller-id neighbor never announces itself: it cannot be
    its component's minimum, so it cannot lead, and it sleeps until it
    adopts a leader from a neighbor. Only the local minima flood, each from
    round 1 at distance 0, so what follows holds for every leader a node
    can hear of. The component minimum is a local minimum, and its flood,
    the echo and the DONE wave are those of an election in which every
    node starts a flood: the forest and the round count do not depend on
    the silent start. It saves the floods of every node that is not a
    local minimum; the id orders that stay expensive are those whose local
    minima fall along a long path, with Theta(n) leader changes per node.

    A status is (tag, leader, child flag), plus the certificate bit to the
    parent only: id_bits + 2 or + 3 bits, one frame at every B >= the
    floor ceil(log2 n) + 4, since id_bits(n) <= ceil(log2 n) + 1.

    Nodes hold no distance, because the timing implies it. Every message
    is one frame and an edge carries at most one per round, so a message
    sent in round r arrives in round r + 1; a node sends its status in the
    round it adopts a leader; and leaders only fall. So a neighbor that
    reports this node's leader adopted it at most one round later, and a
    child exactly one round later. And every sender that makes a node
    adopt a leader names that leader for the first time and adopted it one
    round earlier: had it adopted it earlier, the node would have heard it
    earlier. So a node at distance h from L adopts it in round h + 1, from
    the senders one hop closer to L, and takes the smallest-id one as its
    parent. Later statuses naming the same leader change only the child
    flag or the certificate bit."""

    def __init__(self, minima):
        self.minima = self.start = minima  # they alone announce themselves

    def setup(self, n, bandwidth):
        idw = id_bits(n)
        # The status of (leader, child flag[, certificate bit]) and the DONE,
        # each built once per run, not once per send.
        self.status_msg = cache(lambda *values: Msg((_STATUS, 1), *zip(values, (idw, 1, 1))))
        self.done = Msg((_DONE, 1))

    def init(self, ctx):
        # A node with a smaller-id neighbor can never lead, so it never
        # announces itself: it holds that status as already sent. Its
        # certificate stays incomplete while it leads itself, since that
        # neighbor never reports it.
        silent = ctx.node not in self.minima
        return {
            "lead": ctx.node,
            "parent": ctx.node,  # own id encodes "no parent"
            "nbr": {},
            # The neighbors that keep this node's certificate incomplete.
            "blocking": set(ctx.neighbors),
            "sent": (ctx.node, ctx.node, 0) if silent else None,
            "children": (),
        }

    @staticmethod
    def _blocks(st, u):
        """Whether neighbor u has not yet reported this node's leader, or
        is a child whose certificate is incomplete."""
        entry = st["nbr"].get(u)
        if entry is None:
            return True
        lu, child, cu = entry
        return lu != st["lead"] or (child and not cu)

    def _update(self, ctx, st, senders):
        """Fold in the statuses the senders just sent. After every step no
        neighbor names a smaller leader than this node holds, so a smaller
        one comes from a sender; and only the senders' standing changes
        unless this node's leader does."""
        nbr = st["nbr"]
        if senders:
            # Every sender naming the smallest leader is one hop closer to
            # it; the parent is the smallest id among them.
            lead, parent = min((nbr[u][0], u) for u in senders)
            if lead < st["lead"]:
                st["lead"], st["parent"] = lead, parent
                senders = ctx.neighbors
        blocking = st["blocking"]
        for u in senders:
            if self._blocks(st, u):
                blocking.add(u)
            else:
                blocking.discard(u)

    def step(self, ctx, st, inbox, rnd, rng):
        nbr = st["nbr"]
        done_received = False
        senders = []
        for u, msg in inbox.items():
            vals = msg.values
            if vals[0] == _STATUS:
                nbr[u] = (vals[1], vals[2], vals[3] if len(vals) == 4 else 0)
                senders.append(u)
            else:
                done_received = True

        self._update(ctx, st, senders)
        complete = not st["blocking"]
        if done_received or (st["lead"] == ctx.node and complete):
            lead = st["lead"]
            children = [u for u, (lu, child, _cu) in nbr.items() if child and lu == lead]
            st["children"] = tuple(sorted(children))
            return st, dict.fromkeys(children, self.done), True

        # The parent changes only with the leader.
        out = {}
        status = (st["lead"], st["parent"], int(complete))
        if status != st["sent"]:
            sent, st["sent"] = st["sent"], status
            # Only the parent needs the certificate bit; the other statuses
            # leave it out, one bit fewer each.
            full = self.status_msg(status[0], 1, status[2])
            if sent is not None and sent[:2] == status[:2]:
                # Only the certificate bit changed: the other neighbors
                # already hold this exact short status.
                out[st["parent"]] = full
                return st, out, False, None
            short = self.status_msg(status[0], 0)
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
    minima = {v for v, adj in graph.adjacency.items() if min(adj, default=v) >= v}
    return run(LeaderBfsProgram(minima), graph, phase="elect-bfs")


# ---------------------------------------------------------------------------
# Pipelined aggregation over a tree
# ---------------------------------------------------------------------------

_COMBINERS = {
    "sum": lambda a, b: a + b,
    "min": min,
    "max": max,
}


class AggregateProgram(NodeProgram):
    """Convergecast of k values with pipelining, then a broadcast of one
    answer computed from the k totals.

    Each node holds its `forest` entry (parent, children) and its k
    `values`; the childless nodes start. A node sends value j to its
    parent, combined with its subtree's, once every child has sent its
    value j, at most one value per step. An edge delivers messages in the
    order they were sent, so a message holds only the value: its index is
    the count of values before it. The root applies `answer` to its totals
    (by default, at k = 1, it is the total) and sends it down the tree.

    Schedule: a value takes P = frame_count(value_width, B) rounds on an
    edge, the answer Q = frame_count(answer_width, B). A node whose
    subtree has height s delivers value j to its parent in round
    (s + j + 1)·P + 1, so a tree of height H >= 1 finishes in
    (H + k - 1)·P + H·Q + 1 rounds, a lone node in one, and each of its
    edges carries k·value_width + answer_width bits.
    """

    def __init__(self, forest, values, combine, value_width, answer=None, answer_width=None):
        k = len(next(iter(values.values()), ()))
        if combine not in _COMBINERS:
            raise ValueError(f"unknown combine {combine!r}")
        if answer is None and k > 1:
            raise InvalidParam("an aggregate of k > 1 values needs an answer")
        self.forest, self.values = forest, values
        self.start = [v for v, (_, children) in forest.items() if not children]
        self.k = k
        self.fn = _COMBINERS[combine]
        self.vw = value_width
        self.answer = answer or (lambda totals: totals[0])
        self.aw = value_width if answer_width is None else answer_width

    def init(self, ctx):
        parent, children = self.forest[ctx.node]
        values = self.values[ctx.node]
        if len(values) != self.k:
            raise ValueError("every node must hold exactly k values")
        return {
            "parent": parent,
            "children": children,
            "partial": list(values),
            "heard": dict.fromkeys(children, 0),  # values received per child
            "sent": 0,  # values sent up
        }

    def step(self, ctx, st, inbox, rnd, rng):
        parent, partial, heard = st["parent"], st["partial"], st["heard"]
        msg = inbox.get(parent)  # a parent sends only the answer
        if msg is None:
            for u, value in inbox.items():
                j = heard[u]
                heard[u] = j + 1
                partial[j] = self.fn(partial[j], value.values[0])
            ready = min(heard.values(), default=self.k)
            if parent is not None:
                j, out = st["sent"], {}
                if j < ready:
                    out[parent] = Msg((partial[j], self.vw))
                    st["sent"] = j = j + 1
                # A value already complete goes out next step; otherwise wait for mail.
                return st, out, False, rnd + 1 if j < ready else None
            if ready < self.k:
                return st, {}, False, None
            msg = Msg((self.answer(partial), self.aw))
        st["answer"] = msg.values[0]
        return st, dict.fromkeys(st["children"], msg), True

    def output(self, ctx, st):
        return st["answer"]


def pipelined_aggregate(
    graph: BipartiteGraph,
    forest: Forest,
    values: dict[int, tuple],
    *,
    combine: str,
    value_width: int,
    phase: str,
    answer: Callable[[list[int]], int] | None = None,
    answer_width: int | None = None,
) -> tuple[dict[int, int], RoundStats]:
    """Aggregate k values per node over each tree of `forest`; every node
    learns `answer` of its tree's totals, at `answer_width` bits (at k = 1 by
    default the total, at `value_width`). Every caller in `bvc` needs at most
    ceil(log2 n) + 3 bits for either, so P = Q = 1 at every B >= the floor."""
    program = AggregateProgram(forest, values, combine, value_width, answer, answer_width)
    return run(program, graph, phase=phase)


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

    Level 0, `roots`, is exactly the set of free in-view A-nodes of
    `matching`, with x = 1; they offer in round 1, so below a positive
    depth limit those with an in-view neighbor start. An in-view node
    without a level that receives offers in round r takes level
    (r - 1) // f, sums them into its x, keeps the senders as its
    predecessors and, below the depth limit, offers onward to its
    `alternating_offers` in that round. Every
    level-(j - 1) node offered in round (j - 1)·f + 1, so the offers of a
    level-j node land together in round j·f + 1 and the senders are
    exactly its predecessors. The last offers land in round limit·f + 1,
    when the run ends.
    """

    width = 1

    def __init__(self, depth_limit: int, matching: Matching, view: SubgraphView):
        self.limit = depth_limit
        self.partner = partner = matching.partner
        side, ctxs = view.base.side, view.contexts
        roots = (v for v in view.in_nodes if side[v] == SIDE_A and v not in partner)
        self.roots = dict.fromkeys(roots)  # level 0, in view order and as a set for `init`
        self.start = [v for v in self.roots if depth_limit > 0 and ctxs[v].view_neighbors]

    def setup(self, n, bandwidth):
        self.f = frame_count(self.width, bandwidth)
        self.end = self.limit * self.f + 1
        self.cap = (1 << self.width) - 1
        # The BFS's every offer: built once, not once per offering node.
        self.capped = Msg((self.cap, self.width))

    def init(self, ctx):
        partner = self.partner.get(ctx.node)
        level = 0 if ctx.node in self.roots else None
        return {"partner": partner, "level": level, "x": int(level == 0), "preds": ()}

    def step(self, ctx, st, inbox, rnd, rng):
        out = {}
        if st["level"] is None:
            # Offers reach only in-view nodes.
            if inbox:
                st["level"] = (rnd - 1) // self.f
                st["x"] = sum(msg.values[0] for msg in inbox.values())
                st["preds"] = tuple(inbox)
                self._offer(ctx, st, out)
        elif rnd == 1:
            self._offer(ctx, st, out)
        return st, out, False, None

    def _offer(self, ctx, st, out):
        if st["level"] < self.limit:
            x = st["x"]
            msg = self.capped if x >= self.cap else Msg((x, self.width))
            for w in alternating_offers(ctx, st["partner"]):
                out[w] = msg

    def output(self, ctx, st):
        return st["level"], st["preds"]

    def layering(self, outputs: dict[int, tuple]) -> AlternatingLayering:
        """The run's layering, read off its outputs: every root is at level
        0, also one that never stepped and so has no output."""
        level = dict.fromkeys(self.roots, 0)
        preds = dict.fromkeys(self.roots, ())
        for v, (lv, pr, *_) in outputs.items():
            if lv is not None:
                level[v], preds[v] = lv, pr
        return AlternatingLayering(level, preds)


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
    program = AltBfsProgram(depth_limit, matching, view)
    outputs, stats = run(program, graph, view, phase=phase)
    return program.layering(outputs), stats


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
    `depth`; the sentinel, or t + 1 at `depth`, is None. Every node knows
    t, so values take w = bitlength(t + 2) bits and the sentinel is
    2^w - 1 > t + 1; pipelines cap `depth` at n + 1, so w <= ceil(log2 n) + 3
    and P = Q = 1 at the floor. Levels <= t do not depend on the depth
    limit, so the returned layering (the last attempt's) agrees with one to
    `depth` up to its own depth. A None check that ended on the sentinel
    left no node at level t, hence none deeper: its layering is the full
    alternating reachability, and so is that of any check to depth >= n - 1."""
    if d < 1:
        raise InvalidParam("d must be >= 1")  # t = 0 would never double
    stats = RoundStats()
    t = min(d, depth)
    while True:
        layering, bfs_stats = alternating_bfs(graph, view, matching, t, phase="reachability")
        stats.add_sequential(bfs_stats)
        width = (t + 2).bit_length()
        sentinel = (1 << width) - 1
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
        shortest = min(mins.values(), default=sentinel)
        if shortest <= t:
            return shortest, layering, stats
        if shortest == sentinel or t == depth:
            return None, layering, stats
        t = min(2 * t, depth)

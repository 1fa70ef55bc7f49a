"""Distributed building blocks: leader election with BFS tree, pipelined
tree aggregation, and parallel alternating-path BFS.

All of these are node programs for the round-synchronous engine. The leader
election floods the minimum id together with hop distances and detects
termination with an echo whose certificates are keyed to the exact
(leader, distance, parent) a node currently holds: a certificate for a
non-minimal leader can never complete because the true minimum node never
adopts a larger id, so the first DONE broadcast is always genuine.

A tree is its root, each node's parent and depth, and each node's
children, which the nodes themselves learned: aggregation needs only the
parent and children, so it runs over any spanning tree a protocol built,
such as the per-cluster trees of the randomized pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .graph import SIDE_A, SIDE_B, BipartiteGraph, Matching, SubgraphView
from .runtime import Msg, NodeProgram, RoundStats, id_bits, run

INF = math.inf

_STATUS = 0
_DONE = 1


@dataclass
class BfsTree:
    root: int
    parent: dict[int, int | None]
    depth: dict[int, int]
    children: dict[int, tuple[int, ...]]


@dataclass
class BfsForest:
    """Per-component BFS trees."""

    trees: dict[int, BfsTree]
    root_of: dict[int, int]

    def tree_of(self, v: int) -> BfsTree:
        return self.trees[self.root_of[v]]


class LeaderBfsProgram(NodeProgram):
    """Min-id leader election with BFS tree, echo termination, and a final
    DONE broadcast down the tree. Each node learns its children from the
    child flag in its neighbors' statuses."""

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)

    def init(self, ctx):
        return {
            "lead": ctx.node,
            "dist": 0,
            "parent": ctx.node,  # own id encodes "no parent"
            "complete": False,
            "nbr": {},
            "sent": None,
            "children": (),
        }

    def _recompute(self, ctx, st):
        nbr = st["nbr"]
        if nbr:
            # The parent is the smallest id among the best candidates, and
            # changes only on a strict improvement.
            best, parent = min(((lu, du + 1), u) for u, (lu, du, _c, _cu) in nbr.items())
            if best < (st["lead"], st["dist"]):
                st["lead"], st["dist"] = best
                st["parent"] = parent
        lead, dist = st["lead"], st["dist"]
        children = [
            u for u, (lu, du, child, _cu) in nbr.items() if child and lu == lead and du == dist + 1
        ]
        resolved = all(
            u in nbr and nbr[u][0] == lead and nbr[u][1] <= dist + 1
            for u in ctx.neighbors
        )
        st["complete"] = resolved and all(nbr[c][3] for c in children)
        return children

    def step(self, ctx, st, inbox, rnd, rng):
        idw = self.idw
        done_received = False
        for u, msg in inbox.items():
            vals = msg.values
            if vals[0] == _STATUS:
                st["nbr"][u] = vals[1:] if len(vals) == 5 else vals[1:] + (0,)
            else:
                done_received = True

        children = self._recompute(ctx, st)
        out = {}

        if done_received or (st["lead"] == ctx.node and st["complete"]):
            st["children"] = tuple(sorted(children))
            done = Msg((_DONE, 1))
            for c in children:
                out[c] = done
            return st, out, True

        status = (st["lead"], st["dist"], st["parent"], int(st["complete"]))
        if status != st["sent"]:
            st["sent"] = status
            # Only the parent needs the certificate fields; keeping the
            # other statuses narrow lets every frame fit the bandwidth.
            short = Msg((_STATUS, 1), (status[0], idw), (status[1], idw), (0, 1))
            full = Msg(
                (_STATUS, 1), (status[0], idw), (status[1], idw), (1, 1), (status[3], 1)
            )
            for u in ctx.neighbors:
                out[u] = full if u == st["parent"] else short
        return st, out, False, None

    def output(self, ctx, st):
        return {
            "leader": st["lead"],
            "parent": None if st["parent"] == ctx.node else st["parent"],
            "depth": st["dist"],
            "children": st["children"],
        }


def elect_leader_and_bfs(graph: BipartiteGraph) -> tuple[BfsForest, RoundStats]:
    """Per-component leader (the minimum id) and BFS tree.

    The program reads only node ids and graph neighbors and draws no
    randomness, so the forest depends on the graph alone: a pipeline elects
    once and passes the forest to every phase, whatever view it works on."""
    outputs, stats = run(LeaderBfsProgram(), graph, phase="elect-bfs")
    trees: dict[int, BfsTree] = {}
    root_of: dict[int, int] = {}
    for v, out in outputs.items():
        root = out["leader"]
        root_of[v] = root
        tree = trees.get(root)
        if tree is None:
            tree = trees[root] = BfsTree(root, {}, {}, {})
        tree.parent[v] = out["parent"]
        tree.depth[v] = out["depth"]
        tree.children[v] = out["children"]
    return BfsForest(trees, root_of), stats


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
    forest: BfsForest,
    values: dict[int, tuple],
    *,
    combine: str = "sum",
    value_width: int | None = None,
    view: SubgraphView | None = None,
    phase: str = "aggregate",
) -> tuple[dict[int, tuple], RoundStats]:
    """Aggregate k values per node over each component's tree in `forest`
    and broadcast the componentwise results back to every node."""
    k = len(next(iter(values.values()), ()))
    vw = value_width if value_width is not None else 2 * id_bits(graph.n)
    inputs = {}
    for v in graph.node_ids:
        tree = forest.tree_of(v)
        inputs[v] = (tree.parent[v], tree.children[v], values[v])
    program = AggregateProgram(k, combine, vw)
    return run(program, graph, view, inputs=inputs, phase=phase)


# ---------------------------------------------------------------------------
# Alternating-path BFS
# ---------------------------------------------------------------------------

@dataclass
class AlternatingLayering:
    """Shortest alternating-path levels from the free in-view A-side nodes.

    Nodes absent from `level` were not reached within the depth limit.
    """

    level: dict[int, int]
    neighbor_levels: dict[int, dict[int, int | None]]

    def witnesses(
        self, view: SubgraphView, matching: Matching, below: int | float = INF
    ) -> Iterator[tuple[int, int]]:
        """(node, level) for each free in-view B-node at an odd level below
        `below`: each ends an augmenting path of exactly that length."""
        side = view.base.side
        for v, lv in self.level.items():
            if (
                lv % 2 == 1
                and lv < below
                and side[v] == SIDE_B
                and not matching.is_matched(v)
                and view.contains_node(v)
            ):
                yield v, lv

    def dag_inputs(self, graph: BipartiteGraph, matching: Matching) -> dict[int, tuple]:
        """Per-node input (partner, level, nbr_levels) of the programs that
        walk the level DAG; see `level_dag`."""
        return {
            v: (matching.partner_of(v), self.level.get(v), self.neighbor_levels.get(v, {}))
            for v in graph.node_ids
        }


def level_dag(ctx, d: int) -> tuple[list[int], list[int]]:
    """A node's sorted predecessors and successors in the level DAG of an
    alternating layering, from its (partner, level, nbr_levels) input.

    Edges join consecutive levels and alternate: a non-matching edge from
    an even level up to an odd one, the matching edge from an odd level up
    to an even one. Nodes at level d or above get no successors."""
    partner, level, nbr_levels = ctx.input
    in_dag = []
    out_dag = []
    if level is not None and ctx.in_view:
        up_via_partner = level % 2 == 1
        for u in ctx.view_neighbors:
            lu = nbr_levels.get(u)
            if lu == level - 1 and (u == partner) != up_via_partner:
                in_dag.append(u)
            elif lu == level + 1 and (u == partner) == up_via_partner and level < d:
                out_dag.append(u)
    return sorted(in_dag), sorted(out_dag)


class AltBfsProgram(NodeProgram):
    """Layered exploration of the orientation that alternates non-matching
    and matching edges, to a fixed depth, followed by one exchange in which
    every node announces its level to all neighbors.

    Input per node: its matching partner (or None; callers pass None when
    the matching edge is not in the current view). Level 0 is exactly the
    set of free in-view A-nodes. One BFS hop takes one round: the level
    message always fits a single frame because its width is at most
    id_bits(n) + 3 <= bandwidth.
    """

    def __init__(self, depth_limit: int):
        self.limit = depth_limit
        self.lw = id_bits(depth_limit + 3)

    def init(self, ctx):
        partner = ctx.input
        level = 0 if ctx.in_view and ctx.side == SIDE_A and partner is None else None
        return {"partner": partner, "level": level, "nbr_levels": {}, "announced": False}

    def step(self, ctx, st, inbox, rnd, rng):
        lw = self.lw
        announce_round = self.limit + 3
        out = {}

        if rnd >= announce_round:
            for u, msg in inbox.items():
                lv = msg.values[1]
                st["nbr_levels"][u] = None if lv == self.limit + 1 else lv
            if not st["announced"]:
                st["announced"] = True
                lv = st["level"] if st["level"] is not None else self.limit + 1
                msg = Msg((1, 1), (lv, lw))
                for u in ctx.neighbors:
                    out[u] = msg
                if not ctx.neighbors:
                    return st, out, True
                return st, out, False, None
            if len(st["nbr_levels"]) == len(ctx.neighbors):
                return st, out, True
            return st, out, False, None

        for u, msg in inbox.items():
            if msg.values[0] != 0 or st["level"] is not None or not ctx.in_view:
                continue
            sender_level = msg.values[1]
            if sender_level % 2 == 0:
                # Offer over a non-matching in-view edge onto a B-node.
                if ctx.side != SIDE_B or st["partner"] == u or u not in ctx.view_neighbors:
                    continue
                st["level"] = sender_level + 1
                if st["partner"] is not None and st["level"] < self.limit:
                    out[st["partner"]] = Msg((0, 1), (st["level"], lw))
            else:
                # Offer over the matching edge onto this node.
                if st["partner"] != u:
                    continue
                st["level"] = sender_level + 1
                if st["level"] < self.limit:
                    msg_out = Msg((0, 1), (st["level"], lw))
                    for w in ctx.view_neighbors:
                        if w != st["partner"]:
                            out[w] = msg_out

        if rnd == 1 and st["level"] == 0 and self.limit > 0:
            msg_out = Msg((0, 1), (0, lw))
            for w in ctx.view_neighbors:
                out[w] = msg_out

        return st, out, False, announce_round if rnd < announce_round else None

    def output(self, ctx, st):
        return {"level": st["level"], "nbr_levels": dict(st["nbr_levels"])}


def alternating_bfs(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    depth_limit: int,
    *,
    phase: str = "alt-bfs",
) -> tuple[AlternatingLayering, RoundStats]:
    """Distributed alternating BFS; levels match the sequential oracle."""
    inputs = {v: matching.partner_of(v) for v in graph.node_ids}
    outputs, stats = run(AltBfsProgram(depth_limit), graph, view, inputs=inputs, phase=phase)
    level = {v: out["level"] for v, out in outputs.items() if out["level"] is not None}
    nbr = {v: out["nbr_levels"] for v, out in outputs.items()}
    return AlternatingLayering(level, nbr), stats


def witness_check(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    forest: BfsForest,
    depth: int,
) -> tuple[int | None, AlternatingLayering, RoundStats]:
    """Layering to `depth` plus an aggregated minimum over the levels of
    free in-view B-nodes: afterwards every node knows the length of the
    shortest augmenting path of length <= depth, or that none exists
    (returned as None). Any depth >= n - 1 covers every simple path, so
    its layering is the full alternating reachability."""
    stats = RoundStats()
    layering, bfs_stats = alternating_bfs(graph, view, matching, depth, phase="reachability")
    stats.add_sequential(bfs_stats)
    width = id_bits(graph.n) + 2
    sentinel = (1 << width) - 1
    witness_level = dict(layering.witnesses(view, matching))
    values = {v: (witness_level.get(v, sentinel),) for v in graph.node_ids}
    mins, agg_stats = pipelined_aggregate(
        graph,
        forest,
        values,
        combine="min",
        value_width=width,
        view=view,
        phase="witness-check",
    )
    stats.add_sequential(agg_stats)
    shortest = min((mins[v][0] for v in graph.node_ids), default=sentinel)
    return (None if shortest == sentinel else shortest), layering, stats

"""Counting and covering short augmenting paths.

Given a matching whose shortest augmenting path has odd length d, the
number of such paths through a node u is x_u * s_u: x_u counts the
alternating paths from a free A-node down to u, s_u those from u on to a
free B-node at level d (the prefix-times-suffix identity of shortest-path
counting). A matching edge needs no count of its own: every path through
one end crosses the edge, so both ends hold its count. Two fixed-schedule
sweeps compute them: the prefix sweep is the shared alternating BFS
(`AltBfsProgram`) run at the count's width, whose offers carry x and whose
receivers sum it over their predecessors, and a bottom-up suffix sweep
sums s over the successors. Counts are exact big integers, and messages
carry them alone at the protocol width bitlength(Delta^d) and fragment
accordingly: the round tells a node which sweep a message belongs to.

Thresholded selection then removes heavy nodes, each with its partner, in
halving phases, which realizes a factor-2-relaxed greedy set cover over
the paths; iterating over d = 1, 3, ..., 2k-1 leaves no augmenting path of
length at most 2k-1 in the remaining induced subgraph. Whether a path
remains is decided by `witness_check` alone: after each threshold phase
at depth d, and before each repair stage at depth 2k-1, where the repair
jumps to the shortest remaining length, so a matching with no augmenting
path of length at most 2k-1 costs one check and no count. The
deterministic low-diameter pipeline combines this repair with an
approximation-provider matching and the layered cover construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParam, ProgramFault
from .graph import BipartiteGraph, Matching, SubgraphView, VertexCover, ceil_log2
from .konig import koenig_approx_cover
from .matching import approx_matching, ceil_ratio, max_useful_k
from .primitives import (
    AlternatingLayering,
    AltBfsProgram,
    Forest,
    elect_leader_and_bfs,
    pipelined_aggregate,
    witness_check,
)
from .runtime import Msg, NodeProgram, RoundStats, id_bits, run

INF = math.inf


@dataclass
class PathCounts:
    """Exact counts of shortest (length-d) augmenting paths: `count[v]`
    paths run through each node v of the layering, at `level[v]`. Both ends
    of a matching edge hold the edge's count, since a matched A-node's only
    predecessor and a matched B-node's only successor is its partner."""

    level: dict[int, int]
    count: dict[int, int]


class CountSweepProgram(AltBfsProgram):
    """The prefix sweep, which is the alternating BFS to depth d at the
    count width w = bitlength(delta^d), then the suffix sweep on the same
    slots of f = frame_count(w, B) rounds.

    Prefix: every node takes its level, its predecessors and x as
    `AltBfsProgram` does, and every prefix message arrives by round
    d*f + 1. The cap 2^w - 1 never binds: x, s and x*s count alternating
    paths of length <= d, each at most delta^d. Suffix: a level-d node
    starts with s = 1 if it is free, else 0; a node at level j >= 1 sends
    s to its predecessors in round (2d - j)*f + 1, and a node's s is the
    sum of what it receives, all by its own send round. Every suffix
    message arrives after round d*f + 1, so the round tells a levelled
    node which sweep a message belongs to. The run ends in round
    2*d*f + 1, and every node outputs (level or None, predecessors, x*s).

    A message is the count alone, sent at the reserved width w whatever
    its value, as real hardware would have to reserve it."""

    def __init__(self, d: int, delta: int, matching: Matching, view: SubgraphView):
        super().__init__(d, matching, view)
        self.width = max(1, (delta**d).bit_length())

    def setup(self, n, bandwidth):
        super().setup(n, bandwidth)
        self.end = 2 * self.limit * self.f + 1

    def init(self, ctx):
        return dict(super().init(ctx), s=0)

    def step(self, ctx, st, inbox, rnd, rng):
        d, f = self.limit, self.f
        if rnd <= d * f + 1:
            out = super().step(ctx, st, inbox, rnd, rng)[1]
            # Level d is odd: a level-d node is a B-node.
            st["s"] = int(st["level"] == d and st["partner"] is None)
        else:
            out = {}
            st["s"] += sum(msg.values[0] for msg in inbox.values())
        # Only a node with predecessors sends s, at its level's round.
        if not st["preds"]:
            return st, out, False, None
        suffix_at = (2 * d - st["level"]) * f + 1
        if rnd == suffix_at:
            msg = Msg((st["s"], self.width))
            for u in st["preds"]:
                out[u] = msg
        return st, out, False, suffix_at if suffix_at > rnd else None

    def output(self, ctx, st):
        return st["level"], st["preds"], st["x"] * st["s"]


def view_max_degree_aggregate(
    graph: BipartiteGraph,
    view: SubgraphView,
    forest: Forest,
) -> tuple[int, RoundStats]:
    """All nodes learn the maximum in-view degree via a pipelined max. A
    degree is at most n - 1, so it fits in id_bits(n) bits."""
    values = {v: (view.view_degree(v),) for v in graph.node_ids}
    maxes, stats = pipelined_aggregate(
        graph,
        forest,
        values,
        combine="max",
        value_width=id_bits(graph.n),
        phase="max-degree",
    )
    return max(maxes.values(), default=0), stats


def count_paths(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    d: int,
    *,
    delta: int,
) -> tuple[PathCounts, RoundStats]:
    """Count the length-d augmenting paths through every node the layering
    reaches, x*s, in one run of `CountSweepProgram`. Requires that no
    shorter augmenting path exists: the prefix sweep's layering raises
    ShorterPathExists on a witness below d, as every caller's layering
    does. `delta` bounds the in-view degree and fixes the count width.

    Round cost: 2*d*ceil(w/B) + 1, where w = bitlength(delta^d) is the
    reserved count width and B the bandwidth. Since
    w <= d*ceil(log2 delta) + 1, each of the 2d slots costs O(d) frames at
    B = Theta(log n), so counting takes O(d^2) rounds."""
    if d <= 0 or d % 2 == 0:
        raise InvalidParam("d must be a positive odd integer")
    program = CountSweepProgram(d, delta, matching, view)
    outputs, stats = run(program, graph, view, phase="count-sweeps")
    layering = program.layering(outputs)
    layering.require_no_witness_below(view, matching, d)
    # A level-0 node that never stepped has no in-view neighbor: no path.
    count = {v: outputs[v][2] if v in outputs else 0 for v in layering.level}
    return PathCounts(layering.level, count), stats


class AnnounceRemovalProgram(NodeProgram):
    """One round: the `removed` nodes, which start, tell every neighbor."""

    end = 1

    def __init__(self, removed):
        self.removed = self.start = removed

    def step(self, ctx, st, inbox, rnd, rng):
        out = dict.fromkeys(ctx.neighbors, Msg((1, 1))) if ctx.node in self.removed else {}
        return st, out, False, None


def _announce_removals(graph, view, removed) -> RoundStats:
    _, stats = run(AnnounceRemovalProgram(removed), graph, view, phase="remove")
    return stats


def cover_short_paths(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    d: int,
    *,
    forest: Forest,
) -> tuple[set[int], AlternatingLayering | None, RoundStats]:
    """Remove a small node set that hits every length-d augmenting path;
    every aggregation runs over the caller's BFS `forest` of the graph.

    Selection runs in halving-threshold phases. Phase i visits the
    positions 0, 1, 3, ..., d, recounting paths before each; at a position
    it removes the nodes at that level whose count reaches delta^d / 2^i,
    with their partners, so parallel selections on one position cover
    disjoint path sets. Level 0 holds the free A-nodes, an odd level below
    d only matched B-nodes (a free one is a shorter path, which the count
    rejects), and a matched B-node at level d completes no path. After
    each phase a `witness_check` to depth d tells every node whether a
    length-d path remains; the first phase with none left ends the loop,
    so a residual without such paths costs one phase that picks nothing,
    and its layering is returned (None on an edgeless view). Every position
    ends in a removal round, also when its batch is empty: no node can see
    that a batch was empty elsewhere.
    """
    stats = RoundStats()
    delta, deg_stats = view_max_degree_aggregate(graph, view, forest)
    stats.add_sequential(deg_stats)
    if delta == 0:
        return set(), None, stats

    removed: set[int] = set()
    residual = view
    m_bar = matching
    threshold_num = delta**d
    phases = ceil_log2(threshold_num) + 1
    positions = [0] + list(range(1, d + 1, 2))

    for i in range(1, phases + 1):
        for pos in positions:
            counts, c_stats = count_paths(graph, residual, m_bar, d, delta=delta)
            stats.add_sequential(c_stats)
            top = max(counts.count.values(), default=0)
            if top << (i - 1) > threshold_num:
                raise ProgramFault(
                    f"count {top} exceeds the phase-{i} invariant delta^d / 2^({i - 1})"
                )

            batch = {
                v
                for v, p in counts.count.items()
                if counts.level[v] == pos and p << i >= threshold_num
            }
            batch |= {m_bar.partner_of(v) for v in batch if m_bar.is_matched(v)}
            stats.add_sequential(_announce_removals(graph, residual, batch))
            if batch:
                removed |= batch
                residual = residual.without_nodes(batch)
                m_bar = m_bar.restricted_to(residual)

        remaining, layering, check_stats = witness_check(graph, residual, m_bar, forest, d, d)
        stats.add_sequential(check_stats)
        if remaining is None:
            break
    else:
        raise ProgramFault("threshold phases ended with paths remaining")

    return removed, layering, stats


@dataclass
class RepairResult:
    s1: set[int]
    per_stage: list[tuple[int, set[int]]]
    layering: AlternatingLayering | None  # the last check's, which found no path


def repair_alpha(k: int, delta_deg: int) -> float:
    """Size coefficient 4k(k+1)(1 + 2k ln Delta) for the removed set."""
    ln_delta = math.log(delta_deg) if delta_deg > 1 else 0.0
    return 4.0 * k * (k + 1) * (1.0 + 2.0 * k * ln_delta)


def repair_matching(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    k: int,
    *,
    forest: Forest,
) -> tuple[RepairResult, Matching, RoundStats]:
    """Delete nodes until the restriction of `matching` to the remaining
    induced subgraph has no augmenting path of length at most 2k - 1.

    Stages run d = 1, 3, ..., 2k - 1 in order. Before each stage one
    `witness_check` over the caller's BFS `forest`, a single BFS to depth
    2k - 1, finds the shortest remaining length l: the stages below l are
    recorded empty, stage l covers all length-l paths, and a check that
    finds none, or stage 2k - 1's closing one, ends the repair; the result
    keeps its layering. Because removals always take out whole matched
    pairs, no new free node ever appears, so no shorter path can appear and
    earlier stages stay discharged. The stages stop at `max_useful_k`; the
    removed set's size bound, `repair_alpha(k, Δ)` times δ·OPT for a
    matching within 1 - δ of maximum, keeps the caller's k."""
    if k < 1:
        raise InvalidParam("k must be >= 1")
    stats = RoundStats()
    top = 2 * min(k, max_useful_k(graph)) - 1

    s1: set[int] = set()
    per_stage = []
    residual = view
    m_bar = matching
    d = 1
    while d <= top:
        shortest, layering, check_stats = witness_check(graph, residual, m_bar, forest, top, top)
        stats.add_sequential(check_stats)
        shortest = top + 2 if shortest is None else shortest
        if shortest < d:
            raise ProgramFault(f"augmenting path of length {shortest} after stage {d - 2}")
        per_stage += [(e, set()) for e in range(d, shortest, 2)]
        d = shortest
        if d > top:
            break
        f_i, layering, c_stats = cover_short_paths(graph, residual, m_bar, d, forest=forest)
        stats.add_sequential(c_stats)
        residual = residual.without_nodes(f_i)
        m_bar = m_bar.restricted_to(residual)
        s1 |= f_i
        per_stage.append((d, f_i))
        for v in f_i:
            p = matching.partner_of(v)
            if p is not None and p not in s1:
                raise ProgramFault(f"matched node {v} removed without partner {p}")
        d += 2

    return RepairResult(s1, per_stage, layering), m_bar, stats


def det_cover_low_diameter(
    graph: BipartiteGraph,
    view: SubgraphView,
    eps: float,
) -> tuple[VertexCover, RoundStats]:
    """Deterministic cover within (1 + eps) of optimal: an approximation
    matching at accuracy eps / (2 * alpha), node repair up to path length
    2k' - 1 with k' = ceil(2 / eps), and the layered cover on the repaired
    subgraph, read off the repair's last check; the removed nodes join the
    cover. k' is capped at `max_useful_k` before it sizes alpha, so a tiny
    eps costs no more than k' = n//2 + 1."""
    k_prime = min(ceil_ratio(2.0, eps, "eps"), max_useful_k(graph))
    stats = RoundStats()
    if not view.in_edges:
        return VertexCover([], view), stats

    forest, elect_stats = elect_leader_and_bfs(graph)
    stats.add_sequential(elect_stats)
    delta, deg_stats = view_max_degree_aggregate(graph, view, forest)
    stats.add_sequential(deg_stats)
    alpha = repair_alpha(k_prime, delta)
    delta_acc = eps / (2.0 * alpha)
    # A tiny eps overflows alpha, or 1 / delta_acc.
    if not delta_acc > 0.0 or 1.0 / delta_acc == INF:
        raise InvalidParam(f"eps = {eps!r} is too small")

    m_prime, match_stats = approx_matching(graph, view, delta_acc, seed=None, forest=forest)
    stats.add_sequential(match_stats)

    repair, m_bar, repair_stats = repair_matching(graph, view, m_prime, k_prime, forest=forest)
    stats.add_sequential(repair_stats)

    residual = view.without_nodes(repair.s1)
    cover2, cover_stats = koenig_approx_cover(
        graph, residual, m_bar, k_prime, forest=forest, layering=repair.layering
    )
    stats.add_sequential(cover_stats)

    cover = VertexCover(repair.s1 | cover2.nodes, view)
    if not cover.is_valid():
        raise AssertionError("repaired cover failed validation")
    return cover, stats

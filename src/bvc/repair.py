"""Counting and covering short augmenting paths.

Given a matching whose shortest augmenting path has odd length d, the
number of such paths through every free endpoint and matching edge can be
computed by two fixed-schedule sweeps over the alternating-BFS levels: a
top-down pass for prefix counts x and a bottom-up pass applying
p_u = sum_i p_{v_i} * x_u / x_{v_i} over the successors. Counts are exact
big integers, messages carry them at the protocol width d*ceil(log2 Delta)
and fragment accordingly, and the divisions are checked to be integral.

Thresholded selection then removes heavy endpoints and matching edges in
halving phases, which realizes a factor-2-relaxed greedy set cover over
the paths; iterating over d = 1, 3, ..., 2k-1 leaves no augmenting path of
length at most 2k-1 in the remaining induced subgraph. The deterministic
low-diameter pipeline combines this repair with an approximation-provider
matching and the layered cover construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidParam, ProgramFault, ShorterPathExists
from .graph import (
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    Edge,
    Matching,
    SubgraphView,
    VertexCover,
    edge_key,
)
from .konig import koenig_approx_cover
from .matching import approx_matching
from .primitives import (
    BfsForest,
    alternating_bfs,
    elect_leader_and_bfs,
    level_dag,
    pipelined_aggregate,
)
from .runtime import Msg, NodeProgram, RoundStats, frame_count, id_bits, run

INF = math.inf


@dataclass
class PathCounts:
    """Exact counts of shortest (length-d) augmenting paths."""

    d: int
    x: dict[int, int] = field(default_factory=dict)
    p_node: dict[int, int] = field(default_factory=dict)
    p_edge: dict[Edge, int] = field(default_factory=dict)
    level: dict[int, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(p for v, p in self.p_node.items() if self.level.get(v) == 0)


def _ceil_log2_pow(delta: int, d: int) -> int:
    """Smallest i with 2**i >= delta**d."""
    if delta <= 1:
        return 0
    value = delta**d
    i = value.bit_length() - 1
    return i if (1 << i) >= value else i + 1


class CountSweepProgram(NodeProgram):
    """Both counting sweeps on a fixed round schedule.

    Input per node: (partner, level, nbr_levels). Config carries d and the
    degree bound used for the protocol-fixed field width; a count message
    is sent at that width whatever its value, as real hardware would have
    to reserve it."""

    def __init__(self, d: int, delta: int):
        self.d = d
        self.delta = delta
        # Counts lie in [0, delta^d]; the field is reserved at that width.
        self.xw = max(1, (delta**d).bit_length()) if delta > 1 else 1

    def setup(self, n, bandwidth):
        self.fx = frame_count(2 + self.xw, bandwidth)
        self.fp = frame_count(2 + 2 * self.xw, bandwidth)

    def init(self, ctx):
        partner, level, _ = ctx.input
        in_dag, out_dag = level_dag(ctx, self.d)
        return {
            "partner": partner,
            "level": level,
            "free": partner is None,
            "in_dag": in_dag,
            "out_dag": out_dag,
            "x": 1 if level == 0 else 0,
            "p": None,
            "recv_p": [],
        }

    def step(self, ctx, st, inbox, rnd, rng):
        lvl = st["level"]
        if lvl is None or not ctx.in_view:
            return st, {}, True
        d, fx, fp = self.d, self.fx, self.fp
        x_send = lvl * fx + 1 if lvl < d else None
        p_base = d * fx + 1
        p_send = p_base + (d - lvl) * fp if lvl > 0 else None
        end_round = p_base + d * fp

        for u, msg in inbox.items():
            if msg.values[0] == 0:
                st["x"] += msg.values[1]
            else:
                st["recv_p"].append((msg.values[1], msg.values[2]))

        out = {}
        if x_send is not None and rnd == x_send:
            msg = Msg((0, 2), (st["x"], self.xw))
            for u in st["out_dag"]:
                out[u] = msg
            return st, out, False, p_send if p_send is not None else end_round

        if p_send is not None and rnd == p_send:
            if lvl == d:
                st["p"] = st["x"] if st["free"] and ctx.side == SIDE_B else 0
            else:
                st["p"] = self._combine(st)
            msg = Msg((1, 2), (st["p"], self.xw), (st["x"], self.xw))
            for u in st["in_dag"]:
                out[u] = msg
            return st, out, False, end_round if rnd < end_round else None

        if rnd >= end_round:
            if lvl == 0:
                st["p"] = self._combine(st)
            if st["p"] is None:
                st["p"] = 0
            return st, out, True

        wake = min(r for r in (x_send, p_send, end_round) if r is not None and r > rnd)
        return st, out, False, wake

    def _combine(self, st):
        total = Fraction(0)
        for p_v, x_v in st["recv_p"]:
            if x_v == 0:
                raise InvalidParam("successor reported a zero prefix count")
            total += Fraction(p_v * st["x"], x_v)
        if total.denominator != 1:
            raise InvalidParam(f"non-integral path count {total}")
        return int(total)

    def output(self, ctx, st):
        return {"x": st["x"], "p": st["p"], "level": st["level"]}


def view_max_degree_aggregate(
    graph: BipartiteGraph,
    view: SubgraphView,
    forest: BfsForest,
) -> tuple[int, RoundStats]:
    """All nodes learn the maximum in-view degree via a pipelined max."""
    width = id_bits(graph.n) + 1
    values = {
        v: (view.view_degree(v) if view.contains_node(v) else 0,)
        for v in graph.node_ids
    }
    sums, stats = pipelined_aggregate(
        graph,
        forest,
        values,
        combine="max",
        value_width=width,
        view=view,
        phase="max-degree",
    )
    return max((sums[v][0] for v in graph.node_ids), default=0), stats


def count_paths(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    d: int,
    *,
    delta: int,
) -> tuple[PathCounts, RoundStats]:
    """Count length-d augmenting paths through free nodes and matching
    edges. Requires that no shorter augmenting path exists (raises
    ShorterPathExists on a witness in the layering); `delta` bounds the
    in-view degree and fixes the count width.

    Round cost: d + O(1) rounds of alternating-BFS layering, then
    d*(ceil((2+w)/B) + ceil((2+2w)/B)) + 1 rounds of counting sweeps,
    where w = bitlength(delta^d) is the reserved count width and B the
    bandwidth. Since w <= d*ceil(log2 delta) + 1, each of the d levels
    costs O(d) frames at B = Theta(log n), so counting takes O(d^2)
    rounds."""
    if d <= 0 or d % 2 == 0:
        raise InvalidParam("d must be a positive odd integer")
    stats = RoundStats()
    layering, bfs_stats = alternating_bfs(graph, view, matching, d, phase="layering")
    stats.add_sequential(bfs_stats)
    for v, lv in layering.witnesses(view, matching, below=d):
        raise ShorterPathExists(f"free node {v} at level {lv} < {d}")

    outputs, sweep_stats = run(
        CountSweepProgram(d, delta),
        graph,
        view,
        inputs=layering.dag_inputs(graph, matching),
        phase="count-sweeps",
    )
    stats.add_sequential(sweep_stats)

    counts = PathCounts(d=d, level=dict(layering.level))
    for v, o in outputs.items():
        if o["level"] is not None:
            counts.x[v] = o["x"]
    for v in view.in_nodes:
        if not matching.is_matched(v):
            o = outputs[v]
            counts.p_node[v] = o["p"] or 0
    base = view.base
    for u, v in matching.edges:
        b, a = (u, v) if base.side[u] == SIDE_B else (v, u)
        la = layering.level.get(a)
        if la is not None and la % 2 == 0 and layering.level.get(b) == la - 1:
            counts.p_edge[edge_key(u, v)] = outputs[a]["p"] or 0
        else:
            counts.p_edge[edge_key(u, v)] = 0
    return counts, stats


class AnnounceRemovalProgram(NodeProgram):
    """One round: nodes flagged for removal tell every neighbor."""

    def init(self, ctx):
        return bool(ctx.input)

    def step(self, ctx, st, inbox, rnd, rng):
        out = {}
        if st:
            for u in ctx.neighbors:
                out[u] = Msg((1, 1))
        return st, out, True


def _announce_removals(graph, view, removed) -> RoundStats:
    inputs = {v: v in removed for v in graph.node_ids}
    _, stats = run(AnnounceRemovalProgram(), graph, view, inputs=inputs, phase="remove")
    return stats


def _aggregate_total_paths(graph, view, forest, counts):
    """Pipelined sum of the level-0 path counts, so that every node (and
    the driver) knows whether any path remains. Counts are capped into the
    frame width; only zero versus nonzero is consumed."""
    width = 2 * id_bits(graph.n)
    cap = (1 << width) - 1
    values = {}
    for v in graph.node_ids:
        p = counts.p_node.get(v, 0) if counts.level.get(v) == 0 else 0
        values[v] = (min(p, cap),)
    sums, stats = pipelined_aggregate(
        graph,
        forest,
        values,
        combine="sum",
        value_width=width + id_bits(graph.n),
        view=view,
        phase="remaining-paths",
    )
    return sum(sums[v][0] for v in set(forest.trees)), stats


def cover_short_paths(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    d: int,
    *,
    forest: BfsForest,
) -> tuple[set[int], RoundStats]:
    """Remove a small node set that hits every length-d augmenting path;
    every aggregation runs over the caller's BFS `forest` of the graph.

    Selection runs in halving-threshold phases; within a phase the sweep
    visits the endpoint position 0, the matching-edge positions 1, 3, ...,
    d-2, and the endpoint position d, recounting paths before each pick
    after the first so parallel selections on one position cover disjoint
    path sets. The first pick and the phase invariant use the count already
    taken of the residual, which nothing has changed since. Matched nodes
    are always removed together with their partners.
    """
    stats = RoundStats()
    delta, deg_stats = view_max_degree_aggregate(graph, view, forest)
    stats.add_sequential(deg_stats)
    if delta == 0:
        return set(), stats

    removed: set[int] = set()
    residual = view
    m_bar = matching
    threshold_num = delta**d
    phases = _ceil_log2_pow(delta, d) + 1
    positions = [0] + list(range(1, d - 1, 2)) + [d]
    base = view.base

    counts, c_stats = count_paths(graph, residual, m_bar, d, delta=delta)
    stats.add_sequential(c_stats)
    remaining, agg_stats = _aggregate_total_paths(graph, residual, forest, counts)
    stats.add_sequential(agg_stats)
    if remaining == 0:
        return removed, stats

    for i in range(1, phases + 1):
        for p in list(counts.p_node.values()) + list(counts.p_edge.values()):
            if p * (1 << (i - 1)) > threshold_num:
                raise ProgramFault(
                    f"count {p} exceeds the phase-{i} invariant delta^d / 2^({i - 1})"
                )
        for pos in positions:
            if pos != 0:
                counts, c_stats = count_paths(graph, residual, m_bar, d, delta=delta)
                stats.add_sequential(c_stats)

            batch: set[int] = set()
            if pos in (0, d):
                side = SIDE_A if pos == 0 else SIDE_B
                for v, p in counts.p_node.items():
                    if (
                        counts.level.get(v) == pos
                        and base.side[v] == side
                        and p * (1 << i) >= threshold_num
                    ):
                        batch.add(v)
            else:
                for (u, v), p in counts.p_edge.items():
                    b, a = (u, v) if base.side[u] == SIDE_B else (v, u)
                    if counts.level.get(b) == pos and p * (1 << i) >= threshold_num:
                        batch.add(u)
                        batch.add(v)
            if batch:
                stats.add_sequential(_announce_removals(graph, residual, batch))
                removed |= batch
                residual = residual.without_nodes(batch)
                m_bar = m_bar.restricted_to(residual)

        counts, c_stats = count_paths(graph, residual, m_bar, d, delta=delta)
        stats.add_sequential(c_stats)
        remaining, agg_stats = _aggregate_total_paths(graph, residual, forest, counts)
        stats.add_sequential(agg_stats)
        if remaining == 0:
            break
    else:
        raise ProgramFault("threshold phases ended with paths remaining")

    return removed, stats


@dataclass
class RepairResult:
    s1: set[int]
    per_stage: list[tuple[int, set[int], int]]
    alpha: float


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
    forest: BfsForest,
) -> tuple[RepairResult, Matching, RoundStats]:
    """Delete nodes until the restriction of `matching` to the remaining
    induced subgraph has no augmenting path of length at most 2k - 1.

    Stages run d = 1, 3, ..., 2k - 1 in order; each stage covers all
    length-d paths over the caller's BFS `forest`, and because removals
    always take out whole matched pairs, no new free node ever appears, so
    earlier stages stay discharged."""
    if k < 1:
        raise InvalidParam("k must be >= 1")
    stats = RoundStats()
    delta0 = view.max_view_degree()

    s1: set[int] = set()
    per_stage = []
    residual = view
    m_bar = matching
    for d in range(1, 2 * k, 2):
        f_i, c_stats = cover_short_paths(graph, residual, m_bar, d, forest=forest)
        phases_used = sum(1 for label, _ in c_stats.per_phase if label == "remaining-paths")
        stats.add_sequential(c_stats)
        if f_i:
            residual = residual.without_nodes(f_i)
            m_bar = m_bar.restricted_to(residual)
            s1 |= f_i
        per_stage.append((d, f_i, phases_used))
        for v in f_i:
            p = matching.partner_of(v)
            if p is not None and p not in s1:
                raise ProgramFault(f"matched node {v} removed without partner {p}")

    return RepairResult(s1, per_stage, repair_alpha(k, delta0)), m_bar, stats


def det_cover_low_diameter(
    graph: BipartiteGraph,
    view: SubgraphView,
    eps: float,
) -> tuple[VertexCover, RoundStats]:
    """Deterministic cover within (1 + eps) of optimal: an approximation
    matching at accuracy eps / (2 * alpha), node repair up to path length
    2k' - 1 with k' = ceil(2 / eps), and the layered cover on the repaired
    subgraph; the removed nodes join the cover."""
    if not 0.0 < eps <= 1.0:
        raise InvalidParam("eps must be in (0, 1]")
    stats = RoundStats()
    if not view.in_edges:
        return VertexCover([], view), stats

    k_prime = math.ceil(2.0 / eps)
    forest, elect_stats = elect_leader_and_bfs(graph)
    stats.add_sequential(elect_stats)
    delta, deg_stats = view_max_degree_aggregate(graph, view, forest)
    stats.add_sequential(deg_stats)
    alpha = repair_alpha(k_prime, delta)
    delta_acc = eps / (2.0 * alpha)

    m_prime, match_stats = approx_matching(graph, view, delta_acc, seed=None, forest=forest)
    stats.add_sequential(match_stats)

    repair, m_bar, repair_stats = repair_matching(graph, view, m_prime, k_prime, forest=forest)
    stats.add_sequential(repair_stats)

    residual = view.without_nodes(repair.s1)
    cover2, cover_stats = koenig_approx_cover(graph, residual, m_bar, k_prime, forest=forest)
    stats.add_sequential(cover_stats)

    cover = VertexCover(repair.s1 | cover2.nodes, view)
    if not cover.is_valid():
        raise AssertionError("repaired cover failed validation")
    return cover, stats

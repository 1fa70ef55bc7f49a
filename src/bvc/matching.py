"""Distributed matching providers.

Three layers:

* a randomized maximal matching (propose/accept with coin flips, the
  classic logarithmic-round scheme);
* phase machinery that finds a maximal set of vertex-disjoint shortest
  augmenting paths of a given odd length d and flips them, implemented as
  priority token walks down the level structure of an alternating BFS;
* iterated elimination of augmenting paths up to length 2k-1, which yields
  matchings within a (1 - 1/(k+1)) factor of maximum, exposed behind a
  provider-string interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParam, ShorterPathExists
from .graph import SIDE_B, BipartiteGraph, Matching, SubgraphView, edge_key
from .primitives import (
    AlternatingLayering,
    BfsForest,
    alternating_bfs,
    elect_leader_and_bfs,
    level_dag,
    witness_check,
)
from .runtime import Msg, NodeProgram, RoundStats, derive_seed, frame_count, id_bits, run

INF = math.inf

_PROPOSE = 0
_ACCEPT = 1
_MATCHED = 2


class MaximalMatchingProgram(NodeProgram):
    """Unmatched nodes flip a coin; heads propose to a uniformly random
    unmatched neighbor, tails listen and accept the smallest-id proposer.
    Mutual proposals also marry. New couples announce themselves so
    neighbors can prune their candidate lists."""

    def init(self, ctx):
        return {
            "partner": None,
            "open": set(ctx.view_neighbors) if ctx.in_view else set(),
            "proposed_to": None,
            "announced": False,
        }

    def step(self, ctx, st, inbox, rnd, rng):
        out = {}
        proposals = []
        accepts = []
        for u, msg in inbox.items():
            tag = msg.values[0]
            if tag == _MATCHED:
                st["open"].discard(u)
            elif tag == _PROPOSE:
                proposals.append(u)
            elif tag == _ACCEPT:
                accepts.append(u)

        phase = (rnd - 1) % 3
        next_round_zero = rnd + 3 - phase

        def announce(exclude=None):
            st["announced"] = True
            for w in ctx.view_neighbors:
                if w != exclude:
                    out[w] = Msg((_MATCHED, 2))

        if st["partner"] is not None:
            # Married earlier; stray mail needs no reaction.
            return st, out, True

        if phase == 0:
            st["proposed_to"] = None
            if not st["open"]:
                return st, out, True
            if rng.random() < 0.5:
                target = sorted(st["open"])[rng.randrange(len(st["open"]))]
                st["proposed_to"] = target
                out[target] = Msg((_PROPOSE, 2))
            return st, out, False, next_round_zero

        if phase == 1:
            if proposals:
                if st["proposed_to"] is not None:
                    if st["proposed_to"] in proposals:
                        st["partner"] = st["proposed_to"]
                        announce()
                        return st, out, True
                else:
                    chosen = min(proposals)
                    st["partner"] = chosen
                    out[chosen] = Msg((_ACCEPT, 2))
                    announce(exclude=chosen)
                    return st, out, True
            return st, out, False, next_round_zero

        # phase == 2: proposers learn the outcome.
        if st["proposed_to"] is not None and st["proposed_to"] in accepts:
            st["partner"] = st["proposed_to"]
            announce()
            return st, out, True
        st["proposed_to"] = None
        return st, out, False, next_round_zero

    def output(self, ctx, st):
        return st["partner"]


def _matching_from_partner_outputs(view: SubgraphView, partner: dict) -> Matching:
    edges = []
    for v, p in partner.items():
        if p is not None and v < p:
            if partner.get(p) != v:
                raise InvalidParam(f"inconsistent partner outputs at ({v},{p})")
            edges.append(edge_key(v, p))
    return Matching(edges, view)


def maximal_matching(
    graph: BipartiteGraph,
    view: SubgraphView | None = None,
    *,
    seed: int = 0,
    phase: str = "maximal-matching",
) -> tuple[Matching, RoundStats]:
    """Randomized maximal matching; every in-view edge ends with a matched
    endpoint. Las Vegas: the round cap is generous enough that hitting it
    has negligible probability."""
    if view is None:
        view = SubgraphView.whole(graph)
    cap = max(600, 300 * id_bits(graph.n))
    outputs, stats = run(
        MaximalMatchingProgram(),
        graph,
        view,
        seed=seed,
        round_cap=cap,
        phase=phase,
    )
    return _matching_from_partner_outputs(view, outputs), stats


# ---------------------------------------------------------------------------
# Disjoint shortest augmenting paths of one fixed length
# ---------------------------------------------------------------------------

_T_ALIVE = 0
_T_DEAD = 1
_T_TOKEN = 2
_T_LOCK = 3
_T_CONSUMED = 4


class PathSelectProgram(NodeProgram):
    """Select a maximal set of vertex-disjoint augmenting paths of length
    exactly d in the level structure and flip them.

    After a settling prologue that marks which nodes can still reach level 0
    ("alive"), free level-d nodes repeatedly launch tokens that walk down
    the levels, one hop per slot, choosing a random alive predecessor.
    同-slot collisions keep the smallest (priority, initiator) token; the
    winner locks its chain bottom-up, flipping matched and unmatched edges,
    and locked nodes withdraw from the structure. Iterations repeat on a
    fixed schedule until no live initiator remains, at which point the run
    goes quiescent.

    Input per node: (partner, level, nbr_levels). Deterministic mode uses
    the node id as the priority and the minimum-id predecessor.
    """

    def __init__(self, d: int, deterministic: bool):
        if d <= 0 or d % 2 == 0:
            raise InvalidParam("path length d must be a positive odd integer")
        self.d = d
        self.det = deterministic

    def init(self, ctx):
        partner, level, _ = ctx.input
        in_dag, out_dag = level_dag(ctx, self.d)
        return {
            "partner": partner,
            "level": level,
            "in_dag": in_dag,
            "in_alive": set(),
            "out_dag": out_dag,
            "alive": level == 0 and ctx.in_view,
            "alive_sent": False,
            "consumed": False,
            "chain_up": None,
            "chain_down": None,
            "accepted_iter": None,
            "new_partner": partner,
            "locked_iter": None,
        }

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)
        f = frame_count(3 + 2 * self.idw + self.idw, bandwidth)  # token: tag, priority, initiator
        self.prologue = (self.d + 3) * f
        self.period = (3 * self.d + 8) * f

    def _is_initiator(self, ctx, st):
        return (
            st["level"] == self.d
            and st["partner"] is None
            and ctx.side == SIDE_B
            and ctx.in_view
        )

    def step(self, ctx, st, inbox, rnd, rng):
        idw, prologue, period = self.idw, self.prologue, self.period
        out = {}
        tokens = []
        locked = False
        for u, msg in inbox.items():
            tag = msg.values[0]
            if tag == _T_ALIVE:
                st["in_alive"].add(u)
            elif tag in (_T_DEAD, _T_CONSUMED):
                st["in_alive"].discard(u)
                if tag == _T_CONSUMED and not st["consumed"]:
                    # A consumed successor can no longer be claimed.
                    if u in st["out_dag"]:
                        st["out_dag"].remove(u)
            elif tag == _T_TOKEN:
                tokens.append((msg.values[1], msg.values[2], u))
            elif tag == _T_LOCK:
                locked = True

        # Alive bookkeeping: a node can reach level 0 while it has a live
        # predecessor; changes propagate up the levels as events.
        was_alive = st["alive"]
        if st["level"] is not None and not st["consumed"]:
            st["alive"] = st["level"] == 0 and ctx.in_view or bool(st["in_alive"])
        else:
            st["alive"] = False
        if st["alive"] and not st["alive_sent"]:
            st["alive_sent"] = True
            for u in st["out_dag"]:
                out[u] = Msg((_T_ALIVE, 3))
        elif was_alive and not st["alive"] and st["alive_sent"] and not st["consumed"]:
            st["alive_sent"] = False
            for u in st["out_dag"]:
                out[u] = Msg((_T_DEAD, 3))

        iter_no = (rnd - prologue) // period if rnd >= prologue else None

        if locked and st["locked_iter"] is None:
            st["locked_iter"] = iter_no
            st["consumed"] = True
            st["alive"] = False
            if st["level"] % 2 == 0:
                st["new_partner"] = st["chain_up"]
            else:
                st["new_partner"] = st["chain_down"]
            if st["level"] < self.d and st["chain_up"] is not None:
                out[st["chain_up"]] = Msg((_T_LOCK, 3))
            consumed = Msg((_T_CONSUMED, 3))
            for u in ctx.neighbors:
                if u not in out:
                    out[u] = consumed
            return st, out, False, None

        if tokens and not st["consumed"] and st["accepted_iter"] != iter_no:
            prio, init, sender = min(tokens)
            st["accepted_iter"] = iter_no
            st["chain_up"] = sender
            if st["level"] == 0:
                # Path complete: lock bottom-up and marry the level-1 node.
                st["consumed"] = True
                st["alive"] = False
                st["locked_iter"] = iter_no
                st["new_partner"] = sender
                out[sender] = Msg((_T_LOCK, 3))
                consumed = Msg((_T_CONSUMED, 3))
                for u in ctx.neighbors:
                    if u != sender:
                        out[u] = consumed
            else:
                choices = [u for u in st["in_dag"] if u in st["in_alive"]]
                if choices:
                    nxt = min(choices) if self.det else choices[rng.randrange(len(choices))]
                    st["chain_down"] = nxt
                    out[nxt] = Msg((_T_TOKEN, 3), (prio, 2 * idw), (init, idw))
                # No live predecessor: the token dies silently; the
                # initiator retries on the next launch slot.

        next_launch = None
        if self._is_initiator(ctx, st) and not st["consumed"]:
            if rnd < prologue:
                next_launch = prologue
            elif st["alive"]:
                offset = (rnd - prologue) % period
                if offset == 0:
                    choices = [u for u in st["in_dag"] if u in st["in_alive"]]
                    if choices:
                        nxt = min(choices) if self.det else choices[rng.randrange(len(choices))]
                        prio = 0 if self.det else rng.getrandbits(2 * idw)
                        st["chain_down"] = nxt
                        out[nxt] = Msg((_T_TOKEN, 3), (prio, 2 * idw), (ctx.node, idw))
                    next_launch = rnd + period
                else:
                    next_launch = rnd + (period - offset)
            # A dead initiator stops scheduling wakes: aliveness never
            # returns once the settling prologue is over.

        return st, out, False, next_launch

    def output(self, ctx, st):
        return {
            "partner": st["new_partner"],
            "consumed": st["consumed"],
            "level": st["level"],
            "chain_up": st["chain_up"] if st["consumed"] else None,
            "chain_down": st["chain_down"] if st["consumed"] else None,
        }


def _reconstruct_paths(outputs, d: int) -> list[tuple[int, ...]]:
    paths = []
    for v, o in sorted(outputs.items()):
        if o["consumed"] and o["level"] == 0:
            path = [v]
            cur = o["chain_up"]
            while cur is not None and len(path) <= d:
                path.append(cur)
                cur = outputs[cur]["chain_up"]
            paths.append(tuple(path))
    return paths


def select_disjoint_paths(
    graph: BipartiteGraph,
    view: SubgraphView,
    matching: Matching,
    d: int,
    layering: AlternatingLayering,
    *,
    seed: int | None = 0,
    phase: str = "select",
) -> tuple[Matching, list[tuple[int, ...]], RoundStats]:
    """Run one selection phase; returns the flipped matching and the chosen
    paths. Callers must pass the layering of `matching` at depth >= d.
    Without a seed the phase follows the deterministic rule."""
    outputs, stats = run(
        PathSelectProgram(d, seed is None),
        graph,
        view,
        seed=seed,
        inputs=layering.dag_inputs(graph, matching),
        allow_quiescence=True,
        phase=phase,
    )
    partner = {v: o["partner"] for v, o in outputs.items()}
    flipped = _matching_from_partner_outputs(view, partner)
    return flipped, _reconstruct_paths(outputs, d), stats


# Phases up to this length run unchecked: their BFS to depth d costs less
# than a check to depth 2k - 1 would.
_UNCHECKED_LENGTH = 15


def eliminate_short_aug_paths(
    graph: BipartiteGraph,
    view: SubgraphView,
    m0: Matching,
    k: int,
    *,
    seed: int | None = 0,
    forest: BfsForest | None = None,
) -> tuple[Matching, AlternatingLayering | None, RoundStats]:
    """Phases of increasing odd length d up to 2k-1, each flipping a maximal
    set of disjoint augmenting paths of length d; after phase d none of
    length <= d remains, so the result has none of length <= 2k-1. The
    selection of phase d draws from derive_seed(seed, d), or follows the
    deterministic rule when `seed` is None.

    Phases d <= 15 run unchecked: alternating BFS to depth d, then
    selection. Every longer phase starts with a `witness_check` to depth
    2k-1 over `forest` (elected here when the caller passes none), jumps to
    the shortest length it finds and selects on its layering, or ends the
    loop when it finds none. That last, empty check's layering of the
    result is returned; it is None when the loop ended without one."""
    if k < 1:
        raise InvalidParam("k must be >= 1")
    matching = m0
    stats = RoundStats()
    top = 2 * k - 1
    if top > _UNCHECKED_LENGTH and forest is None:
        forest, elect_stats = elect_leader_and_bfs(graph)
        stats.add_sequential(elect_stats)

    d = 1
    while d <= top:
        if d <= _UNCHECKED_LENGTH:
            layering, bfs_stats = alternating_bfs(graph, view, matching, d, phase=f"bfs[d={d}]")
            stats.add_sequential(bfs_stats)
            shortest = min((lv for _, lv in layering.witnesses(view, matching)), default=d)
        else:
            shortest, layering, check_stats = witness_check(graph, view, matching, forest, top)
            stats.add_sequential(check_stats)
            if shortest is None:
                return matching, layering, stats
        if shortest < d:
            raise ShorterPathExists(f"augmenting path of length {shortest} < {d}")
        d = shortest
        matching, _, sel_stats = select_disjoint_paths(
            graph,
            view,
            matching,
            d,
            layering,
            seed=None if seed is None else derive_seed(seed, d),
            phase=f"select[d={d}]",
        )
        stats.add_sequential(sel_stats)
        d += 2
    return matching, None, stats


def approx_matching(
    graph: BipartiteGraph,
    view: SubgraphView,
    delta: float,
    *,
    seed: int | None = 0,
    forest: BfsForest | None = None,
) -> tuple[Matching, RoundStats]:
    """Matching of size at least (1 - delta) times maximum: eliminating all
    augmenting paths of length <= 2k-1 guarantees a 1 - 1/(k+1) factor, so
    k = max(1, ceil(1/delta) - 1) suffices. No simple path has more than
    n - 1 edges, so k is capped where the result is already maximum.
    `seed` (None for the deterministic rule) and `forest` are passed on to
    the elimination."""
    if not 0.0 < delta <= 1.0:
        raise InvalidParam("delta must be in (0, 1]")
    k = max(1, math.ceil(1.0 / delta) - 1)
    k = min(k, graph.n // 2 + 1)
    matching, _, stats = eliminate_short_aug_paths(
        graph, view, Matching([], view), k, seed=seed, forest=forest
    )
    return matching, stats


@dataclass(frozen=True)
class ProviderSpec:
    kind: str
    k: int = 0
    delta: float = 0.0

    def run(self, graph, view, *, seed=0):
        """The provider's matching; det-approx runs unseeded."""
        if self.kind == "maximal":
            return maximal_matching(graph, view, seed=seed)
        if self.kind == "eliminate":
            matching, _, stats = eliminate_short_aug_paths(
                graph, view, Matching([], view), self.k, seed=seed
            )
            return matching, stats
        if self.kind == "approx":
            return approx_matching(graph, view, self.delta, seed=seed)
        return approx_matching(graph, view, self.delta, seed=None)


def parse_provider(spec: str) -> ProviderSpec:
    """Provider strings: maximal | eliminate:k=<int> | approx:delta=<float>
    | det-approx:delta=<float>."""
    name, _, rest = spec.partition(":")
    try:
        if name == "maximal" and not rest:
            return ProviderSpec("maximal")
        if name == "eliminate":
            key, _, value = rest.partition("=")
            if key == "k":
                return ProviderSpec("eliminate", k=int(value))
        if name in ("approx", "det-approx"):
            key, _, value = rest.partition("=")
            if key == "delta":
                return ProviderSpec(name, delta=float(value))
    except ValueError as exc:
        raise InvalidParam(f"bad provider spec {spec!r}") from exc
    raise InvalidParam(f"bad provider spec {spec!r}")

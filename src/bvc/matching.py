"""Distributed matching providers.

Two layers:

* phase machinery that finds a maximal set of vertex-disjoint shortest
  augmenting paths of a given odd length d and flips them, implemented as
  priority token walks down the level structure of an alternating BFS;
* iterated elimination of augmenting paths up to length 2k-1, which yields
  matchings within a (1 - 1/(k+1)) factor of maximum, exposed behind a
  provider-string interface. Its d = 1 phase alone is a maximal matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParam, ProgramFault
from .graph import SIDE_A, BipartiteGraph, Matching, SubgraphView, edge_key
from .primitives import (
    AlternatingLayering,
    Forest,
    alternating_bfs,
    alternating_offers,
    elect_leader_and_bfs,
    witness_check,
)
from .runtime import Msg, NodeProgram, RoundStats, derive_seed, frame_count, id_bits, run

INF = math.inf


# ---------------------------------------------------------------------------
# Disjoint shortest augmenting paths of one fixed length
# ---------------------------------------------------------------------------

_T_GONE = 0
_T_TOKEN = 1
_T_LOCK = 2
_GONE = Msg((_T_GONE, 2))
_LOCK = Msg((_T_LOCK, 2))


class PathSelectProgram(NodeProgram):
    """Select a maximal set of vertex-disjoint augmenting paths of length
    exactly d in the level structure and flip them.

    A node is alive while it can reach level 0 down the levels. Every
    node starts alive: the layering is an alternating BFS, so a node at
    level 1..d took its level from a predecessor one level down, and the
    BFS gave each node its predecessors. Aliveness can only be lost. A
    node leaves the structure when it loses its last live predecessor or
    is locked, and then sends "gone" along the BFS's offer rule,
    `alternating_offers`, whose targets include every node that holds it
    as a predecessor. A receiver drops the sender from its live
    predecessors. From round 1, the initiators (the free B-nodes at level
    d) repeatedly launch tokens that walk down the levels, one hop per
    slot, choosing a random live predecessor. Same-slot collisions keep
    the smallest (priority, initiator) token; the winner locks its chain
    bottom-up, and each locked node leaves the structure. Iterations
    repeat on a fixed schedule until no live initiator remains, at which
    point the run goes quiescent.

    Each node reads its partner in `partner`, its level and predecessors
    in `layering`, and whether it is one of the `initiators`, which start.
    Output: the node's partner after the flip, `chain_up` for a locked
    node at an even level, `chain_down` at an odd one, the old partner
    otherwise; a node that never acts keeps its old partner.
    Messages carry a 2-bit tag (gone, token or lock). Deterministic mode
    uses the initiator id as the priority and the minimum-id predecessor;
    its tokens carry no priority field.

    The period is P = d·(f + 1) rounds, with f the frames of a token.
    Iteration i launches in round r. A token hop takes f rounds, so a
    token reaches level 0 in round r + d·f; the 2-bit lock then climbs
    one level per round and reaches level l in round r + d·f + l. The
    next iteration's token reaches level l in round r + P + (d - l)·f,
    and a node must not accept it before its lock has arrived, or it
    would overwrite `chain_up` and `chain_down`. A lock and a token that
    land in the same round are safe, since `step` handles the lock first
    and returns. So P >= l·(f + 1) for every l <= d, and P = d·(f + 1).
    Three facts keep that count exact:

    * No hop waits. Tokens are the only multi-frame messages, and a node
      sends them only to its predecessors, at most one per iteration, so
      P >= f rounds apart. Every other message goes along the offer rule,
      which never names a predecessor. So every token hop takes f rounds
      and every lock or "gone" hop one.
    * Deaths settle by the next launch. Nodes are consumed at offsets
      d·f + l, and a death climbs one level per round, so the last
      "gone" reaches level d by offset d·f + d = P. An initiator whose
      last predecessor died hears it no later than in its launch round,
      and `step` handles the death before the launch.
    * Arrivals need no guard. A node at level l sees an iteration's
      tokens in exactly one round, at offset (d - l)·f. Nodes are
      consumed from offset d·f on, the round of the last token hop, and
      the deaths that follow have settled by offset P. So a token
      reaches only a live, unconsumed node that still has a live
      predecessor, and a lock only an unconsumed node of the chain its
      token just walked.
    """

    def __init__(self, d: int, deterministic: bool, partner, layering, initiators):
        if d <= 0 or d % 2 == 0:
            raise InvalidParam("path length d must be a positive odd integer")
        self.d = d
        self.det = deterministic
        self.partner, self.layering = partner, layering
        self.initiators = self.start = initiators

    def init(self, ctx):
        v = ctx.node
        level, preds = self.layering.level.get(v), self.layering.preds.get(v, ())
        below_d = level is not None and level < self.d
        return {
            "level": level,
            "initiator": v in self.initiators,
            "in_alive": set(preds),
            "offers": alternating_offers(ctx, self.partner.get(v)) if below_d else (),
            "alive": level == 0 and ctx.in_view or bool(preds),
            "consumed": False,
            "chain_up": None,
            "chain_down": None,
        }

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)
        self.pw = 0 if self.det else 2 * self.idw
        f = frame_count(2 + self.pw + self.idw, bandwidth)  # token: tag, priority, initiator
        self.period = self.d * (f + 1)

    def _next_hop(self, st, rng):
        """A live predecessor for a token, the smallest in deterministic
        mode, recorded as the chain's next node."""
        if self.det:
            nxt = min(st["in_alive"])
        else:
            choices = sorted(st["in_alive"])
            nxt = choices[rng.randrange(len(choices))]
        st["chain_down"] = nxt
        return nxt

    @staticmethod
    def _leave(st, out):
        """Leave the structure: "gone" to every offer target not already
        sent a message this step."""
        st["alive"] = False
        for u in st["offers"]:
            out.setdefault(u, _GONE)

    def _lock(self, st, out):
        """Consume this node, pass the lock up the chain below level d, and
        leave the structure."""
        st["consumed"] = True
        if st["level"] < self.d:
            out[st["chain_up"]] = _LOCK
        self._leave(st, out)

    def step(self, ctx, st, inbox, rnd, rng):
        idw = self.idw
        out = {}
        tokens = []
        locked = False
        for u, msg in inbox.items():
            tag = msg.values[0]
            if tag == _T_TOKEN:
                tokens.append((msg.values[1], msg.values[2], u))
            elif tag == _T_LOCK:
                locked = True
            else:
                st["in_alive"].discard(u)

        # A node above level 0 dies with its last live predecessor; the
        # death propagates up the levels as events.
        if st["alive"] and st["level"] > 0 and not st["in_alive"]:
            self._leave(st, out)

        if locked:
            self._lock(st, out)
            return st, out, False, None

        if tokens:
            prio, init, sender = min(tokens)
            st["chain_up"] = sender
            if st["level"] == 0:
                # Path complete: lock bottom-up.
                self._lock(st, out)
            else:
                out[self._next_hop(st, rng)] = Msg((_T_TOKEN, 2), (prio, self.pw), (init, idw))

        # A live initiator launches at the start of every iteration; a dead
        # one stops scheduling wakes, since aliveness never returns.
        next_launch = None
        if st["initiator"] and st["alive"]:
            offset = (rnd - 1) % self.period
            if offset == 0:
                nxt = self._next_hop(st, rng)
                prio = 0 if self.det else rng.getrandbits(self.pw)
                out[nxt] = Msg((_T_TOKEN, 2), (prio, self.pw), (ctx.node, idw))
            next_launch = rnd + self.period - offset

        return st, out, False, next_launch

    def output(self, ctx, st):
        if not st["consumed"]:
            return self.partner.get(ctx.node)
        return st["chain_up"] if st["level"] % 2 == 0 else st["chain_down"]


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
    paths. Callers must pass the layering of `matching` at depth >= d. The
    initiators are its witnesses at level d; without one, no node can
    launch, so the phase runs no engine call and takes 0 rounds. The
    phase starts on that layering as it is: every node at level 1..d got
    its level from a node one level down, a predecessor the BFS learned,
    so every layered node starts able to reach level 0 and tokens launch
    in round 1. Withdrawals follow the BFS's offer rule, so the phase
    needs no successor lists. The initiators, each of which has a
    predecessor, start. The paths are read off the flip: from each A-node
    it matched, alternately new and old partners. Without a seed the phase
    follows the deterministic rule."""
    initiators = {v for v, lv in layering.witnesses(view, matching) if lv == d}
    if not initiators:
        return matching, [], RoundStats(per_phase=[(phase, 0)])
    program = PathSelectProgram(d, seed is None, matching.partner, layering, initiators)
    outputs, stats = run(program, graph, view, seed=seed, allow_quiescence=True, phase=phase)
    # A node without an output kept its old partner.
    partner = {**matching.partner, **outputs}
    edges = []
    for v, p in partner.items():
        if p is None:
            continue
        if partner.get(p) != v:
            raise ProgramFault(f"inconsistent partner outputs at ({v},{p})")
        if v < p:
            edges.append(edge_key(v, p))
    flipped = Matching(edges, view)
    paths = []
    # A newly matched node was locked, so it acted.
    for v in outputs:
        if graph.side[v] == SIDE_A and flipped.is_matched(v) and not matching.is_matched(v):
            path = [v]
            while len(path) <= d:
                path.append((flipped if len(path) % 2 else matching).partner_of(path[-1]))
            paths.append(tuple(path))
    return flipped, paths, stats


# Phases up to this length run unchecked: each costs a BFS to depth d and a
# selection, without the tree aggregation of a check.
_UNCHECKED_LENGTH = 15


def eliminate_short_aug_paths(
    graph: BipartiteGraph,
    view: SubgraphView,
    m0: Matching,
    k: int,
    *,
    seed: int | None = 0,
    forest: Forest | None = None,
) -> tuple[Matching, AlternatingLayering | None, RoundStats]:
    """Phases of increasing odd length d up to 2k-1, each flipping a maximal
    set of disjoint augmenting paths of length d; after phase d none of
    length <= d remains, so the result has none of length <= 2k-1. The
    selection of phase d draws from derive_seed(seed, d), or follows the
    deterministic rule when `seed` is None.

    Phases d <= 15 run unchecked: alternating BFS to depth d, then
    selection. Every longer phase starts with a `witness_check` from d to
    depth 2k-1 over `forest` (elected here when the caller passes none),
    whose BFS deepens from d only while it grows; the phase jumps to the
    shortest length found and selects on the check's layering, or ends the
    loop when there is none. That last, empty check's layering of the
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
            shortest = d
        else:
            shortest, layering, check_stats = witness_check(graph, view, matching, forest, d, top)
            stats.add_sequential(check_stats)
            if shortest is None:
                return matching, layering, stats
        layering.require_no_witness_below(view, matching, d)
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


def maximal_matching(
    graph: BipartiteGraph,
    view: SubgraphView | None = None,
    *,
    seed: int = 0,
) -> tuple[Matching, RoundStats]:
    """A maximal matching: every in-view edge ends with a matched endpoint.
    It is a maximal set of disjoint augmenting paths of length 1, so it is
    the elimination's d = 1 phase from the empty matching: an alternating
    BFS to depth 1, then one randomized selection. The phase always ends:
    while a live free B-node remains, its token reaches a free A-node in
    the same iteration, and an A-node that receives tokens locks an edge
    with one of them, so every iteration matches at least one edge."""
    if view is None:
        view = SubgraphView.whole(graph)
    matching, _, stats = eliminate_short_aug_paths(graph, view, Matching([], view), 1, seed=seed)
    return matching, stats


def max_useful_k(graph: BipartiteGraph) -> int:
    """n//2 + 1, beyond which k changes no result: 2k - 1 >= n exceeds every
    simple path, so further phases and repair stages find nothing, and a
    B-class j needs 2j nodes, so the layered cover's argmin is the first
    empty class, at most n//2 + 1, and no A-node has a class between it and k."""
    return graph.n // 2 + 1


def ceil_ratio(c: float, x: float, name: str) -> int:
    """ceil(c / x) for the parameter `name` = x in (0, 1]. Raises
    InvalidParam outside that range, and where c / x overflows a float."""
    if not 0.0 < x <= 1.0:
        raise InvalidParam(f"{name} must be in (0, 1]")
    if c / x == INF:
        raise InvalidParam(f"{name} = {x!r} is too small")
    return math.ceil(c / x)


def k_for_delta(delta: float) -> int:
    """max(1, ceil(1/delta) - 1): eliminating all augmenting paths of
    length <= 2k-1 guarantees a 1 - 1/(k+1) >= 1 - delta factor."""
    return max(1, ceil_ratio(1.0, delta, "delta") - 1)


def approx_matching(
    graph: BipartiteGraph,
    view: SubgraphView,
    delta: float,
    *,
    seed: int | None = 0,
    forest: Forest | None = None,
) -> tuple[Matching, RoundStats]:
    """Matching of size at least (1 - delta) times maximum, by eliminating
    augmenting paths up to k = k_for_delta(delta). `seed` (None for the
    deterministic rule) and `forest` are passed on to the elimination."""
    k = min(k_for_delta(delta), max_useful_k(graph))
    matching, _, stats = eliminate_short_aug_paths(
        graph, view, Matching([], view), k, seed=seed, forest=forest
    )
    return matching, stats


@dataclass(frozen=True)
class ProviderSpec:
    """A provider is one elimination to length 2k - 1, seeded or by the
    deterministic rule; `delta` is the accuracy an approx provider promises."""

    k: int
    seeded: bool = True
    delta: float | None = None

    def run(self, graph, view, *, seed=0):
        matching, _, stats = eliminate_short_aug_paths(
            graph,
            view,
            Matching([], view),
            min(self.k, max_useful_k(graph)),
            seed=seed if self.seeded else None,
        )
        return matching, stats


def parse_provider(spec: str) -> ProviderSpec:
    """Provider strings: maximal (k = 1) | eliminate:k=<int> |
    approx:delta=<float> | det-approx:delta=<float> (k = k_for_delta(delta),
    det-approx unseeded)."""
    name, _, rest = spec.partition(":")
    key, _, value = rest.partition("=")
    try:
        if name == "maximal" and not rest:
            return ProviderSpec(1)
        if name == "eliminate" and key == "k":
            return ProviderSpec(int(value))
        if name in ("approx", "det-approx") and key == "delta":
            delta = float(value)
            return ProviderSpec(k_for_delta(delta), seeded=name == "approx", delta=delta)
    except ValueError as exc:
        raise InvalidParam(f"bad provider spec {spec!r}") from exc
    raise InvalidParam(f"bad provider spec {spec!r}")

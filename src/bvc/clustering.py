"""Randomized low-diameter clustering and the cluster-combination pipeline.

Nodes draw exponential head starts and join the origin minimizing hop
distance minus shift; the resulting clusters are connected, and after
dropping both endpoints of every inter-cluster edge they are 3-hop
separated. Each surviving cluster keeps a BFS tree rooted at its origin
inside the original (pre-shrink) region, so trees of different clusters
stay edge-disjoint even when shrinking disconnects a cluster's survivors.

The combination step covers everything outside clusters with matched
nodes, extends every cluster by one hop, and runs an inner cover solver in
all extended clusters at once, each over its cluster's tree; with
edge-disjoint cluster regions the parallel runs cost as many rounds as the
slowest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DisconnectedCluster, InvalidParam
from .graph import (
    BipartiteGraph,
    Matching,
    SubgraphView,
    VertexCover,
    build_graph,
)
from .konig import koenig_approx_cover
from .matching import ceil_ratio, eliminate_short_aug_paths, maximal_matching, max_useful_k
from .primitives import Forest
from .runtime import (
    Msg,
    NodeProgram,
    RoundStats,
    derive_seed,
    id_bits,
    run,
)


@dataclass
class ClusterSet:
    """Disjoint clusters and, once `build_cluster_trees` ran, their
    spanning trees.

    `members` is the post-shrink assignment (None = outside clusters);
    `origin` the total pre-shrink assignment used for tree regions.
    `forest` holds the tree of every cluster with surviving members, over
    its origin region, rooted at the origin; `max_tree_height` is the
    largest depth in it."""

    members: dict[int, int | None]
    origin: dict[int, int]
    forest: Forest = field(default_factory=dict)
    max_tree_height: int = 0

    def clusters(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, c in self.members.items():
            if c is not None:
                out.setdefault(c, []).append(v)
        return {c: sorted(vs) for c, vs in out.items()}


# Redraws of a shift before it is drawn by inverting the CDF of the
# exponential truncated to [0, cap): the same distribution, in one draw,
# where a tiny sigma * cap makes almost every draw land above the cap.
_MAX_REDRAWS = 64


class MpxPartitionProgram(NodeProgram):
    """Relaxation of shifted hop distances.

    Every node starts as its own candidate origin with key -shift and
    forwards any improvement (key + scale, origin) to its neighbors; ties
    break toward the smaller origin id. The run ends by quiescence once no
    key improves anywhere.
    """

    def __init__(self, sigma: float, scale: int, cap: int):
        self.sigma = sigma
        self.scale = scale
        self.cap = cap
        self.kw = (2 * cap * scale).bit_length()
        self.offset = cap * scale

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)

    def init(self, ctx):
        return {"best": None, "sent": None}

    def draw_shift(self, rng) -> float:
        """An exponential draw of rate sigma conditioned below the cap."""
        shift = rng.expovariate(self.sigma) if self.sigma > 0 else 0.0
        redraws = 0
        while shift >= self.cap:
            redraws += 1
            if redraws < _MAX_REDRAWS:
                shift = rng.expovariate(self.sigma)
            else:
                below_cap = -math.expm1(-self.sigma * self.cap)
                shift = -math.log1p(-rng.random() * below_cap) / self.sigma
        return shift

    def step(self, ctx, st, inbox, rnd, rng):
        kw, offset, idw = self.kw, self.offset, self.idw
        if st["best"] is None:
            st["best"] = (-int(self.draw_shift(rng) * self.scale), ctx.node)
        for u, msg in inbox.items():
            cand = (msg.values[0] - offset + self.scale, msg.values[1])
            if cand < st["best"]:
                st["best"] = cand
        out = {}
        if st["best"] != st["sent"]:
            st["sent"] = st["best"]
            msg = Msg((st["best"][0] + offset, kw), (st["best"][1], idw))
            for u in ctx.neighbors:
                out[u] = msg
        return st, out, False, None

    def output(self, ctx, st):
        return st["best"][1]


def mpx_partition(
    graph: BipartiteGraph,
    lam: float,
    *,
    seed: int = 0,
) -> tuple[dict[int, int], RoundStats]:
    """Assign every node to an origin by exponentially shifted distances.

    Shifts use parameter sigma = lam / 4, a fixed-point grid of 1/n, and
    are conditioned below n, so a key takes bitlength(2n^2) bits and a key
    with an origin id fits one frame of the default bandwidth."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParam("lam must be in (0, 1]")
    n = max(graph.n, 2)
    program = MpxPartitionProgram(lam / 4.0, n, n)
    outputs, stats = run(program, graph, seed=seed, allow_quiescence=True, phase="mpx")
    return dict(outputs), stats


class ShrinkProgram(NodeProgram):
    """Drop both endpoints of every inter-cluster edge (two rounds)."""

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)

    def init(self, ctx):
        return {"origin": ctx.input, "kept": True}

    def step(self, ctx, st, inbox, rnd, rng):
        if rnd == 1:
            out = {u: Msg((st["origin"], self.idw)) for u in ctx.neighbors}
            return st, out, not ctx.neighbors
        for u, msg in inbox.items():
            if msg.values[0] != st["origin"]:
                st["kept"] = False
        return st, {}, True

    def output(self, ctx, st):
        return st["origin"] if st["kept"] else None


def shrink_partition(
    graph: BipartiteGraph,
    assignment: dict[int, int],
) -> tuple[ClusterSet, RoundStats]:
    """3-hop separated clusters: survivors kept all their neighbors, so
    nodes of different clusters cannot share a neighbor."""
    outputs, stats = run(ShrinkProgram(), graph, inputs=assignment, phase="shrink")
    return ClusterSet(members=dict(outputs), origin=dict(assignment)), stats


class TreeBuildProgram(NodeProgram):
    """BFS trees rooted at each origin, grown only along edges whose both
    endpoints kept that origin in the pre-shrink assignment.

    A node joins in the first round a grow reaches it (the root in round
    2), takes the smallest (depth, id) sender as its parent and sends grows
    to its other same-origin neighbors. A grow is one frame and each edge
    carries one per direction, and a same-origin neighbor is one BFS level
    away at most, so every one that is not a child has sent this node a
    grow within two rounds of its own: the node stays up that long, and the
    neighbors it did not hear from are its children."""

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)

    def init(self, ctx):
        origin = ctx.input
        return {
            "origin": origin,
            "parent": None,
            "depth": 0 if origin == ctx.node else None,
            "same": set(),  # same-origin neighbors; after joining, the unheard ones
            "until": None,  # last round of the wait for grows, once joined
        }

    def step(self, ctx, st, inbox, rnd, rng):
        idw = self.idw
        out = {}
        if rnd == 1:
            for u in ctx.neighbors:
                out[u] = Msg((0, 1), (st["origin"], idw))
            return st, out, not ctx.neighbors, 2
        grows = []
        for u, msg in inbox.items():
            if msg.values[0] == 0:
                if msg.values[1] == st["origin"]:
                    st["same"].add(u)
            else:
                grows.append((msg.values[1], u))
        if st["until"] is None:
            if grows and st["depth"] is None:
                st["depth"], st["parent"] = min(grows)
            elif not (rnd == 2 and st["depth"] == 0):
                return st, out, False, None
            st["until"] = rnd + 2
            grow = Msg((1, 1), (st["depth"] + 1, idw + 1))
            for u in st["same"]:
                if u != st["parent"]:
                    out[u] = grow
        st["same"].difference_update(u for _, u in grows)
        if not st["same"] or rnd == st["until"]:
            return st, out, True
        return st, out, False, st["until"]

    def output(self, ctx, st):
        return st["depth"], st["parent"], tuple(sorted(st["same"]))


def build_cluster_trees(graph: BipartiteGraph, cluster_set: ClusterSet) -> RoundStats:
    """Fill in `cluster_set.forest` and `max_tree_height`; every graph edge
    serves at most one tree because tree regions are the (vertex-disjoint)
    origin groups.

    Raises DisconnectedCluster if some surviving member is unreachable
    inside its own origin region (impossible for shifted-distance
    assignments, whose clusters are connected).
    """
    outputs, stats = run(
        TreeBuildProgram(),
        graph,
        inputs=cluster_set.origin,
        allow_quiescence=True,
        phase="cluster-trees",
    )
    # Only clusters with surviving members keep their trees.
    origin, live = cluster_set.origin, set(cluster_set.members.values())
    for v, (depth, parent, children) in outputs.items():
        if depth is None:
            if cluster_set.members.get(v) is not None:
                raise DisconnectedCluster(f"member {v} unreachable from origin {origin[v]}")
        elif origin[v] in live:
            cluster_set.forest[v] = parent, children
            cluster_set.max_tree_height = max(cluster_set.max_tree_height, depth)
    return stats


class ExtendProgram(NodeProgram):
    """One-hop cluster extension: members announce their cluster; an
    outside node adjacent to members must see exactly one cluster id (a
    second one would contradict 3-hop separation)."""

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)

    def init(self, ctx):
        return {"member": ctx.input, "joined": ctx.input}

    def step(self, ctx, st, inbox, rnd, rng):
        if rnd == 1:
            out = {}
            if st["member"] is not None:
                msg = Msg((st["member"], self.idw))
                for u in ctx.neighbors:
                    out[u] = msg
            return st, out, not ctx.neighbors, 2
        if st["member"] is None:
            seen = {msg.values[0] for msg in inbox.values()}
            if len(seen) > 1:
                raise ValueError(
                    f"node {ctx.node} borders clusters {sorted(seen)}; separation violated"
                )
            if seen:
                st["joined"] = seen.pop()
        return st, {}, True

    def output(self, ctx, st):
        return st["joined"]


def _induced_subproblem(graph, tree, edges, matched, member_nodes, solve_nodes):
    """Relabel a cluster's tree region densely, given its part of the
    cluster forest and the graph and matching edges inside the region.
    Communication uses the induced subgraph over the cluster's own tree,
    while the solved view holds the one-hop extended cluster and every edge
    with a member endpoint; a member's neighbors all share its origin, so
    they lie in the region. Edges between two attached nodes stay outside
    the solved view (they are covered by matched nodes outside clusters).
    The sub-graph keeps the parent's bandwidth: it is a part of the same
    network."""
    ordered = sorted(tree)
    to_sub = {v: i for i, v in enumerate(ordered)}
    edges = [(to_sub[u], to_sub[v]) for u, v in edges]
    sub_graph = build_graph(edges, extra_nodes=range(len(ordered))).with_bandwidth(graph.bandwidth)
    members = {to_sub[v] for v in member_nodes}
    solve = {to_sub[v] for v in solve_nodes}
    node_in = {i: i in solve for i in sub_graph.node_ids}
    edge_in = {e: e[0] in members or e[1] in members for e in sub_graph.edges}
    sub_view = SubgraphView(sub_graph, node_in, edge_in)
    m0 = Matching([(to_sub[u], to_sub[v]) for u, v in matched]).restricted_to(sub_view)
    forest = {
        to_sub[v]: (None if p is None else to_sub[p], tuple(to_sub[c] for c in cs))
        for v, (p, cs) in tree.items()
    }
    return sub_graph, sub_view, m0, forest, ordered


def combine_with_clusters(
    graph: BipartiteGraph,
    matching: Matching,
    cluster_set: ClusterSet,
    psi: float,
    *,
    seed: int = 0,
) -> tuple[VertexCover, RoundStats]:
    """Cover = matched nodes outside clusters + per-cluster covers of the
    one-hop extended cluster graphs, solved concurrently. One pass groups
    the nodes of `cluster_set.forest`, the graph edges and the matching
    edges by origin; each cluster solve then runs on its own group, over
    its cluster's tree, eliminates augmenting paths to length 2k-1 with
    k = ceil(2 / psi), and takes the layered cover, for a (1 + psi)
    guarantee."""
    k = ceil_ratio(2.0, psi, "psi")
    view = SubgraphView.whole(graph)
    stats = RoundStats()

    outputs, ext_stats = run(ExtendProgram(), graph, inputs=cluster_set.members, phase="extend")
    stats.add_sequential(ext_stats)

    x_nodes = {
        v
        for v in graph.node_ids
        if cluster_set.members.get(v) is None and matching.is_matched(v)
    }

    extended: dict[int, set[int]] = {}
    for v, joined in outputs.items():
        if joined is not None:
            extended.setdefault(joined, set()).add(v)

    in_tree, origin = cluster_set.forest, cluster_set.origin
    trees: dict[int, Forest] = {}
    for v, entry in in_tree.items():
        trees.setdefault(origin[v], {})[v] = entry
    edges: dict[int, list] = {}
    matched: dict[int, list] = {}
    for groups, pairs in ((edges, graph.edges), (matched, matching.edges)):
        for u, v in pairs:
            if u in in_tree and v in in_tree and origin[u] == origin[v]:
                groups.setdefault(origin[u], []).append((u, v))

    cover_nodes = set(x_nodes)
    inner_stats: list[RoundStats] = []
    members = cluster_set.clusters()
    for idx, c in enumerate(sorted(extended)):
        sub_graph, sub_view, m0, forest, ordered = _induced_subproblem(
            graph, trees[c], edges.get(c, ()), matched.get(c, ()), members[c], extended[c]
        )
        sub_seed = derive_seed(seed, 1000 + idx)
        k_c = min(k, max_useful_k(sub_graph))
        m1, _, st_i = eliminate_short_aug_paths(
            sub_graph, sub_view, m0, k_c, seed=derive_seed(sub_seed, 1), forest=forest
        )
        cover_i, cover_stats = koenig_approx_cover(sub_graph, sub_view, m1, k_c, forest=forest)
        st_i.add_sequential(cover_stats)
        inner_stats.append(st_i)
        cover_nodes.update(ordered[i] for i in cover_i.nodes)
    stats.add_parallel(inner_stats, "cluster-solves")

    cover = VertexCover(cover_nodes, view)
    if not cover.is_valid():
        raise AssertionError("combined cluster cover failed validation")
    return cover, stats


def randomized_pipeline(
    graph: BipartiteGraph,
    eps: float,
    *,
    seed: int = 0,
) -> tuple[VertexCover, RoundStats, ClusterSet]:
    """End-to-end randomized cover with expected size (1 + eps) times
    optimal: maximal matching, shifted-distance clustering at lam = eps/4,
    shrink, per-cluster trees, then cluster-wise covers at psi = eps/2."""
    if not 0.0 < eps <= 1.0:
        raise InvalidParam("eps must be in (0, 1]")
    lam, psi = eps / 4.0, eps / 2.0
    # A tiny eps underflows lam to 0 or overflows k = ceil(2 / psi).
    if lam == 0.0 or 2.0 / psi == math.inf:
        raise InvalidParam(f"eps = {eps!r} is too small")
    stats = RoundStats()
    matching, m_stats = maximal_matching(graph, seed=derive_seed(seed, 71))
    stats.add_sequential(m_stats)

    assignment, mpx_stats = mpx_partition(graph, lam, seed=derive_seed(seed, 72))
    stats.add_sequential(mpx_stats)

    cluster_set, shrink_stats = shrink_partition(graph, assignment)
    stats.add_sequential(shrink_stats)

    tree_stats = build_cluster_trees(graph, cluster_set)
    stats.add_sequential(tree_stats)

    cover, comb_stats = combine_with_clusters(
        graph,
        matching,
        cluster_set,
        psi,
        seed=derive_seed(seed, 75),
    )
    stats.add_sequential(comb_stats)
    return cover, stats, cluster_set

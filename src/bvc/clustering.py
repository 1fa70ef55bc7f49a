"""Randomized low-diameter clustering and the cluster-combination pipeline.

Nodes draw exponential head starts and join the origin minimizing hop
distance minus shift; the resulting clusters are connected, and after
dropping both endpoints of every inter-cluster edge they are 3-hop
separated. Each surviving cluster keeps a BFS tree rooted at its origin
inside the original (pre-shrink) region, so trees of different clusters
stay edge-disjoint even when shrinking disconnects a cluster's survivors.

The combination step covers everything outside clusters with matched
nodes, extends every cluster by one hop, and runs an inner cover solver in
all extended clusters at once; with edge-disjoint cluster regions the
parallel runs cost as many rounds as the slowest one.
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
    edge_key,
)
from .konig import koenig_approx_cover
from .matching import eliminate_short_aug_paths, maximal_matching
from .primitives import BfsTree, elect_leader_and_bfs
from .runtime import (
    Msg,
    NodeProgram,
    RoundStats,
    default_bandwidth,
    derive_seed,
    id_bits,
    run,
)


@dataclass
class ClusterSet:
    """Disjoint clusters with optional per-cluster spanning trees.

    `members` is the post-shrink assignment (None = outside clusters);
    `origin` the total pre-shrink assignment used for tree regions."""

    members: dict[int, int | None]
    origin: dict[int, int]
    trees: dict[int, BfsTree] = field(default_factory=dict)
    congestion: int = 0

    def clusters(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, c in self.members.items():
            if c is not None:
                out.setdefault(c, []).append(v)
        return {c: sorted(vs) for c, vs in out.items()}

    def max_tree_height(self) -> int:
        return max((t.height for t in self.trees.values()), default=0)

    def inside_fraction(self, matching: Matching) -> float:
        """Fraction of matching weight with both endpoints in one cluster."""
        if matching.size == 0:
            return 1.0
        inside = sum(
            1
            for u, v in matching.edges
            if self.members.get(u) is not None and self.members[u] == self.members.get(v)
        )
        return inside / matching.size


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

    def step(self, ctx, st, inbox, rnd, rng):
        kw, offset, idw = self.kw, self.offset, self.idw
        if st["best"] is None:
            shift = rng.expovariate(self.sigma) if self.sigma > 0 else 0.0
            while shift >= self.cap:
                shift = rng.expovariate(self.sigma)
            st["best"] = (-int(shift * self.scale), ctx.node)
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
    bandwidth: int | None = None,
) -> tuple[dict[int, int], RoundStats]:
    """Assign every node to an origin by exponentially shifted distances.

    Shifts use parameter sigma = lam / 4, a fixed-point grid of 1/n, and
    are resampled above n, so a key takes bitlength(2n^2) bits and a key
    with an origin id fits one frame of the default bandwidth."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParam("lam must be in (0, 1]")
    n = max(graph.n, 2)
    program = MpxPartitionProgram(lam / 4.0, n, n)
    outputs, stats = run(
        program,
        graph,
        seed=seed,
        bandwidth=bandwidth,
        allow_quiescence=True,
        phase="mpx",
    )
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
    *,
    bandwidth: int | None = None,
) -> tuple[ClusterSet, RoundStats]:
    """3-hop separated clusters: survivors kept all their neighbors, so
    nodes of different clusters cannot share a neighbor."""
    outputs, stats = run(
        ShrinkProgram(), graph, bandwidth=bandwidth, inputs=assignment, phase="shrink"
    )
    return ClusterSet(members=dict(outputs), origin=dict(assignment)), stats


class TreeBuildProgram(NodeProgram):
    """BFS trees rooted at each origin, grown only along edges whose both
    endpoints kept that origin in the pre-shrink assignment."""

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)

    def init(self, ctx):
        origin = ctx.input
        is_root = origin == ctx.node
        return {
            "origin": origin,
            "parent": None,
            "depth": 0 if is_root else None,
            "same": set(),
        }

    def step(self, ctx, st, inbox, rnd, rng):
        idw = self.idw
        dw = idw + 1
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
        if rnd == 2 and st["depth"] == 0:
            for u in st["same"]:
                out[u] = Msg((1, 1), (1, dw))
            return st, out, True
        if grows and st["depth"] is None:
            depth, parent = min(grows)
            st["depth"] = depth
            st["parent"] = parent
            for u in st["same"]:
                if u != parent:
                    out[u] = Msg((1, 1), (depth + 1, dw))
            return st, out, True
        return st, out, False, None

    def output(self, ctx, st):
        return {"origin": st["origin"], "parent": st["parent"], "depth": st["depth"]}


def build_cluster_trees(
    graph: BipartiteGraph,
    cluster_set: ClusterSet,
    *,
    bandwidth: int | None = None,
) -> RoundStats:
    """Fill in the spanning trees; every graph edge serves at most one
    tree because tree regions are the (vertex-disjoint) origin groups.

    Raises DisconnectedCluster if some surviving member is unreachable
    inside its own origin region (impossible for shifted-distance
    assignments, whose clusters are connected).
    """
    outputs, stats = run(
        TreeBuildProgram(),
        graph,
        bandwidth=bandwidth,
        inputs=cluster_set.origin,
        allow_quiescence=True,
        phase="cluster-trees",
    )
    trees: dict[int, BfsTree] = {}
    for v, o in outputs.items():
        if o["depth"] is None:
            if cluster_set.members.get(v) is not None:
                raise DisconnectedCluster(f"member {v} unreachable from origin {o['origin']}")
            continue
        root = o["origin"]
        tree = trees.get(root)
        if tree is None:
            tree = trees[root] = BfsTree(root, {}, {}, 0)
        tree.parent[v] = o["parent"]
        tree.depth[v] = o["depth"]
        tree.height = max(tree.height, o["depth"])
    # Drop trees of fully-shrunk clusters; keep those with surviving members.
    live = {c for c, vs in cluster_set.clusters().items() if vs}
    cluster_set.trees = {c: t for c, t in trees.items() if c in live}
    cluster_set.congestion = 1 if cluster_set.trees else 0
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


def _induced_subproblem(graph, region_nodes, member_nodes, crossing_edges):
    """Relabel a region densely; communication uses the induced subgraph,
    while the solved view holds the cluster members, the crossing-edge
    endpoints, the member-member edges, and the crossing edges. Edges
    between two attached nodes stay outside the solved view (they are
    covered by matched nodes outside clusters)."""
    ordered = sorted(region_nodes)
    to_sub = {v: i for i, v in enumerate(ordered)}
    edges = [
        (to_sub[u], to_sub[v]) for u, v in graph.edges if u in to_sub and v in to_sub
    ]
    sub_graph = build_graph(edges, extra_nodes=range(len(ordered)))
    members = {to_sub[v] for v in member_nodes}
    crossing = {edge_key(to_sub[u], to_sub[v]) for u, v in crossing_edges}
    in_nodes = set(members)
    for u, v in crossing:
        in_nodes.add(u)
        in_nodes.add(v)
    node_in = {i: i in in_nodes for i in sub_graph.node_ids}
    edge_in = {
        e: (e[0] in members and e[1] in members) or e in crossing
        for e in sub_graph.edges
    }
    sub_view = SubgraphView(sub_graph, node_in, edge_in)
    return sub_graph, sub_view, to_sub, ordered


def combine_with_clusters(
    graph: BipartiteGraph,
    matching: Matching,
    cluster_set: ClusterSet,
    psi: float,
    *,
    seed: int = 0,
    bandwidth: int | None = None,
) -> tuple[VertexCover, RoundStats]:
    """Cover = matched nodes outside clusters + per-cluster covers of the
    one-hop extended cluster graphs, solved concurrently. Each cluster
    solve elects on its sub-graph, eliminates augmenting paths to length
    2k-1 with k = ceil(2 / psi), and takes the layered cover, for a
    (1 + psi) guarantee."""
    if not 0.0 < psi <= 1.0:
        raise InvalidParam("psi must be in (0, 1]")
    k = math.ceil(2.0 / psi)
    bw = bandwidth if bandwidth is not None else default_bandwidth(graph.n)
    view = SubgraphView.whole(graph)
    stats = RoundStats()

    outputs, ext_stats = run(
        ExtendProgram(), graph, bandwidth=bw, inputs=cluster_set.members, phase="extend"
    )
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
    crossing: dict[int, list] = {}
    for u, v in graph.edges:
        cu, cv = cluster_set.members.get(u), cluster_set.members.get(v)
        if cu is not None and cv is None:
            crossing.setdefault(cu, []).append((u, v))
        elif cv is not None and cu is None:
            crossing.setdefault(cv, []).append((u, v))

    cover_nodes = set(x_nodes)
    inner_stats: list[RoundStats] = []
    members_by_cluster = cluster_set.clusters()
    for idx, c in enumerate(sorted(extended)):
        solve_nodes = extended[c]
        if not solve_nodes:
            continue
        region = {v for v in graph.node_ids if cluster_set.origin.get(v) == c}
        region |= solve_nodes
        sub_graph, sub_view, to_sub, ordered = _induced_subproblem(
            graph, region, members_by_cluster.get(c, []), crossing.get(c, [])
        )
        m0_edges = [
            (to_sub[u], to_sub[v])
            for u, v in matching.edges
            if u in to_sub and v in to_sub and sub_view.contains_edge(to_sub[u], to_sub[v])
        ]
        m0 = Matching(m0_edges, sub_view)
        sub_seed = derive_seed(seed, 1000 + idx)
        forest, st_i = elect_leader_and_bfs(sub_graph, bandwidth=bw)
        m1, elim_stats = eliminate_short_aug_paths(
            sub_graph, sub_view, m0, k, seed=derive_seed(sub_seed, 1), bandwidth=bw, forest=forest
        )
        st_i.add_sequential(elim_stats)
        cover_i, cover_stats = koenig_approx_cover(
            sub_graph, sub_view, m1, k, forest=forest, bandwidth=bw
        )
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
    bandwidth: int | None = None,
) -> tuple[VertexCover, RoundStats, ClusterSet]:
    """End-to-end randomized cover with expected size (1 + eps) times
    optimal: maximal matching, shifted-distance clustering at lam = eps/4,
    shrink, per-cluster trees, then cluster-wise covers at psi = eps/2."""
    if not 0.0 < eps <= 1.0:
        raise InvalidParam("eps must be in (0, 1]")
    stats = RoundStats()
    matching, m_stats = maximal_matching(graph, seed=derive_seed(seed, 71), bandwidth=bandwidth)
    stats.add_sequential(m_stats)

    lam = eps / 4.0
    assignment, mpx_stats = mpx_partition(
        graph, lam, seed=derive_seed(seed, 72), bandwidth=bandwidth
    )
    stats.add_sequential(mpx_stats)

    cluster_set, shrink_stats = shrink_partition(graph, assignment, bandwidth=bandwidth)
    stats.add_sequential(shrink_stats)

    tree_stats = build_cluster_trees(graph, cluster_set, bandwidth=bandwidth)
    stats.add_sequential(tree_stats)

    cover, comb_stats = combine_with_clusters(
        graph,
        matching,
        cluster_set,
        eps / 2.0,
        seed=derive_seed(seed, 75),
        bandwidth=bandwidth,
    )
    stats.add_sequential(comb_stats)
    return cover, stats, cluster_set

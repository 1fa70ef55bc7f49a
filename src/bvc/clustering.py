"""Randomized low-diameter clustering and the cluster-combination pipeline.

Nodes draw exponential head starts and join the origin minimizing hop
distance minus shift; the resulting clusters are connected, and after
dropping both endpoints of every inter-cluster edge they are 3-hop
separated. The relaxation leaves every node holding each neighbor's final
candidate, so it also fixes each node's peers (the neighbors of its own
origin) and its parent one BFS level closer to the origin. After it, one
message per peer edge tells each node its children and attaches every
non-member next to a member to that member's cluster: the one-hop
extension. Each surviving cluster keeps this BFS tree of its original
(pre-shrink) origin region, so trees of different clusters stay
edge-disjoint even when shrinking disconnects a cluster's survivors.

The combination step covers everything outside clusters with matched
nodes and runs an inner cover solver in all extended clusters at once,
each over its cluster's tree; with edge-disjoint cluster regions the
parallel runs cost as many rounds as the slowest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidParam
from .graph import BipartiteGraph, Matching, SubgraphView, VertexCover, build_graph
from .konig import koenig_approx_cover
from .matching import ceil_ratio, eliminate_short_aug_paths, maximal_matching, max_useful_k
from .primitives import Forest
from .runtime import Msg, NodeProgram, RoundStats, derive_seed, id_bits, run


@dataclass
class ClusterSet:
    """Disjoint clusters and, once `build_cluster_trees` ran, their
    spanning trees and one-hop extensions.

    `members` is the post-shrink assignment (None = outside clusters);
    `origin` the total pre-shrink assignment, whose groups are the tree
    regions; `peers` each node's sorted neighbors of the same origin;
    `parent` each node's smallest-id peer one BFS level closer to its
    origin, None at the origin. `forest` holds the tree of every cluster
    with surviving members, over its origin region, rooted at the origin;
    `max_tree_height` is the largest depth in it. `attached` holds the
    non-members next to a member: each extends its own origin's cluster by
    one hop."""

    members: dict[int, int | None]
    origin: dict[int, int]
    peers: dict[int, tuple[int, ...]]
    parent: dict[int, int | None]
    forest: Forest = field(default_factory=dict)
    max_tree_height: int = 0
    attached: set[int] = field(default_factory=set)

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

    Each node keeps the last candidate it heard from every neighbor and
    outputs (origin, parent): the parent is the smallest-id neighbor whose
    last candidate equals the node's final best, None at an origin (whose
    neighbors all offer more than its own key). This is the BFS parent in
    the origin region:
    - a node sends its best in round 1 and again on every change, so its
      last message is its final best;
    - MPX regions contain their shortest paths to the origin: a neighbor u
      of v one hop closer to v's origin o offers at most v's key, and any
      better candidate of u would have improved v's;
    - so the rule picks the smallest id among the nodes of v's region one
      BFS level closer to o.
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
        return {"best": None, "sent": None, "heard": {}}

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
            st["heard"][u] = cand
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
        best = st["best"]
        return best[1], min((u for u, c in st["heard"].items() if c == best), default=None)


def mpx_partition(
    graph: BipartiteGraph,
    lam: float,
    *,
    seed: int = 0,
) -> tuple[dict[int, int], dict[int, int | None], RoundStats]:
    """Assign every node to an origin by exponentially shifted distances;
    returns the assignment, each node's parent (see MpxPartitionProgram)
    and the run's stats.

    Shifts use parameter sigma = lam / 4, a fixed-point grid of 1/n, and
    are conditioned below n, so a key takes bitlength(2n^2) bits and a key
    with an origin id fits one frame of the default bandwidth."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParam("lam must be in (0, 1]")
    n = max(graph.n, 2)
    program = MpxPartitionProgram(lam / 4.0, n, n)
    outputs, stats = run(program, graph, seed=seed, allow_quiescence=True, phase="mpx")
    assignment = {v: origin for v, (origin, _) in outputs.items()}
    parent = {v: p for v, (_, p) in outputs.items()}
    return assignment, parent, stats


def shrink_partition(
    graph: BipartiteGraph,
    assignment: dict[int, int],
    parent: dict[int, int | None],
) -> ClusterSet:
    """3-hop separated clusters: a node stays a member when all its
    neighbors are peers (share its origin), so nodes of different clusters
    cannot share a neighbor. Every node already holds its neighbors'
    origins from the relaxation, so this sends nothing."""
    peers = {
        v: tuple(u for u in graph.adjacency[v] if assignment[u] == assignment[v])
        for v in graph.node_ids
    }
    members = {
        v: assignment[v] if len(peers[v]) == len(graph.adjacency[v]) else None
        for v in graph.node_ids
    }
    return ClusterSet(members, dict(assignment), peers, dict(parent))


class TreeBuildProgram(NodeProgram):
    """One exchange over the peer edges. Input per node: (member flag,
    parent, peers). In round 1 each node sends each peer one 2-bit message,
    "you are my parent" and "I am a member"; in round 2 it reads its
    children, the senders that named it parent, and halts. A node without
    peers halts in round 1, so the run takes 2 rounds, or 1 when no node
    has a peer.

    A non-member that hears a member flag is attached: it joins its own
    origin's cluster, which is that of every member next to it, since a
    member's neighbors are all its peers. `init` refuses a member with a
    neighbor outside its origin region, which could put two clusters next
    to one node."""

    def init(self, ctx):
        member, _, peers = ctx.input
        if member and len(peers) != len(ctx.neighbors):
            raise ValueError(
                f"member {ctx.node} has a neighbor of another origin; separation violated"
            )
        return (), False

    def step(self, ctx, st, inbox, rnd, rng):
        member, parent, peers = ctx.input
        if rnd == 1:
            flag = (int(member), 1)
            to_parent, to_other = Msg((1, 1), flag), Msg((0, 1), flag)
            out = {u: to_parent if u == parent else to_other for u in peers}
            return st, out, not peers
        children = tuple(u for u, msg in inbox.items() if msg.values[0])
        attached = not member and any(msg.values[1] for msg in inbox.values())
        return (children, attached), {}, True


def build_cluster_trees(graph: BipartiteGraph, cluster_set: ClusterSet) -> RoundStats:
    """Fill in `cluster_set.forest`, `max_tree_height` and `attached`;
    every graph edge serves at most one tree because tree regions are the
    (vertex-disjoint) origin groups.

    Raises ProgramFault ("separation violated") if a member has a neighbor
    outside its origin region."""
    members, parent, peers = cluster_set.members, cluster_set.parent, cluster_set.peers
    inputs = {v: (members[v] is not None, parent[v], peers[v]) for v in graph.node_ids}
    outputs, stats = run(TreeBuildProgram(), graph, inputs=inputs, phase="cluster-trees")
    # Only clusters with surviving members keep their trees.
    live, origin = set(members.values()), cluster_set.origin
    forest = cluster_set.forest
    for v, (children, attached) in outputs.items():
        if origin[v] in live:
            forest[v] = parent[v], children
        if attached:
            cluster_set.attached.add(v)
    depth = {None: -1}
    for v in forest:
        chain = []
        while v not in depth:
            chain.append(v)
            v = parent[v]
        for u in reversed(chain):
            depth[u] = depth[parent[u]] + 1
    cluster_set.max_tree_height = max(0, *depth.values())
    return stats


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
    one-hop extended cluster graphs, solved concurrently. A cluster's
    extension is its members and the nodes `build_cluster_trees` attached
    to it. One pass groups the nodes of `cluster_set.forest`, the graph
    edges and the matching edges by origin; each cluster solve then runs
    on its own group, over its cluster's tree, eliminates augmenting paths
    to length 2k-1 with k = ceil(2 / psi), and takes the layered cover,
    read off the elimination's last, empty check when it ran one, for a
    (1 + psi) guarantee. A cluster whose region has no edge runs no solve."""
    k = ceil_ratio(2.0, psi, "psi")
    view = SubgraphView.whole(graph)
    stats = RoundStats()

    x_nodes = {
        v
        for v in graph.node_ids
        if cluster_set.members.get(v) is None and matching.is_matched(v)
    }

    members = cluster_set.clusters()
    extended = {c: set(vs) for c, vs in members.items()}
    for v in cluster_set.attached:
        extended[cluster_set.origin[v]].add(v)

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
    for idx, c in enumerate(sorted(extended)):
        if c not in edges:
            # A region without an edge is a lone node, with nothing to
            # cover; `idx` still counts it, so the other seeds stay put.
            continue
        sub_graph, sub_view, m0, forest, ordered = _induced_subproblem(
            graph, trees[c], edges[c], matched.get(c, ()), members[c], extended[c]
        )
        sub_seed = derive_seed(seed, 1000 + idx)
        k_c = min(k, max_useful_k(sub_graph))
        m1, layering, st_i = eliminate_short_aug_paths(
            sub_graph, sub_view, m0, k_c, seed=derive_seed(sub_seed, 1), forest=forest
        )
        cover_i, cover_stats = koenig_approx_cover(
            sub_graph, sub_view, m1, k_c, forest=forest, layering=layering
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

    assignment, parent, mpx_stats = mpx_partition(graph, lam, seed=derive_seed(seed, 72))
    stats.add_sequential(mpx_stats)

    cluster_set = shrink_partition(graph, assignment, parent)
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

"""Randomized low-diameter clustering and the cluster-combination pipeline.

Nodes draw exponential head starts and join the origin minimizing hop
distance minus shift; the resulting clusters are connected, and after
dropping both endpoints of every inter-cluster edge they are 3-hop
separated. The relaxation sends a candidate only where it can change the
receiver, and still fixes each node's parent one BFS level closer to the
origin. A node's neighbors may hold an old origin of it, so a 3-round
exchange follows: it gives every node its neighbors' origins, hence its
peers (the neighbors of its own origin), tells each node its children and
attaches every non-member next to a member to that member's cluster: the
one-hop extension. Each surviving cluster keeps this BFS tree of its
original (pre-shrink) origin region, so trees of different clusters stay
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
    origin, None at the origin; `stale` each node's neighbors, other than
    its parent, that do not yet hold its origin. `forest` holds the tree of
    every cluster with surviving members, over its origin region, rooted at
    the origin; `max_tree_height` is the largest depth in it. `attached`
    holds the non-members next to a member: each extends its own origin's
    cluster by one hop."""

    members: dict[int, int | None]
    origin: dict[int, int]
    peers: dict[int, tuple[int, ...]]
    parent: dict[int, int | None]
    stale: dict[int, tuple[int, ...]]
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

    A node sends only what can change its receiver. It sends its best in
    round 1, and a new best b to a neighbor u only while it has not heard
    from u or (b.key + scale, b.origin) is at most the last candidate u
    sent it: u's best never exceeds what u last sent, so any other
    message could neither improve u nor tie it. A last candidate that u
    has since improved on is larger than u's best, which only makes the
    node send more.

    Each node keeps the last candidate it heard from every neighbor, and
    `mpx_partition` reads (origin, parent, stale) off its final state: the
    origin is its best's, the parent is the smallest-id neighbor
    whose last candidate equals the node's final best, None at an origin
    (whose neighbors all offer more than its own key). This is the BFS
    parent in the origin region:
    - every neighbor u whose final best b_u gives b_u + scale <= v's final
      best, a tie at most, sent v that b_u, since it could tie v; so the
      last candidate v heard from u equals v's final best exactly when
      b_u + scale does;
    - MPX regions contain their shortest paths to the origin: a neighbor u
      of v one hop closer to v's origin o offers at most v's key, and any
      better candidate of u would have improved v's;
    - so the rule picks the smallest id among the nodes of v's region one
      BFS level closer to o.

    A neighbor that could not be improved may hold an old origin of the
    node: `stale` lists the neighbors, other than the parent, whose last
    candidate from the node named another origin. `TreeBuildProgram` tells
    them the final one.
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
        # told: the origin last sent to each neighbor
        return {"best": None, "sent": None, "heard": {}, "told": {}}

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
        best = st["best"]
        if best != st["sent"]:
            st["sent"] = best
            msg = Msg((best[0] + offset, kw), (best[1], idw))
            # u's best is at most what it last sent, heard[u] - scale, so
            # best + scale can improve or tie u only if it is no larger.
            reach = (best[0] + 2 * self.scale, best[1])
            heard, told = st["heard"], st["told"]
            for u in ctx.neighbors:
                last = heard.get(u)
                if last is None or reach <= last:
                    out[u] = msg
                    told[u] = best[1]
        return st, out, False, None


def mpx_partition(
    graph: BipartiteGraph,
    lam: float,
    *,
    seed: int = 0,
) -> tuple[dict[int, int], dict[int, int | None], dict[int, tuple[int, ...]], RoundStats]:
    """Assign every node to an origin by exponentially shifted distances;
    returns the assignment, each node's parent and stale neighbors (see
    MpxPartitionProgram) and the run's stats.

    Shifts use parameter sigma = lam / 4, a fixed-point grid of 1/n, and
    are conditioned below n, so a key takes bitlength(2n^2) bits and a key
    with an origin id fits one frame of the default bandwidth."""
    if not 0.0 < lam <= 1.0:
        raise InvalidParam("lam must be in (0, 1]")
    n = max(graph.n, 2)
    program = MpxPartitionProgram(lam / 4.0, n, n)
    states, stats = run(program, graph, seed=seed, allow_quiescence=True, phase="mpx")
    assignment, parent, stale = {}, {}, {}
    for v, st in states.items():
        best = st["best"]
        assignment[v] = best[1]
        parent[v] = p = min((u for u, c in st["heard"].items() if c == best), default=None)
        stale[v] = tuple(u for u, o in st["told"].items() if o != best[1] and u != p)
    return assignment, parent, stale, stats


def shrink_partition(
    graph: BipartiteGraph,
    assignment: dict[int, int],
    parent: dict[int, int | None],
    stale: dict[int, tuple[int, ...]],
) -> ClusterSet:
    """3-hop separated clusters: a node stays a member when all its
    neighbors are peers (share its origin), so nodes of different clusters
    cannot share a neighbor. Each node learns its neighbors' origins in the
    first round of `build_cluster_trees`, which sends its origin to the
    neighbors in its `stale` list, so this sends nothing."""
    peers = {
        v: tuple(u for u in graph.adjacency[v] if assignment[u] == assignment[v])
        for v in graph.node_ids
    }
    members = {
        v: assignment[v] if len(peers[v]) == len(graph.adjacency[v]) else None
        for v in graph.node_ids
    }
    return ClusterSet(members, dict(assignment), peers, dict(parent), dict(stale))


_CHILD = 0
_ORIGIN = 1


class TreeBuildProgram(NodeProgram):
    """The exchange that completes each node's view of its neighbors'
    origins, then builds the trees and the one-hop extension. Each node
    reads its membership, parent, peers, origin and stale neighbors in
    `cluster_set`.
    - Round 1: a node sends its parent a 1-bit "child" tag, which also
      names its origin (a child shares its parent's), and each stale
      neighbor a tag and its origin, id_bits + 1 bits. Every other neighbor
      already holds its origin from the relaxation.
    - Round 2: a node reads its children, the senders of "child". It now
      holds every neighbor's origin, hence its peers and whether it is a
      member; a member sends each neighbor, all of them peers, a 1-bit
      member flag.
    - Round 3: a non-member that heard a member flag is attached: it joins
      its own origin's cluster, which is that of every member next to it.
      Every node halts.
    A node without neighbors halts in round 1, so the run takes 3 rounds,
    or 1 on an edgeless graph. `init` refuses a member with a neighbor
    outside its origin region, which could put two clusters next to one
    node."""

    def __init__(self, cluster_set: ClusterSet):
        self.clusters = cluster_set

    def setup(self, n, bandwidth):
        self.idw = id_bits(n)
        self.child, self.member = Msg((_CHILD, 1)), Msg((1, 1))

    def init(self, ctx):
        cs, v = self.clusters, ctx.node
        if cs.members[v] is not None and len(cs.peers[v]) != len(ctx.neighbors):
            raise ValueError(f"member {v} has a neighbor of another origin; separation violated")
        return (), False

    def step(self, ctx, st, inbox, rnd, rng):
        cs, v = self.clusters, ctx.node
        member = cs.members[v] is not None
        if rnd == 1:
            out = dict.fromkeys(cs.stale[v], Msg((_ORIGIN, 1), (cs.origin[v], self.idw)))
            parent = cs.parent[v]
            if parent is not None:
                out[parent] = self.child
            return st, out, not ctx.neighbors, 2
        if rnd == 2:
            children = tuple(u for u, msg in inbox.items() if msg.values[0] == _CHILD)
            out = dict.fromkeys(ctx.neighbors, self.member) if member else {}
            return (children, False), out, False, 3
        return (st[0], not member and bool(inbox)), {}, True, None


def build_cluster_trees(graph: BipartiteGraph, cluster_set: ClusterSet) -> RoundStats:
    """Fill in `cluster_set.forest`, `max_tree_height` and `attached`;
    every graph edge serves at most one tree because tree regions are the
    (vertex-disjoint) origin groups.

    Raises ProgramFault ("separation violated") if a member has a neighbor
    outside its origin region."""
    members, parent, origin = cluster_set.members, cluster_set.parent, cluster_set.origin
    states, stats = run(TreeBuildProgram(cluster_set), graph, phase="cluster-trees")
    # Only clusters with surviving members keep their trees.
    live = set(members.values())
    forest = cluster_set.forest
    for v, (children, attached) in states.items():
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
    sub_edges = [e for e in sub_graph.edges if e[0] in members or e[1] in members]
    sub_view = SubgraphView(sub_graph, [to_sub[v] for v in solve_nodes], sub_edges)
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

    assignment, parent, stale, mpx_stats = mpx_partition(graph, lam, seed=derive_seed(seed, 72))
    stats.add_sequential(mpx_stats)

    cluster_set = shrink_partition(graph, assignment, parent, stale)
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

"""Bipartite graph structures, matchings, covers, views, and generators.

Node ids are dense non-negative integers. Every graph is validated to be
2-colorable at construction time; the two sides are called "A" and "B" and
are assigned per connected component by BFS parity with the smallest id as
the A-side root.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Iterator, NamedTuple

from .errors import DuplicateEdge, InvalidParam, OddCycle

Edge = tuple[int, int]

SIDE_A = "A"
SIDE_B = "B"


def edge_key(u: int, v: int) -> Edge:
    """Canonical (low, high) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def default_bandwidth(n: int) -> int:
    """Default per-edge, per-round budget: 4 * ceil(log2 n) bits, but never
    below the floor of ceil(log2 n) + 4."""
    return max(4 * ceil_log2(n), ceil_log2(n) + 4)


class NodeContext(NamedTuple):
    """What a node knows a priori besides n and B, which a program receives
    in `setup`. Immutable. A node knows its neighbors' ids before round 1,
    the KT1 model of CONGEST, which the leader election's silent start
    reads."""

    node: int
    side: str
    in_view: bool
    neighbors: tuple[int, ...]
    view_neighbors: tuple[int, ...]


class NodeContexts(dict):
    """node -> NodeContext, each built on first use and kept. A `nodes` or
    `edges` of None puts every node or edge in view. It holds no graph or
    view, so the one that keeps it forms no reference cycle."""

    __slots__ = ("_side", "_adjacency", "_nodes", "_edges")

    def __init__(self, side, adjacency, nodes=None, edges=None):
        super().__init__()
        self._side, self._adjacency, self._nodes, self._edges = side, adjacency, nodes, edges

    def __missing__(self, v: int) -> NodeContext:
        adj = self._adjacency[v]
        nodes, edges = self._nodes, self._edges
        nbrs = adj if edges is None else tuple(u for u in adj if edge_key(u, v) in edges)
        in_view = nodes is None or v in nodes
        ctx = self[v] = NodeContext(v, self._side[v], in_view, adj, nbrs)
        return ctx


class BipartiteGraph:
    """Immutable bipartite graph: a network together with its bandwidth.

    Attributes:
        node_ids: sorted tuple of node ids.
        side: node -> "A" or "B".
        adjacency: node -> sorted tuple of neighbors.
        n: number of nodes.
        max_degree: maximum adjacency list length (0 for edgeless graphs).
        bandwidth: B, the bits one edge carries per round; every run on
            this graph uses it. default_bandwidth(n) unless set with
            with_bandwidth().
        contexts: node -> NodeContext in the whole graph, which every run
            without a view reads.
    """

    __slots__ = (
        "node_ids", "side", "adjacency", "n", "max_degree", "bandwidth", "_edges",
        "_neighbor_sets", "contexts",
    )

    def __init__(self, node_ids, side, adjacency, edges):
        self.node_ids: tuple[int, ...] = node_ids
        self.side: dict[int, str] = side
        self.adjacency: dict[int, tuple[int, ...]] = adjacency
        self.n: int = len(node_ids)
        self.max_degree: int = max((len(a) for a in adjacency.values()), default=0)
        self.bandwidth: int = default_bandwidth(self.n)
        self._edges: tuple[Edge, ...] = edges
        self._neighbor_sets: dict[int, frozenset[int]] | None = None
        self.contexts = NodeContexts(side, adjacency)

    def with_bandwidth(self, bandwidth: int) -> "BipartiteGraph":
        """The same network with B = `bandwidth`: a new graph that shares
        this one's node ids, sides, adjacency and edges.

        Raises InvalidParam below the floor ceil(log2 n) + 4."""
        floor = ceil_log2(self.n) + 4
        if bandwidth < floor:
            raise InvalidParam(f"bandwidth {bandwidth} below floor {floor}")
        graph = BipartiteGraph(self.node_ids, self.side, self.adjacency, self._edges)
        graph.bandwidth = bandwidth
        graph._neighbor_sets = self._neighbor_sets
        return graph

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def m(self) -> int:
        return len(self._edges)

    def neighbor_sets(self) -> dict[int, frozenset[int]]:
        """node -> its neighbors as a set, built on first use."""
        if self._neighbor_sets is None:
            self._neighbor_sets = {v: frozenset(a) for v, a in self.adjacency.items()}
        return self._neighbor_sets

    def __repr__(self) -> str:  # pragma: no cover
        return f"BipartiteGraph(n={self.n}, m={self.m}, max_degree={self.max_degree})"


def build_graph(edge_list: Iterable[tuple[int, int]], extra_nodes: Iterable[int] = ()) -> BipartiteGraph:
    """Validate an edge list and return a bipartite graph.

    Side assignment is BFS parity per component with the smallest-id node
    as the A-side root, which makes construction deterministic.

    Raises:
        InvalidParam: on self-loops or negative ids.
        DuplicateEdge: if an edge appears twice.
        OddCycle: if the edge list is not 2-colorable.
    """
    seen_edges: set[Edge] = set()
    nodes: set[int] = set(extra_nodes)
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in edge_list:
        if u == v:
            raise InvalidParam(f"self-loop at node {u}")
        if u < 0 or v < 0:
            raise InvalidParam("node ids must be non-negative")
        e = edge_key(u, v)
        if e in seen_edges:
            raise DuplicateEdge(f"edge {e} repeated")
        seen_edges.add(e)
        for x in (u, v):
            if x not in adj:
                adj[x] = []
                nodes.add(x)
        adj[u].append(v)
        adj[v].append(u)

    side: dict[int, str] = {}
    for root in sorted(nodes):
        if root in side:
            continue
        side[root] = SIDE_A
        queue = deque([root])
        while queue:
            x = queue.popleft()
            nxt = SIDE_B if side[x] == SIDE_A else SIDE_A
            for y in adj[x]:
                if y not in side:
                    side[y] = nxt
                    queue.append(y)
                elif side[y] == side[x]:
                    raise OddCycle(f"edge ({x},{y}) joins two {side[x]}-side nodes")

    node_ids = tuple(sorted(nodes))
    adjacency = {v: tuple(sorted(adj[v])) for v in node_ids}
    edges = tuple(sorted(seen_edges))
    return BipartiteGraph(node_ids, side, adjacency, edges)


class SubgraphView:
    """A node set and an edge set of a base graph, kept sorted as `in_nodes`
    and `in_edges` and as the sets `nodes` and `edges`.

    Building a view costs O(k log k) in the k nodes and edges it names,
    O(k) when they come in base order, plus one pass over the base
    neighbors of each edge's low end, and nothing for the rest of the base.
    An edge is a (low, high) pair as in `base.edges`. A node or edge named
    twice or missing from the base, and an edge with an endpoint outside
    the view, raise InvalidParam. Views are immutable; derive new ones
    with without_nodes(). It and whole() keep tuples already known to pass
    those checks, so they skip them and cost O(the nodes and edges kept).
    `contexts` maps each base node to its NodeContext in the view, which
    every run over the view reads; a view of the whole graph shares the
    graph's.
    """

    __slots__ = ("base", "in_nodes", "in_edges", "nodes", "edges", "contexts")

    def __init__(self, base: BipartiteGraph, nodes: Iterable[int], edges: Iterable[Edge]):
        # Sorting the caller's sequence, not a set, takes linear time on one
        # already in order.
        in_nodes, in_edges = tuple(sorted(nodes)), tuple(sorted(edges))
        nodes, edges = frozenset(in_nodes), frozenset(in_edges)
        if len(nodes) < len(in_nodes) or len(edges) < len(in_edges):
            raise InvalidParam("a view names a node or an edge twice")
        adjacency = base.adjacency
        if not adjacency.keys() >= nodes:
            raise InvalidParam(f"node {min(nodes - adjacency.keys())} is not in the base graph")
        low = nbrs = None
        for u, v in in_edges:
            if u not in nodes or v not in nodes:
                raise InvalidParam(f"edge ({u},{v}) in view but an endpoint is not")
            if u != low:  # one pass over a low end's sorted neighbors finds all its edges
                low, nbrs = u, iter(adjacency[u])
            if not u < v or v not in nbrs:
                raise InvalidParam(f"({u},{v}) is not an edge of the base graph")
        self._fill(base, in_nodes, in_edges, nodes, edges)

    def _fill(self, base, in_nodes, in_edges, nodes, edges) -> None:
        self.base, self.in_nodes, self.in_edges = base, in_nodes, in_edges
        self.nodes, self.edges = nodes, edges
        if len(in_nodes) == base.n and len(in_edges) == base.m:
            self.contexts = base.contexts
        else:
            partial = edges if len(in_edges) < base.m else None
            self.contexts = NodeContexts(base.side, base.adjacency, nodes, partial)

    @classmethod
    def _unchecked(cls, base: BipartiteGraph, in_nodes: tuple, in_edges: tuple) -> "SubgraphView":
        """A view of sorted tuples already known to pass the constructor's checks."""
        view = cls.__new__(cls)
        view._fill(base, in_nodes, in_edges, frozenset(in_nodes), frozenset(in_edges))
        return view

    @classmethod
    def whole(cls, base: BipartiteGraph) -> "SubgraphView":
        """The view of everything."""
        return cls._unchecked(base, base.node_ids, base.edges)

    def without_nodes(self, removed: Iterable[int]) -> "SubgraphView":
        gone = set(removed)
        nodes = tuple(v for v in self.in_nodes if v not in gone)
        edges = tuple(e for e in self.in_edges if e[0] not in gone and e[1] not in gone)
        return self._unchecked(self.base, nodes, edges)

    def contains_node(self, v: int) -> bool:
        return v in self.nodes

    def contains_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def view_neighbors(self, v: int) -> Iterator[int]:
        for u in self.base.adjacency[v]:
            if edge_key(u, v) in self.edges:
                yield u

    def view_degree(self, v: int) -> int:
        return sum(1 for _ in self.view_neighbors(v))


class Matching:
    """A set of vertex-disjoint edges with a partner lookup."""

    __slots__ = ("edges", "partner")

    def __init__(self, edges: Iterable[Edge], view: SubgraphView | None = None):
        canon = {edge_key(u, v) for u, v in edges}
        partner: dict[int, int] = {}
        for u, v in sorted(canon):
            if u in partner or v in partner:
                raise InvalidParam(f"matching edges share node in ({u},{v})")
            if view is not None and not view.contains_edge(u, v):
                raise InvalidParam(f"matching edge ({u},{v}) is not in the view")
            partner[u] = v
            partner[v] = u
        self.edges: frozenset[Edge] = frozenset(canon)
        self.partner = partner

    @property
    def size(self) -> int:
        return len(self.edges)

    def partner_of(self, v: int) -> int | None:
        return self.partner.get(v)

    def is_matched(self, v: int) -> bool:
        return v in self.partner

    def restricted_to(self, view: SubgraphView) -> "Matching":
        """Edges whose endpoints and edge are all still in the view."""
        return Matching(self.edges & view.edges, view)


class VertexCover:
    """A node set declared as a cover of a specific view."""

    __slots__ = ("nodes", "declared_against")

    def __init__(self, nodes: Iterable[int], declared_against: SubgraphView):
        self.nodes: frozenset[int] = frozenset(nodes)
        self.declared_against = declared_against

    @property
    def size(self) -> int:
        return len(self.nodes)

    def is_valid(self) -> bool:
        return is_vertex_cover(self.declared_against, self.nodes)


def is_vertex_cover(view: SubgraphView, nodes: Iterable[int]) -> bool:
    """True iff every in-view edge has an endpoint in `nodes`."""
    cover = set(nodes)
    if not cover <= view.nodes:
        raise InvalidParam(f"cover node {min(cover - view.nodes)} is not in the view")
    return all(u in cover or v in cover for u, v in view.in_edges)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_random(na: int, nb: int, p: float, seed: int) -> BipartiteGraph:
    if na <= 0 or nb <= 0:
        raise InvalidParam("random family needs na, nb > 0")
    if not 0.0 <= p <= 1.0:
        raise InvalidParam("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = []
    for a in range(na):
        for b in range(nb):
            if rng.random() < p:
                edges.append((a, na + b))
    return build_graph(edges, extra_nodes=range(na + nb))


def gen_path(n: int) -> BipartiteGraph:
    if n <= 0:
        raise InvalidParam("path needs n > 0")
    return build_graph([(i, i + 1) for i in range(n - 1)], extra_nodes=range(n))


def gen_even_cycle(n: int) -> BipartiteGraph:
    if n < 4 or n % 2 != 0:
        raise InvalidParam("even_cycle needs even n >= 4")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return build_graph(edges)


def gen_complete(na: int, nb: int) -> BipartiteGraph:
    if na <= 0 or nb <= 0:
        raise InvalidParam("complete family needs na, nb > 0")
    return build_graph([(a, na + b) for a in range(na) for b in range(nb)])


def gen_disjoint_edges(m: int) -> BipartiteGraph:
    if m <= 0:
        raise InvalidParam("disjoint_edges needs m > 0")
    return build_graph([(2 * i, 2 * i + 1) for i in range(m)])


# family -> (generator, its parameters and their types); "random" also takes the seed
_FAMILIES = {
    "random": (gen_random, {"na": int, "nb": int, "p": float}),
    "path": (gen_path, {"n": int}),
    "even_cycle": (gen_even_cycle, {"n": int}),
    "complete": (gen_complete, {"na": int, "nb": int}),
    "disjoint_edges": (gen_disjoint_edges, {"m": int}),
}


def generate(family: str, seed: int = 0, **params) -> BipartiteGraph:
    """Deterministic graph generation; same (family, params, seed) gives
    the same graph. A key the family does not take is an InvalidParam."""
    if family not in _FAMILIES:
        raise InvalidParam(f"unknown graph family {family!r}")
    gen, types = _FAMILIES[family]
    unknown = params.keys() - types.keys()
    if unknown:
        raise InvalidParam(f"unknown parameter {min(unknown)!r} for family {family!r}")
    try:
        args = [cast(params[key]) for key, cast in types.items()]
        return gen(*args, seed) if family == "random" else gen(*args)
    except (KeyError, ValueError) as exc:
        raise InvalidParam(f"bad parameters for family {family!r}: {exc}") from exc


def parse_gen_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Parse 'family:key=value,key=value' into (family, params)."""
    family, _, rest = spec.partition(":")
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise InvalidParam(f"bad generator parameter {item!r} in {spec!r}")
            params[key.strip()] = value.strip()
    return family, params


def graph_from_spec(spec: str) -> BipartiteGraph:
    """The graph of a 'family:key=value,...' spec, generated with seed 0."""
    family, params = parse_gen_spec(spec)
    if "seed" in params:
        raise InvalidParam(f"unknown parameter 'seed' for family {family!r}")
    return generate(family, **params)


# ---------------------------------------------------------------------------
# Text format: first line "n m", then one "u v" line per edge
# ---------------------------------------------------------------------------

def read_lines(path: str, what: str) -> list[str]:
    """The lines of a UTF-8 text file, with their line ends; a missing or
    unreadable file, or one that is not UTF-8, raises InvalidParam naming
    it as a `what` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParam(f"cannot read {what} file {path!r}: {exc}") from exc


def read_graph(path: str) -> BipartiteGraph:
    """Read the text format. A missing or unreadable file, a token that is
    not an integer, a short edge list and non-blank lines after the m
    declared edges all raise InvalidParam."""
    rows = [line.split() for line in read_lines(path, "graph")]
    if not rows or len(rows[0]) != 2:
        raise InvalidParam("graph file must start with a line 'n m'")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
        if m < 0:
            raise InvalidParam(f"edge count m={m} is negative")
        edges = []
        for parts in rows[1 : m + 1]:
            if len(parts) != 2:
                raise InvalidParam("expected an edge line 'u v'")
            edges.append((int(parts[0]), int(parts[1])))
    except ValueError as exc:
        raise InvalidParam(f"non-integer token in graph file {path!r}: {exc}") from exc
    if len(edges) < m:
        raise InvalidParam(f"file declares m={m} but lists {len(edges)} edges")
    if any(rows[m + 1 :]):
        raise InvalidParam(f"non-blank lines after the {m} declared edges")
    g = build_graph(edges, extra_nodes=range(n))
    if g.n != n:
        raise InvalidParam(f"file declares n={n} but edges reference {g.n} nodes")
    return g


def write_graph(graph: BipartiteGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")

"""Shared test helpers: networkx as the independent oracle, the small graph
families the property tests draw from, and a time limit for runs that
must end.

networkx serves only the tests. A valid cover whose size equals
networkx's Hopcroft-Karp matching size is minimum by weak duality.
"""

import contextlib
import signal

import networkx as nx
from hypothesis import strategies as st

from bvc.graph import SIDE_A, SubgraphView, build_graph, gen_complete, gen_path, gen_random


def nx_graph(view: SubgraphView) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(view.in_nodes)
    g.add_edges_from(view.in_edges)
    return g


def components(graph) -> list[set[int]]:
    return list(nx.connected_components(nx_graph(SubgraphView.whole(graph))))


def roots_and_depths(forest) -> tuple[dict[int, int], dict[int, int]]:
    """Each node's root and depth in a forest (node -> (parent, children)),
    found by walking parents."""
    root, depth = {}, {}
    for v in forest:
        u, d = v, 0
        while forest[u][0] is not None:
            u, d = forest[u][0], d + 1
            assert d <= len(forest), f"the parents of {v} form a cycle"
        root[v], depth[v] = u, d
    return root, depth


def matching_size(view: SubgraphView) -> int:
    """networkx's maximum matching size of the view, nu."""
    top = [v for v in view.in_nodes if view.base.side[v] == SIDE_A]
    return len(nx.bipartite.hopcroft_karp_matching(nx_graph(view), top_nodes=top)) // 2


def graphs():
    """Stars, complete bipartite graphs, paths and sparse random graphs."""
    return st.one_of(
        st.builds(gen_complete, st.just(1), st.integers(1, 8)),  # stars
        st.builds(gen_complete, st.integers(1, 5), st.integers(1, 5)),
        st.builds(gen_path, st.integers(2, 40)),
        st.builds(
            gen_random,
            st.integers(2, 14),
            st.integers(2, 14),
            st.sampled_from((0.1, 0.2, 0.35)),
            st.integers(0, 10_000),
        ),
    )


def disjoint_union(g, h):
    return build_graph(
        list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges], extra_nodes=range(g.n + h.n)
    )


class TimeLimitExceeded(BaseException):
    """Not an Exception, so the engine cannot wrap it as a ProgramFault."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded in the block once `seconds` of wall time pass."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

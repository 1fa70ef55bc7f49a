import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvc.errors import DuplicateEdge, InvalidParam, OddCycle
from bvc.graph import (
    Matching,
    SubgraphView,
    build_graph,
    gen_complete,
    gen_disjoint_edges,
    gen_even_cycle,
    gen_path,
    gen_random,
    generate,
    graph_from_spec,
    is_vertex_cover,
    read_graph,
    write_graph,
)
from support import components, graphs, induced, max_view_degree


def test_single_edge_sides():
    g = build_graph([(0, 1)])
    assert g.side == {0: "A", 1: "B"}
    assert g.max_degree == 1


def test_triangle_rejected():
    with pytest.raises(OddCycle):
        build_graph([(0, 1), (1, 2), (2, 0)])


def test_path_parity_coloring():
    g = gen_path(4)
    assert [g.side[v] for v in range(4)] == ["A", "B", "A", "B"]
    assert g.max_degree == 2
    assert g.m == 3


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        build_graph([(0, 1), (1, 0)])


def test_self_loop_rejected():
    with pytest.raises(InvalidParam):
        build_graph([(3, 3)])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: build_graph([(-1, 0)]), "non-negative"),
        (
            lambda: SubgraphView(gen_path(2), [0], [(0, 1)]),
            "edge (0,1) in view but an endpoint is not",
        ),
        (lambda: gen_path(0), "path needs n > 0"),
        (lambda: gen_complete(0, 2), "complete family needs na, nb > 0"),
        (lambda: gen_complete(2, 0), "complete family needs na, nb > 0"),
        (lambda: gen_disjoint_edges(0), "disjoint_edges needs m > 0"),
        (lambda: graph_from_spec("path:n"), "bad generator parameter 'n'"),
    ],
    ids=[
        "negative-id",
        "view-edge-outside-view",
        "path-n0",
        "complete-na0",
        "complete-nb0",
        "disjoint-edges-m0",
        "spec-item-without-equals",
    ],
)
def test_bad_graph_input_raises_invalid_param(make, message):
    with pytest.raises(InvalidParam, match=re.escape(message)):
        make()


def test_complete_2_3():
    g = gen_complete(2, 3)
    assert g.m == 6
    assert g.max_degree == 3
    assert {g.side[v] for v in (0, 1)} == {"A"}
    assert {g.side[v] for v in (2, 3, 4)} == {"B"}


def test_disjoint_edges():
    g = gen_disjoint_edges(3)
    assert len(components(g)) == 3
    assert g.max_degree == 1


def test_even_cycle():
    g = gen_even_cycle(8)
    assert g.m == 8
    assert all(len(g.adjacency[v]) == 2 for v in g.node_ids)
    with pytest.raises(InvalidParam):
        gen_even_cycle(5)


def test_generate_dispatch_and_determinism():
    g1 = generate("random", seed=7, na=10, nb=10, p=0.3)
    g2 = generate("random", seed=7, na=10, nb=10, p=0.3)
    g3 = generate("random", seed=8, na=10, nb=10, p=0.3)
    assert g1.edges == g2.edges
    assert g1.edges != g3.edges
    with pytest.raises(InvalidParam):
        generate("nope", seed=0)
    with pytest.raises(InvalidParam):
        gen_random(0, 3, 0.5, 1)
    with pytest.raises(InvalidParam):
        gen_random(3, 3, 1.5, 1)


def test_rebuild_reproduces_generated_graphs():
    for g in [
        gen_random(8, 8, 0.25, 3),
        gen_path(9),
        gen_even_cycle(6),
        gen_complete(3, 4),
        gen_disjoint_edges(4),
    ]:
        h = build_graph(g.edges, extra_nodes=g.node_ids)
        assert h.node_ids == g.node_ids
        assert h.edges == g.edges
        # Sides may only differ by a per-component swap.
        for comp in components(g):
            flips = {g.side[v] == h.side[v] for v in comp}
            assert len(flips) == 1


def test_is_vertex_cover_on_path():
    g = gen_path(4)
    view = SubgraphView.whole(g)
    assert is_vertex_cover(view, {1, 2})
    assert not is_vertex_cover(view, {0, 3})
    assert is_vertex_cover(view, set(view.in_nodes))


def test_is_vertex_cover_empty_graph():
    g = build_graph([], extra_nodes=[0])
    view = SubgraphView.whole(g)
    assert is_vertex_cover(view, set())


def test_cover_nodes_must_be_in_view():
    g = gen_path(4)
    view = induced(g, {0, 1})
    with pytest.raises(InvalidParam):
        is_vertex_cover(view, {3})


def test_matching_validation():
    g = gen_path(4)
    view = SubgraphView.whole(g)
    m = Matching([(1, 2)], view)
    assert m.size == 1
    assert m.partner_of(1) == 2
    with pytest.raises(InvalidParam):
        Matching([(0, 1), (1, 2)], view)
    with pytest.raises(InvalidParam):
        Matching([(0, 2)], view)  # not an edge of the view


def test_view_restriction():
    g = gen_path(5)
    view = SubgraphView.whole(g)
    sub = view.without_nodes([2])
    assert not sub.contains_node(2)
    assert not sub.contains_edge(1, 2)
    assert sub.contains_edge(3, 4)
    assert sub.view_degree(1) == 1
    assert max_view_degree(sub) == 1


@st.composite
def named_sets(draw):
    """A graph, a node set of it, an edge set between those nodes (all of
    them, which makes the induced view, or a drawn part) and batches of
    nodes to remove one after another."""
    g = draw(graphs())
    nodes = draw(st.sets(st.sampled_from(g.node_ids)))
    between = [e for e in g.edges if e[0] in nodes and e[1] in nodes]
    kept = draw(st.lists(st.booleans(), min_size=len(between), max_size=len(between)))
    induced_view = draw(st.booleans())
    edges = {e for e, keep in zip(between, kept) if keep or induced_view}
    batches = draw(st.lists(st.sets(st.sampled_from(g.node_ids)), max_size=3))
    return g, nodes, edges, batches


@given(named_sets())
@settings(max_examples=75, derandomize=True, deadline=None, database=None)
def test_view_is_the_node_and_edge_sets_it_names(case):
    """Every query of a view, and of its contexts, answers from the node
    and edge sets it was given, in whatever order they came; a chain of
    without_nodes leaves the sets minus the removed nodes; and a stray or
    repeated node or edge is refused."""
    g, nodes, edges, batches = case
    view = SubgraphView(g, sorted(nodes, reverse=True), list(edges))
    assert view.in_nodes == tuple(sorted(nodes)) and view.in_edges == tuple(sorted(edges))
    assert (view.contexts is g.contexts) == (len(nodes) == g.n and len(edges) == g.m)
    for v in g.node_ids:
        nbrs = tuple(u for u in g.adjacency[v] if (min(u, v), max(u, v)) in edges)
        assert view.contains_node(v) == (v in nodes)
        assert tuple(view.view_neighbors(v)) == nbrs and view.view_degree(v) == len(nbrs)
        assert view.contexts[v].in_view == (v in nodes) and view.contexts[v].view_neighbors == nbrs
    for u, v in g.edges:
        assert view.contains_edge(u, v) == view.contains_edge(v, u) == ((u, v) in edges)
    whole = SubgraphView.whole(g)
    assert (whole.in_nodes, whole.in_edges) == (g.node_ids, g.edges)
    assert whole.contexts is g.contexts

    left, left_edges = set(nodes), set(edges)
    for batch in batches:
        view, whole = view.without_nodes(batch), whole.without_nodes(batch)
        left -= batch
        left_edges = {e for e in left_edges if e[0] in left and e[1] in left}
    assert view.in_nodes == tuple(sorted(left)) and view.in_edges == tuple(sorted(left_edges))
    rest = set(g.node_ids).difference(*batches)
    expected = [e for e in g.edges if e[0] in rest and e[1] in rest]
    assert (whole.in_nodes, whole.in_edges) == (tuple(sorted(rest)), tuple(expected))
    sub = induced(g, rest)
    assert (whole.in_nodes, whole.in_edges) == (sub.in_nodes, sub.in_edges)

    outside = [e for e in g.edges if e[0] not in nodes or e[1] not in nodes]
    non_edges = [(u, v) for u in nodes for v in nodes if u < v and v not in g.adjacency[u]]
    flipped = [(v, u) for u, v in edges]
    strays = [(nodes | {g.n}, edges)]
    for wrong in (outside, non_edges, flipped):
        strays += [(nodes, edges | {e}) for e in wrong[:1]]
    strays += [(list(nodes) * 2, edges)] if nodes else []
    strays += [(nodes, list(edges) * 2)] if edges else []
    for stray_nodes, stray_edges in strays:
        with pytest.raises(InvalidParam):
            SubgraphView(g, stray_nodes, stray_edges)


def test_whole_view_is_shared_and_topology_matches_view():
    """A graph and each view keep their contexts, built node by node on
    first use; a view of the whole graph shares the graph's. Each context
    holds the node's in-view flag and in-view neighbors."""
    g = gen_random(6, 6, 0.4, 2)
    for view in (SubgraphView.whole(g), induced(g, range(10)).without_nodes([3])):
        ctxs = view.contexts
        assert ctxs is view.contexts
        assert (ctxs is g.contexts) == (view.in_nodes == g.node_ids)
        assert not ctxs or ctxs is g.contexts
        for v in g.node_ids:
            ctx = ctxs[v]
            assert ctx is ctxs[v]
            assert (ctx.node, ctx.side, ctx.neighbors) == (v, g.side[v], g.adjacency[v])
            assert ctx.in_view == view.contains_node(v)
            assert ctx.view_neighbors == tuple(view.view_neighbors(v))
        assert list(ctxs) == list(g.node_ids)


def test_matching_restricted_to_view():
    g = gen_path(4)
    m = Matching([(0, 1), (2, 3)], SubgraphView.whole(g))
    sub = induced(g, {0, 1, 2})
    assert m.restricted_to(sub).edges == frozenset({(0, 1)})


def test_graph_text_roundtrip(tmp_path):
    g = gen_random(6, 6, 0.4, 11)
    path = tmp_path / "g.txt"
    write_graph(g, str(path))
    h = read_graph(str(path))
    assert h.edges == g.edges
    assert h.n == g.n


def test_read_graph_rejects_odd_cycle(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 3\n0 1\n1 2\n2 0\n")
    with pytest.raises(OddCycle):
        read_graph(str(path))


@pytest.mark.parametrize(
    "text",
    [
        "3 1\n0 1\n1 2\n",  # a line after the m declared edges
        "3 1\n0 x\n",  # non-integer token in an edge
        "3 one\n0 1\n",  # non-integer token in the header
        "3 2\n0 1\n",  # fewer edges than declared
        "3 -1\n",  # negative edge count
    ],
)
def test_read_graph_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InvalidParam):
        read_graph(str(path))


def test_read_graph_missing_file_and_trailing_blank_lines(tmp_path):
    with pytest.raises(InvalidParam):
        read_graph(str(tmp_path / "absent.txt"))
    path = tmp_path / "g.txt"
    path.write_text("3 1\n0 1\n\n  \n")
    assert read_graph(str(path)).m == 1


def test_graph_from_spec():
    g = graph_from_spec("complete:na=2,nb=3")
    assert g.m == 6
    g = graph_from_spec("random:na=5,nb=5,p=0.5")
    assert g.n == 10
    with pytest.raises(InvalidParam):
        graph_from_spec("random:na=5;nb=5")

import pytest

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


def test_complete_2_3():
    g = gen_complete(2, 3)
    assert g.m == 6
    assert g.max_degree == 3
    assert {g.side[v] for v in (0, 1)} == {"A"}
    assert {g.side[v] for v in (2, 3, 4)} == {"B"}


def test_disjoint_edges():
    g = gen_disjoint_edges(3)
    assert len(g.components()) == 3
    assert g.max_degree == 1


def test_even_cycle():
    g = gen_even_cycle(8)
    assert g.m == 8
    assert all(g.degree(v) == 2 for v in g.node_ids)
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
        for comp in g.components():
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
    view = SubgraphView.induced(g, {0, 1})
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
    assert sub.max_view_degree() == 1


def test_whole_view_is_shared_and_topology_matches_view():
    g = gen_random(6, 6, 0.4, 2)
    assert SubgraphView.whole(g) is SubgraphView.whole(g)
    assert SubgraphView.whole(g) is not SubgraphView.whole(gen_random(6, 6, 0.4, 2))
    for view in (SubgraphView.whole(g), SubgraphView.induced(g, range(10)).without_nodes([3])):
        topo = view.topology()
        assert topo is view.topology()
        assert list(topo) == list(g.node_ids)
        for v, (in_view, nbrs) in topo.items():
            assert in_view == view.contains_node(v)
            assert nbrs == tuple(view.view_neighbors(v))


def test_matching_restricted_to_view():
    g = gen_path(4)
    m = Matching([(0, 1), (2, 3)], SubgraphView.whole(g))
    sub = SubgraphView.induced(g, {0, 1, 2})
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
    g = graph_from_spec("random:na=5,nb=5,p=0.5", seed=3)
    assert g.n == 10
    with pytest.raises(InvalidParam):
        graph_from_spec("random:na=5;nb=5")

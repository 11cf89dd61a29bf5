"""Tests for graphs, spanning trees, tree paths, and sign classification."""
import pytest

from gogkit.errors import Disconnected, SameVertex
from gogkit.fixtures import load_fixture
from gogkit.graph_core import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    FiniteGraph,
    SpanningTree,
    classify,
    spanning_tree,
)


def graph(vertices, edges):
    return FiniteGraph(
        tuple(vertices),
        tuple(e for e, _, _ in edges),
        {e: a for e, a, _ in edges},
        {e: b for e, _, b in edges},
    )


def test_endpoint_validation():
    with pytest.raises(ValueError):
        graph(["a"], [("e", "a", "b")])


def test_repeated_ids_are_refused():
    with pytest.raises(ValueError, match="^duplicate vertex id 'a'$"):
        graph(["a", "b", "a"], [])
    # The dicts hold one entry for both copies, so only the tuple shows the repeat.
    with pytest.raises(ValueError, match="^duplicate edge id 'e'$"):
        FiniteGraph(("a", "b"), ("e", "e"), {"e": "a"}, {"e": "b"})


def test_spanning_tree_deterministic():
    g = graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])
    t = spanning_tree(g)
    # BFS from "a" reaches b via e1 and c via e3, leaving the cycle edge e2 out.
    assert t.edges == frozenset({"e1", "e3"})
    assert spanning_tree(g).edges == t.edges


def test_spanning_tree_tie_break_by_edge_id():
    g = graph(["a", "b"], [("e2", "a", "b"), ("e1", "b", "a")])
    assert spanning_tree(g).edges == frozenset({"e1"})


def test_disconnected_lists_components():
    g = graph(["a", "b", "c"], [("e", "a", "b")])
    with pytest.raises(Disconnected) as exc:
        spanning_tree(g)
    assert exc.value.components == [["a", "b"], ["c"]]


def test_tree_paths():
    g = graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    t = spanning_tree(g)
    assert list(t.path("a", "c")) == [("e1", 1), ("e2", 1)]
    assert list(t.path("c", "a")) == [("e2", -1), ("e1", -1)]
    assert t.path("b", "b") == ()
    with pytest.raises(ValueError, match="'zz' is not a vertex"):
        t.path("a", "zz")
    with pytest.raises(ValueError, match="'zz' is not a vertex"):
        t.path("zz", "zz")
    # Rooted at a, the paths from c and from d meet at b, not at the root.
    g = graph(["a", "b", "c", "d"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "d", "b")])
    t = spanning_tree(g)
    assert list(t.path("c", "d")) == [("e2", -1), ("e3", -1)]
    assert list(t.path("d", "c")) == [("e3", 1), ("e2", 1)]
    assert list(t.path("c", "a")) == [("e2", -1), ("e1", -1)]
    assert list(t.path("a", "d")) == [("e1", 1), ("e3", -1)]
    assert list(t.path("b", "d")) == [("e3", -1)]
    assert list(t.path("c", "b")) == [("e2", -1)]


def test_loops_never_enter_tree():
    g = graph(["a", "b"], [("l", "a", "a"), ("e", "a", "b")])
    assert spanning_tree(g).edges == frozenset({"e"})


def test_tree_must_connect_all_vertices():
    # Two parallel edges a→b have the right count for three vertices but miss c.
    g = graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c")])
    with pytest.raises(ValueError, match="does not connect all vertices"):
        SpanningTree(g, frozenset({"e1", "e2"}))
    assert SpanningTree(g, frozenset({"e2", "e3"})).edges == frozenset({"e2", "e3"})


@pytest.mark.parametrize(
    "edges, message",
    [
        ({"e", "zz"}, "not edges of the graph"),
        ({"e", "l"}, "wrong number of edges"),
        ({"l"}, "does not connect all vertices"),
    ],
)
def test_tree_rejects_stray_extra_and_loop_edges(edges, message):
    g = graph(["a", "b"], [("l", "a", "a"), ("e", "a", "b")])
    with pytest.raises(ValueError, match=message):
        SpanningTree(g, frozenset(edges))


def test_classify_amalgam(c4c6):
    signs = classify(c4c6.tree, "v", "w")
    assert signs.base_edge == "e"
    assert signs.vertex_signs == {"v": NEUTRAL, "w": POSITIVE}


def test_classify_path_from_middle(c4c2c4):
    signs = classify(c4c2c4.tree, "m", "w")
    assert signs.base_edge == "e2"
    assert signs.vertex_signs == {"u": NEGATIVE, "m": NEUTRAL, "w": POSITIVE}


def test_classify_path_from_end(c4c2c4):
    signs = classify(c4c2c4.tree, "u", "w")
    assert signs.base_edge == "e1"
    assert signs.vertex_signs == {"u": NEUTRAL, "m": POSITIVE, "w": POSITIVE}


def test_classify_same_vertex(c4c6):
    with pytest.raises(SameVertex):
        classify(c4c6.tree, "v", "v")


def test_incident_keeps_edge_id_order_and_lists_a_loop_once():
    g = graph(["a", "b", "c"], [("e3", "a", "b"), ("e1", "b", "a"), ("e2", "a", "a")])
    assert g.incident("a") == ["e1", "e2", "e3"]
    assert g.incident("b") == ["e1", "e3"]
    assert g.incident("c") == []
    for name in ("c4c6", "c6hnn", "c4c2c4", "c2c2", "expand_demo"):
        fg = load_fixture(name).graph
        for v in fg.vertices:
            scan = [e for e in sorted(fg.edges) if v in (fg.d0[e], fg.d1[e])]
            assert fg.incident(v) == scan, (name, v)

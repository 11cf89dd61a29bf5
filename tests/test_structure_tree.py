"""Tests for the coset tree: canonicalization, balls, actions, fixed points."""
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    fixed_vertex_by_action,
    fixed_vertex_pairwise,
    least_coset_rep_brute,
    neighbors_brute,
    tree_edge_brute,
    tree_vertex_brute,
    vertex_group_elements_brute,
)
from gogkit.documents import parse_document
from gogkit.errors import BallTooLarge, MalformedWord, NotFinite
from gogkit.fixtures import load_fixture
from gogkit.gog import (
    LETTER,
    VERTEX,
    CompositeVertexGroup,
    GraphOfGroups,
    Word,
    _rebuilt,
    _tables,
    _walk,
    ball,
    identity,
    invert,
    multiply,
    nf,
    reduce,
    vertex_element,
    vertex_group_membership,
)
from gogkit.structure_tree import (
    TreeEdge,
    TreeVertex,
    _neighbors,
    _vertex_at,
    act,
    ball_to_dot,
    edge_d0,
    edge_d1,
    fixed_vertex,
    tree_ball,
    tree_edge,
    tree_vertex,
)


def test_canonical_rep_is_least_in_coset(c4c6):
    # b³·𝒢(w) = 𝒢(w), so the representative collapses to the identity.
    assert tree_vertex(c4c6, "w", nf(c4c6, "w:g3")) == tree_vertex(c4c6, "w")
    assert tree_vertex(c4c6, "w", nf(c4c6, "w:g4")).rep.text() == "1"
    # a·𝒢(w) keeps a as its shortest representative.
    assert tree_vertex(c4c6, "w", nf(c4c6, "v:g1")).rep.text() == "v:g1"


def test_edge_incidence_formulas(c4c6):
    E = tree_edge(c4c6, "e", nf(c4c6, "v:g1"))
    assert edge_d0(c4c6, E) == tree_vertex(c4c6, "v", nf(c4c6, "v:g1"))
    assert edge_d1(c4c6, E) == tree_vertex(c4c6, "w", nf(c4c6, "v:g1"))


@pytest.mark.parametrize("image", [99, -1])
def test_tree_edge_rejects_an_out_of_range_inclusion_image(c4c6, image):
    # Built in code, so no document check saw the image; -1 would index C4.
    g = GraphOfGroups(c4c6.graph, c4c6.vertex_groups, c4c6.edge_groups, {"e": ((0, image), (0, 3))})
    for rep in (None, nf(g, "v:g1")):
        with pytest.raises(MalformedWord):
            tree_edge(g, "e", rep)


def test_tree_vertex_names_an_unknown_vertex(c4c6):
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        tree_vertex(c4c6, "zz")


def test_tree_edge_names_an_unknown_edge(c4c6):
    with pytest.raises(ValueError, match="^unknown edge 'zz'$"):
        tree_edge(c4c6, "zz")


def test_stabilizer_fixes_vertex(c4c6):
    tw = tree_vertex(c4c6, "w")
    assert act(c4c6, nf(c4c6, "v:g2"), tw) == tw  # a² = b³ ∈ 𝒢(w)
    assert act(c4c6, nf(c4c6, "w:g1"), tw) == tw
    assert act(c4c6, nf(c4c6, "v:g1"), tw) != tw


def test_action_is_left_action(c4c6):
    rng = random.Random(7)
    elements = ball(c4c6, 3)
    tw = tree_vertex(c4c6, "w", nf(c4c6, "v:g1"))
    for _ in range(30):
        x, y = rng.choice(elements), rng.choice(elements)
        assert act(c4c6, multiply(x, y), tw) == act(c4c6, x, act(c4c6, y, tw))


def test_action_equivariance_on_edges(c4c6):
    rng = random.Random(3)
    elements = ball(c4c6, 3)
    E = tree_edge(c4c6, "e", nf(c4c6, "w:g1"))
    for _ in range(30):
        x = rng.choice(elements)
        assert act(c4c6, x, edge_d0(c4c6, E)) == edge_d0(c4c6, act(c4c6, x, E))
        assert act(c4c6, x, edge_d1(c4c6, E)) == edge_d1(c4c6, act(c4c6, x, E))


def test_tree_ball_shapes(c4c6, c6hnn):
    # (2,3)-biregular from the C4 side: 1, +2, +4, +4, +8 vertices.
    b = tree_ball(c4c6, 4)
    assert len(b.vertices) == 19
    assert len(b.edges) == 18
    assert b.is_tree()
    # The HNN tree is 6-regular.
    hb = tree_ball(c6hnn, 2)
    assert len(hb.vertices) == 1 + 6 + 30
    assert hb.is_tree()


def test_is_tree_rejects_broken_balls(c4c6):
    tb = tree_ball(c4c6, 2)
    assert tb.is_tree()
    first, last = tb.edges[0], tb.edges[-1]
    stranger = tree_vertex(c4c6, "v", nf(c4c6, "w:g1 * v:g1 * w:g1"))
    extra = tree_edge(c4c6, "e", nf(c4c6, "w:g1 * v:g1 * w:g1"))
    assert stranger not in tb.depth and extra not in tb.incidence
    cycle = {**tb.incidence, extra: (tb.vertices[1], tb.vertices[-1])}
    broken = {
        "repeated edge": replace(tb, edges=tb.edges + [first]),
        "repeated edge in place of another": replace(tb, edges=tb.edges[:-1] + [first]),
        "extra edge closing a cycle": replace(tb, edges=tb.edges + [extra], incidence=cycle),
        "vertex no edge reaches": replace(tb, vertices=tb.vertices + [stranger]),
        "cycle beside an unreached vertex": replace(
            tb, vertices=tb.vertices + [stranger], edges=tb.edges + [extra], incidence=cycle
        ),
        "endpoint missing from vertices": replace(
            tb, incidence={**tb.incidence, last: (tb.incidence[last][0], stranger)}
        ),
        "edge without incidence": replace(
            tb, incidence={E: ends for E, ends in tb.incidence.items() if E != last}
        ),
    }
    for label, ball_ in broken.items():
        assert ball_.is_tree() is False, label


def test_tree_ball_cap(c6hnn, monkeypatch):
    monkeypatch.setattr("gogkit.structure_tree.BALL_CAP", 50)
    with pytest.raises(BallTooLarge, match="cap of 50 vertices"):
        tree_ball(c6hnn, 4)


def test_tree_ball_depths(c4c6):
    b = tree_ball(c4c6, 3)
    assert b.depth[b.origin] == 0
    assert max(b.depth.values()) == 3


def test_fixed_vertex_of_subgroups(c4c6):
    assert fixed_vertex(c4c6, [nf(c4c6, "w:g2")]) == tree_vertex(c4c6, "w")
    assert fixed_vertex(c4c6, [nf(c4c6, "v:g1")]) == tree_vertex(c4c6, "v")
    conj = nf(c4c6, "v:g1 * w:g2 * v:g3")
    assert fixed_vertex(c4c6, [conj]) == tree_vertex(c4c6, "w", nf(c4c6, "v:g1"))


def test_fixed_vertex_of_a_deep_conjugate(c4c6):
    # x·w:g2·x⁻¹ fixes x·𝒢(w), four edges from the base.
    x = nf(c4c6, "w:g1 * v:g1 * w:g1 * v:g1")
    deep = multiply(multiply(x, nf(c4c6, "w:g2")), invert(x))
    assert fixed_vertex(c4c6, [deep]) == tree_vertex(c4c6, "w", x)


def test_fixed_vertex_in_a_vertex_group_of_order_300():
    # Fixed vertices come from geodesics alone, whatever the group's order.
    g = parse_document({"graph": {
        "vertices": [{"id": "v", "group": "cyclic 300"}, {"id": "w", "group": "cyclic 2"}],
        "edges": [{"id": "e", "from": "v", "to": "w", "group": "cyclic 1",
                   "d0_images": [0], "d1_images": [0]}],
    }}).gog
    assert fixed_vertex(g, [nf(g, "v:g1")]) == tree_vertex(g, "v")
    conj = nf(g, "w:g1 * v:g7 * w:g1")
    assert fixed_vertex(g, [conj]).text() == "w:g1·G(v)"
    # One check per element: the pairwise reference takes n(n−1)/2 products.
    conjugates = [nf(g, f"w:g1 * v:g{i} * w:g1") for i in range(1, 300)]
    assert fixed_vertex(g, conjugates).text() == "w:g1·G(v)"
    for elements in (conjugates[:30], conjugates[:30] + [nf(g, "v:g1")]):
        assert _outcome(fixed_vertex, g, elements) == _outcome(fixed_vertex_pairwise, g, elements)


def test_conjugate_finite_into_vertex(c4c6):
    # The fixed vertex's rep conjugates the subgroup into its vertex group.
    conj = nf(c4c6, "v:g1 * w:g2 * v:g3")
    tv = fixed_vertex(c4c6, [conj])
    c, vid = tv.rep, tv.vertex_id
    assert (c.text(), vid) == ("v:g1", "w")
    moved = multiply(multiply(invert(c), conj), c)
    assert vertex_group_membership(c4c6, vid, moved)


def test_not_finite(c6hnn):
    with pytest.raises(NotFinite):
        fixed_vertex(c6hnn, [nf(c6hnn, "t(t)")])


def test_finite_subgroups_of_hnn_fix_vertices(c6hnn):
    tv = fixed_vertex(c6hnn, [nf(c6hnn, "t(t) * v:g2 * t(t)^-1")])
    c, vid = tv.rep, tv.vertex_id
    assert vid == "v"
    moved = multiply(multiply(invert(c), nf(c6hnn, "t(t) * v:g2 * t(t)^-1")), c)
    assert vertex_group_membership(c6hnn, "v", moved)


def test_dot_export(c4c6):
    dot = ball_to_dot(tree_ball(c4c6, 1))
    assert dot.startswith("graph structure_tree {")
    assert 'label="1·G(v)"' in dot
    assert dot.count("--") == 2
    assert ball_to_dot(tree_ball(c4c6, 1)) == dot


# ---------------------------------------------------------------------------
# Differential checks against the brute-force coset tree

TABLE_FIXTURES = ["c4c6", "c6hnn", "c4c2c4", "c2c2"]
GRAPHS = {name: load_fixture(name) for name in TABLE_FIXTURES}
BALLS = {name: ball(g, 3) for name, g in GRAPHS.items()}


def neighbors_with_ends(g, tv):
    """The (edge, far endpoint) pairs of ``_neighbors``."""
    return [(E, far_end(g, E)) for E, far_end in _neighbors(g, tv)]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(TABLE_FIXTURES), st.data())
def test_cosets_match_brute_force(name, data):
    g = GRAPHS[name]
    x = data.draw(st.sampled_from(BALLS[name]))
    for vid in sorted(g.graph.vertices):
        tv = tree_vertex(g, vid, x)
        assert tv == tree_vertex_brute(g, vid, x)
        assert neighbors_with_ends(g, tv) == neighbors_brute(g, tv)
    for eid in sorted(g.graph.edges):
        assert tree_edge(g, eid, x) == tree_edge_brute(g, eid, x)


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_neighbors_match_brute_force_on_tree_ball(name):
    # Equal lists: one edge per coset of the edge group, so no duplicates.
    g = GRAPHS[name]
    for tv in tree_ball(g, 3).vertices:
        assert neighbors_with_ends(g, tv) == neighbors_brute(g, tv), tv.text()


def test_crossing_stack_is_the_tree_geodesic():
    # The fact fixed_vertex rests on: the crossings left after pinch
    # cancellation number d(o, x·o), the depth of x·o in the tree ball.
    checked = 0
    for name, g in GRAPHS.items():
        depth = tree_ball(g, 4).depth
        for x in BALLS[name]:
            tv = tree_vertex(g, g.basepoint, x)
            if tv in depth:
                assert len(_walk(_tables(g), x.syllables, g.basepoint)[0]) == depth[tv], x
                checked += 1
    assert checked == 125


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_base_vertex_rule_matches_brute_force(name):
    # At the base vertex the rep is the normal form less its final base
    # carry; every other candidate is tried by the oracle.  The prefixes are
    # normal forms, a normal form and a trailing letter (edge_d0/edge_d1),
    # and unnormalized crossing prefixes of a geodesic (_midpoint's).
    g = GRAPHS[name]
    base = g.basepoint
    members = vertex_group_elements_brute(g, base)

    def brute(syllables):
        return TreeVertex(base, least_coset_rep_brute(reduce(g, Word(syllables)), members))

    checked = 0
    for x in ball(g, 4):
        assert tree_vertex(g, base, x) == brute(x.syllables), x
        for eid in sorted(g.graph.edges):
            E = tree_edge(g, eid, x)
            if g.graph.d0[eid] == base:
                assert edge_d0(g, E) == brute(E.rep.syllables), E.text()
            if g.graph.d1[eid] == base:
                assert edge_d1(g, E) == brute(E.rep.syllables + ((LETTER, eid, 1),)), E.text()
        crossings, _ = _walk(_tables(g), x.syllables, base)
        prefix = ()
        for depth in range(len(crossings) + 1):
            if depth == len(crossings) or crossings[depth][0].near == base:
                assert _vertex_at(g, base, prefix) == brute(prefix), (x, depth)
                checked += 1
            if depth < len(crossings):
                c, before = crossings[depth]
                prefix += ((VERTEX, c.near, before), (LETTER, c.eid, c.direction))
    assert checked > len(ball(g, 4))


def test_base_vertex_rule_still_refuses_a_nested_base_group(expand_demo):
    g = _rebuilt(expand_demo, basepoint="m")
    assert isinstance(g.vertex_groups[g.basepoint], CompositeVertexGroup)
    with pytest.raises(NotFinite):
        tree_vertex(g, "m")


def _answer(search, g, elements, *radius):
    try:
        return search(g, elements, *radius)
    except NotFinite:
        return NotFinite


def _outcome(search, g, elements):
    """The vertex found, or the NotFinite text."""
    try:
        return search(g, elements)
    except NotFinite as exc:
        return str(exc)


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_fixed_vertices_match_the_action_search(name):
    # Vertex groups, their single elements and the edge images, each
    # conjugated by the radius-2 ball; then x = g1 at the last vertex with
    # each c⁻¹·x·c, c in the radius-1 ball, some of which generate an
    # infinite subgroup.  Deciding that takes the oracle's closure up to
    # 0.4 s, so only these few inputs give NotFinite.
    g = GRAPHS[name]
    subgroups = []
    for vid in sorted(g.graph.vertices):
        elements = [vertex_element(g, vid, h) for h in g.vertex_groups[vid].handles()]
        subgroups += [elements] + [[x] for x in elements]
    for eid in sorted(g.graph.edges):
        for side, vid in ((0, g.graph.d0[eid]), (1, g.graph.d1[eid])):
            order = g.edge_groups[eid].order
            subgroups.append([vertex_element(g, vid, g.incl(eid, side, k)) for k in range(order)])

    def conjugate(H, c):
        return [multiply(multiply(invert(c), x), c) for x in H]

    inputs = [conjugate(H, c) for H in subgroups for c in ball(g, 2)]
    x = nf(g, f"{max(g.graph.vertices)}:g1")
    inputs += [[x] + conjugate([x], c) for c in ball(g, 1)]
    kinds = Counter()
    for elements in inputs:
        exact = _answer(fixed_vertex, g, elements)
        assert _outcome(fixed_vertex, g, elements) == _outcome(fixed_vertex_pairwise, g, elements)
        for radius in (1, 2, 3, 8):
            expected = _answer(fixed_vertex_by_action, g, elements, radius)
            kinds["found" if isinstance(expected, TreeVertex) else expected] += 1
            if expected is None:
                # The oracle saw no fixed vertex within the radius, so the
                # exact one, fixed under the action, lies deeper.
                assert all(act(g, x, exact) == exact for x in elements)
                continue
            assert exact == expected
            if expected is NotFinite:
                break  # decided before any walk, at every radius alike
    assert kinds["found"] and kinds[None] and kinds[NotFinite], kinds

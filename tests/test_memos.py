"""The per-graph memos: transversals, tree paths and the reduction plan.

Each memo is compared with the loop it replaces, on a freshly parsed graph
(cold memos) and again after a ball has filled them (warm memos), and its
size is checked against the bound its owner documents.
"""
import random

import pytest

from gogkit.derivation import accessibility_derivation, kernel_scan
from gogkit.errors import MalformedWord
from gogkit.fixtures import FIXTURE_NAMES, load_fixture
from gogkit.gog import (
    LETTER,
    VERTEX,
    CompositeVertexGroup,
    TableVertexGroup,
    Word,
    _rebuilt,
    _reduce_from,
    _tables,
    ball,
    coset_rep,
    reduce,
    stable_letter,
    vertex_element,
)
from gogkit.structure_tree import tree_ball

from _oracles import _tree_path_bfs, c08_witnesses, coset_rep_loop, reduce_three_pass

def handles(vg):
    """Every handle of a table group; the identity and generators of a nested one."""
    if isinstance(vg, TableVertexGroup):
        return vg.handles()
    return [vg.identity(), *vg.generator_handles()]


def alphabet(g):
    out = []
    for vid in sorted(g.graph.vertices):
        out += [(VERTEX, vid, h) for h in handles(g.vertex_groups[vid])]
    return out + [(LETTER, e, s) for e in sorted(g.graph.edges) for s in (1, -1)]


def seeded_words(g, count=60, max_len=16, seed=20261018):
    letters = alphabet(g)
    rng = random.Random(seed)
    return [
        Word(tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))
        for _ in range(count)
    ]


def sides(g):
    """(edge, side, vertex on that side) for every edge inclusion."""
    for eid in sorted(g.graph.edges):
        yield eid, 0, g.graph.d0[eid]
        yield eid, 1, g.graph.d1[eid]


def assert_memos_match_loops(g, words):
    for eid, side, vid in sides(g):
        vg = g.vertex_groups[vid]
        if isinstance(vg, TableVertexGroup):
            for x in vg.handles():
                expected = coset_rep_loop(g, vid, eid, side, x)
                assert coset_rep(g, vid, eid, side, x) == expected, (eid, side, x)
                assert coset_rep(g, vid, eid, side, x) == expected, (eid, side, x)
    for v in g.graph.vertices:
        for w in g.graph.vertices:
            expected = _tree_path_bfs(g.tree, v, w)
            assert list(g.tree.path(v, w)) == expected, (v, w)
            assert list(g.tree.path(v, w)) == expected, (v, w)  # the memoised path
    for w in words:
        for base in sorted(g.graph.vertices):
            assert _reduce_from(g, w.syllables, base) == reduce_three_pass(g, w, base), (w, base)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_memos_match_the_loops_cold_and_warm(name):
    g = load_fixture(name)
    words = seeded_words(g)
    assert not g.tree._paths
    assert all(not memo for memo in g._transversals.values())
    assert_memos_match_loops(g, words)
    if g.all_tables():
        ball(g, 3)
    for w in words:
        reduce(g, w)
    assert any(g._transversals.values()) and g.tree._paths
    assert_memos_match_loops(g, words)


@pytest.mark.parametrize("name, base", [("c6hnn", "v"), ("c4c2c4", "m")])
def test_memos_stay_within_their_bounds(name, base):
    g = load_fixture(name)
    ball(g, 5)
    assert kernel_scan(accessibility_derivation(g, base, 5), base, 5).ok
    tree_ball(g, 4)
    for eid, side, vid in sides(g):
        memo = g._transversals[(eid, side)]
        assert memo, (eid, side)
        assert len(memo) <= g.vertex_groups[vid].order
        assert set(memo) <= set(g.vertex_groups[vid].handles())
    n = len(g.graph.vertices)
    assert len(g.tree._paths) <= n * n
    assert set(g.tree._paths) <= {(v, w) for v in g.graph.vertices for w in g.graph.vertices}


def test_nested_vertex_carries_are_never_stored():
    g = load_fixture("expand_demo")
    for w in seeded_words(g):
        reduce(g, w)
    nested = [
        (eid, side) for eid, side, vid in sides(g)
        if isinstance(g.vertex_groups[vid], CompositeVertexGroup)
    ]
    assert nested
    for key in nested:
        assert g._transversals[key] == {}, key
    assert any(g._transversals[key] for key in g._transversals if key not in nested)
    for h in handles(g.vertex_groups["m"]):
        assert vertex_element(g, "m", h) == reduce(g, Word(((VERTEX, "m", h),)))


def test_rebuilt_graph_starts_with_its_own_empty_memos():
    g = load_fixture("c4c6")
    ball(g, 3)
    for h in g.vertex_groups["v"].handles():
        coset_rep(g, "v", "e", 0, h)
    vertex_element(g, "v", 1)
    out = _rebuilt(g, name="copy")
    assert not out.tree._paths
    assert all(not memo for memo in out._transversals.values())
    assert out._transversals is not g._transversals
    assert out.tree._paths is not g.tree._paths
    ball(out, 2)
    assert len(g._transversals[("e", 0)]) == g.vertex_groups["v"].order


def test_tree_path_errors_are_not_cached():
    t = load_fixture("c4c2c4").tree
    for _ in range(2):
        with pytest.raises(ValueError):
            t.path("u", "zz")
    assert not t._paths


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_units_equal_reduced_one_syllable_words(name):
    g = load_fixture(name)
    for syl in alphabet(g):
        make = vertex_element if syl[0] == VERTEX else stable_letter
        unit, again = make(g, syl[1], syl[2]), make(g, syl[1], syl[2])
        assert unit == again == reduce(g, Word((syl,))), syl


def test_out_of_range_handles_raise_on_every_call(expand_demo):
    g = load_fixture("c4c6")
    for handle in (99, -1, 1.0, "g1", [1]):
        for _ in range(2):
            with pytest.raises(MalformedWord):
                vertex_element(g, "v", handle)
    nested = load_fixture("expand_demo")
    foreign = expand_demo.vertex_groups["m"].generator_handles()[0]
    for _ in range(2):
        with pytest.raises(MalformedWord):
            vertex_element(nested, "m", foreign)


# The five fixtures and every rewrite output of the c08 check.
PLAN_GRAPHS = [pytest.param(load_fixture(n), id=n) for n in FIXTURE_NAMES] + [
    pytest.param(w.target, id=label) for label, w in c08_witnesses()
]


def assert_plan_matches_the_oracle(g, words):
    for w in words:
        for base in sorted(g.graph.vertices):
            assert _reduce_from(g, w.syllables, base) == reduce_three_pass(g, w, base), (w, base)


@pytest.mark.parametrize("g", PLAN_GRAPHS)
def test_plan_matches_the_oracle_cold_and_warm(g):
    g = _rebuilt(g)
    words = seeded_words(g, count=30, max_len=32, seed=23)
    assert g._kernel is None
    assert_plan_matches_the_oracle(g, words)
    assert g._kernel is not None
    assert_plan_matches_the_oracle(g, words)


@pytest.mark.parametrize("g", PLAN_GRAPHS)
def test_plan_routes_are_the_tree_paths(g):
    one, rows, routes = _tables(g)
    vertices, edges = g.graph.vertices, g.graph.edges
    assert set(routes) == set(vertices)
    for v in vertices:
        for w in vertices:
            assert [(c.eid, c.direction) for c in routes[v][w]] == list(g.tree.path(v, w)), (v, w)
            assert all(c.far == d.near for c, d in zip(routes[v][w], routes[v][w][1:]))
        for eid in edges:
            for direction in (1, -1):
                *path, crossing = routes[v][eid, direction]
                near, far = g.graph.d0[eid], g.graph.d1[eid]
                if direction < 0:
                    near, far = far, near
                assert (crossing.eid, crossing.direction) == (eid, direction)
                assert (crossing.near, crossing.far) == (near, far)
                assert path == list(routes[v][near])
                assert crossing.rev.rev is crossing
                assert (crossing.rev.eid, crossing.rev.direction) == (eid, -direction)
                assert (crossing.letter is None) == (eid in g.tree.edges)
                assert crossing.far_one == one[far] and crossing.near_one == one[near]
                assert crossing.far_rows is rows[far] and crossing.near_rows is rows[near]
        assert len(routes[v]) == len(vertices) + 2 * len(edges)


def test_rebuilt_graph_does_not_share_the_plan():
    g = load_fixture("c4c2c4")
    words = seeded_words(g, count=20)
    for w in words:
        reduce(g, w)
    routes = _tables(g)[2]
    out = _rebuilt(g, name="copy")
    assert out._kernel is None
    assert_plan_matches_the_oracle(out, words)
    out_routes = _tables(out)[2]
    assert out._kernel is not g._kernel
    theirs = {id(c) for r in routes.values() for route in r.values() for c in route}
    for r in out_routes.values():
        for route in r.values():
            for c in route:
                assert id(c) not in theirs
                assert c.memo is out._transversals[c.eid, c.src]
                assert c.pre is out._preimages[c.eid, c.src]
    assert g._kernel[2] is routes

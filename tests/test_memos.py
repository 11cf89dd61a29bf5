"""The reduction plan, the one owner of what the reducer derives from a graph.

Its crossings' transversal memos and preimages and its tree routes are
compared with the loops they replace, on a freshly parsed graph (cold) and
again after a ball has filled them (warm), and their sizes are checked
against the bounds ``gogkit.gog`` documents.
"""
import random

import pytest

from gogkit.derivation import accessibility_derivation, kernel_scan
from gogkit.documents import parse_document
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


def memos(g):
    """The plan's transversal memo per (edge, side), read off the crossing
    that leaves that side: direction +1 leaves d0, direction -1 leaves d1."""
    return {(eid, 0 if d > 0 else 1): c.memo for (eid, d), c in _tables(g)[3].items()}


def assert_memos_match_loops(g, words):
    for eid, side, vid in sides(g):
        vg = g.vertex_groups[vid]
        if isinstance(vg, TableVertexGroup):
            for x in vg.handles():
                expected = coset_rep_loop(g, vid, eid, side, x)
                assert coset_rep(g, eid, side, x) == expected, (eid, side, x)
                assert coset_rep(g, eid, side, x) == expected, (eid, side, x)
    for v in g.graph.vertices:
        for w in g.graph.vertices:
            assert list(g.tree.path(v, w)) == _tree_path_bfs(g.tree, v, w), (v, w)
    for w in words:
        for base in sorted(g.graph.vertices):
            assert _reduce_from(g, w.syllables, base) == reduce_three_pass(g, w, base), (w, base)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_memos_match_the_loops_cold_and_warm(name):
    g = load_fixture(name)
    words = seeded_words(g)
    assert g._kernel is None
    assert all(not memo for memo in memos(g).values())
    assert_memos_match_loops(g, words)
    if g.all_tables():
        ball(g, 3)
    for w in words:
        reduce(g, w)
    assert any(memos(g).values())
    assert_memos_match_loops(g, words)


@pytest.mark.parametrize("name, base", [("c6hnn", "v"), ("c4c2c4", "m")])
def test_memos_stay_within_their_bounds(name, base):
    g = load_fixture(name)
    ball(g, 5)
    assert kernel_scan(accessibility_derivation(g, base, 5), base, 5).ok
    tree_ball(g, 4)
    for eid, side, vid in sides(g):
        memo = memos(g)[eid, side]
        assert memo, (eid, side)
        assert len(memo) <= g.vertex_groups[vid].order
        assert set(memo) <= set(g.vertex_groups[vid].handles())
    routes = _tables(g)[2]
    targets = set(g.graph.vertices) | {(e, d) for e in g.graph.edges for d in (1, -1)}
    for v in g.graph.vertices:
        assert set(routes[v]) <= targets


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
        assert memos(g)[key] == {}, key
    assert any(memo for key, memo in memos(g).items() if key not in nested)
    for h in handles(g.vertex_groups["m"]):
        assert vertex_element(g, "m", h) == reduce(g, Word(((VERTEX, "m", h),)))


def test_rebuilt_graph_starts_with_its_own_empty_memos():
    g = load_fixture("c4c6")
    ball(g, 3)
    for h in g.vertex_groups["v"].handles():
        coset_rep(g, "e", 0, h)
    vertex_element(g, "v", 1)
    out = _rebuilt(g, name="copy")
    assert out._kernel is None
    assert all(not memo for memo in memos(out).values())
    ball(out, 2)
    assert len(memos(g)["e", 0]) == g.vertex_groups["v"].order


def test_coset_rep_refuses_a_carry_outside_its_vertex_group(expand_demo):
    # -1 once returned (1, 1) and stored key -1 in the memo the kernel reads.
    g = load_fixture("c4c6")
    for carry in (-1, 9, 1.0, True):
        with pytest.raises(MalformedWord):
            coset_rep(g, "e", 0, carry)
    ball(g, 3)
    assert set(memos(g)["e", 0]) <= set(g.vertex_groups["v"].handles())
    foreign = expand_demo.vertex_groups["m"].generator_handles()[0]
    with pytest.raises(MalformedWord):
        coset_rep(load_fixture("expand_demo"), "e0", 1, foreign)


# A symmetric-group vertex beside a cyclic one: the two ends of e have
# different groups, so a memo read at the wrong end gives wrong reps.
S3C6 = {
    "name": "s3c6",
    "graph": {
        "vertices": [{"id": "v", "group": "symmetric 3"}, {"id": "w", "group": "cyclic 6"}],
        "edges": [{"id": "e", "from": "v", "to": "w", "group": "cyclic 2",
                   "d0_images": [0, 1], "d1_images": [0, 3]}],
    },
    "spanning_tree": ["e"],
    "basepoint": "v",
}


def test_coset_rep_calls_leave_the_plan_intact():
    # coset_rep for every (edge, side, handle) fills the memos the kernel
    # reads; a memo filled at the wrong end of e gives a ball of 202.
    fresh = [x.syllables for x in ball(parse_document(S3C6).gog, 4)]
    assert len(fresh) == 122
    g = parse_document(S3C6).gog
    assert_memos_match_loops(g, seeded_words(g))
    assert [x.syllables for x in ball(g, 4)] == fresh
    assert_memos_match_loops(g, seeded_words(g))


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
    one, rows, routes, crossings = _tables(g)
    vertices, edges = g.graph.vertices, g.graph.edges
    assert set(crossings) == {(eid, d) for eid in edges for d in (1, -1)}
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
                assert crossing is crossings[eid, direction]
                src = 0 if direction > 0 else 1
                assert crossing.src == src
                assert crossing.pre == {h: k for k, h in enumerate(g.inclusions[eid][src])}
                assert crossing.img == g.inclusions[eid][1 - src]
                assert crossing.memo is not crossing.rev.memo
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
    theirs |= {id(d) for c in _tables(g)[3].values() for d in (c.memo, c.pre)}
    for r in out_routes.values():
        for route in r.values():
            for c in route:
                assert id(c) not in theirs
                assert c is _tables(out)[3][c.eid, c.direction]
    for c in _tables(out)[3].values():
        assert id(c.memo) not in theirs and id(c.pre) not in theirs
    assert g._kernel[2] is routes

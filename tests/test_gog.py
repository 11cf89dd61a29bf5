"""Tests for the word problem: reduction, balls, membership, malnormality.

Soundness and canonicity of normal forms are checked against independent
models: SL(2,Z) matrices for the amalgam and the path, affine maps for the
free product, and a free-product-times-center model for the HNN fixture.
"""
import pytest
from hypothesis import given, settings, strategies as st

from gogkit.errors import (
    BadSubgraph,
    BallTooLarge,
    MalformedWord,
    MixedOwners,
    NotFinite,
)
from gogkit.fixtures import FIXTURE_NAMES, load_fixture
from gogkit.gog import (
    LETTER,
    VERTEX,
    CompositeVertexGroup,
    Subgraph,
    TableVertexGroup,
    Word,
    _normal_form,
    _rebuilt,
    _reduce_from,
    alphabet,
    ball,
    equal,
    identity,
    invert,
    invert_word,
    multiply,
    nf,
    parse_word,
    presentation,
    reduce,
    stable_letter,
    subgraph_group_membership,
    GraphOfGroups,
    NormalForm,
    validate,
    verify_relative_malnormality,
    vertex_element,
    vertex_group_membership,
    vertex_handle_of,
    word_text,
)
from gogkit.derivation import (
    STANDARD,
    TWISTED,
    Component,
    Derivation,
    accessibility_derivation,
    evaluate,
)
from gogkit.acceptance import TABLE_FIXTURES
from gogkit.finite_group import Subgroup, make_group, subgroup_closure
from gogkit.group_ring import ring_term
from gogkit.graph_core import FiniteGraph, SpanningTree

from _oracles import (
    AFFINE_ID,
    I2,
    _generator_alphabet,
    _relators,
    ball_bfs,
    ball_generators,
    c08_witnesses,
    c2c2_affine,
    c4c2c4_matrix,
    c4c6_matrix,
    c6hnn_in_vertex,
    c6hnn_model,
    composite_generator_handles,
    evaluate_two_step,
    malnormality_by_ball,
    reduce_three_pass,
)

# ---------------------------------------------------------------------------
# Word alphabets and oracle adapters


def oracle_sylls(word: Word):
    """Convert syllables to (generator, exponent) pairs for the matrix oracles."""
    out = []
    for syl in word.syllables:
        if syl[0] == VERTEX:
            out.append((syl[1], syl[2]))
        # Stable letters of tree edges are trivial; these fixtures have no others.
        # They are dropped here but still walked across by the reducer.
    return out


def hnn_sylls(word: Word):
    out = []
    for syl in word.syllables:
        if syl[0] == VERTEX:
            out.append(("b", syl[2]))
        else:
            out.append(("t", syl[2]))
    return out


def words_over(alphabet, max_size=8):
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map(
        lambda sylls: Word(tuple(sylls))
    )


C4C6_ALPHABET = (
    [(VERTEX, "v", k) for k in range(1, 4)]
    + [(VERTEX, "w", k) for k in range(1, 6)]
    + [(LETTER, "e", 1), (LETTER, "e", -1)]
)
C4C2C4_ALPHABET = (
    [(VERTEX, "u", k) for k in range(1, 4)]
    + [(VERTEX, "m", 1)]
    + [(VERTEX, "w", k) for k in range(1, 4)]
    + [(LETTER, e, s) for e in ("e1", "e2") for s in (1, -1)]
)
C2C2_ALPHABET = [(VERTEX, "u", 1), (VERTEX, "w", 1), (LETTER, "e", 1), (LETTER, "e", -1)]
C6HNN_ALPHABET = [(VERTEX, "v", k) for k in range(1, 6)] + [
    (LETTER, "t", 1),
    (LETTER, "t", -1),
]

AMALGAM = load_fixture("c4c6")
PATH = load_fixture("c4c2c4")
FREE = load_fixture("c2c2")
HNN = load_fixture("c6hnn")


# ---------------------------------------------------------------------------
# Parsing and serialization


def test_parse_round_trip(c4c6):
    for text in ("1", "v:g2", "w:g3 * t(e) * v:g1", "t(e)^-1 * w:g5"):
        w = parse_word(c4c6, text)
        assert word_text(c4c6, w) == text


def test_identity_serializes_as_one(c4c6):
    assert identity(c4c6).text() == "1"
    assert nf(c4c6, "1").syllables == ()


def test_parse_errors(c4c6):
    for bad in (
        "z:g1",  # unknown vertex
        "t(f)",  # unknown edge
        "v:g9",  # element index out of range
        "v:q1",  # not an element reference
        "v:g1 * * w:g2",  # empty syllable
        "v:{u:g1}",  # braces on a table vertex
        "v",  # no colon
    ):
        with pytest.raises(MalformedWord):
            parse_word(c4c6, bad)


@pytest.mark.parametrize("bad", ["v:g01", "v:g\u0663", "v:g\u00b2"])
def test_parse_accepts_canonical_ascii_indices_only(c4c6, bad):
    # A leading zero, an Arabic-Indic three and a superscript two.
    with pytest.raises(MalformedWord):
        parse_word(c4c6, bad)


def test_parse_accepts_g0_and_multi_digit_indices():
    graph = FiniteGraph(("v",), (), {}, {})
    g = GraphOfGroups(graph, {"v": make_group("cyclic 12")}, {}, {})
    assert parse_word(g, "v:g0 * v:g11") == Word(((VERTEX, "v", 0), (VERTEX, "v", 11)))


@pytest.mark.parametrize("digits, text", [
    ("1" * 5000, "1" * 200 + "…"),  # past int()'s 4,300-digit limit
    ("10", "10"),  # one digit more than C4's order has
    ("4", "4"),
], ids=["5000-digits", "2-digits", "order"])
def test_parse_refuses_an_index_longer_than_the_order_unconverted(c4c6, expand_demo, digits, text):
    with pytest.raises(MalformedWord) as info:
        nf(c4c6, "v:g" + digits)
    assert str(info.value) == f"element index {text} out of range at 'v'"
    # A nested vertex group has no index at all.
    with pytest.raises(MalformedWord) as info:
        nf(expand_demo, "m:g" + digits)
    assert str(info.value) == f"element index {text} out of range at 'm'"


def test_normal_form_reparses_to_itself(c4c6):
    x = nf(c4c6, "w:g4 * v:g3 * w:g5 * v:g2")
    assert nf(c4c6, x.text()) == x


# ---------------------------------------------------------------------------
# Oracle cross-checks


@settings(deadline=None)
@given(words_over(C4C6_ALPHABET), words_over(C4C6_ALPHABET))
def test_amalgam_equality_matches_matrices(w1, w2):
    x, y = reduce(AMALGAM, w1), reduce(AMALGAM, w2)
    assert equal(x, y) == (c4c6_matrix(oracle_sylls(w1)) == c4c6_matrix(oracle_sylls(w2)))


@settings(deadline=None)
@given(words_over(C4C6_ALPHABET))
def test_amalgam_triviality_matches_matrices(w):
    assert (not reduce(AMALGAM, w).syllables) == (c4c6_matrix(oracle_sylls(w)) == I2)


@settings(deadline=None)
@given(words_over(C4C2C4_ALPHABET))
def test_path_triviality_matches_matrices(w):
    assert (not reduce(PATH, w).syllables) == (c4c2c4_matrix(oracle_sylls(w)) == I2)


@settings(deadline=None)
@given(words_over(C4C2C4_ALPHABET), words_over(C4C2C4_ALPHABET))
def test_path_equality_matches_matrices(w1, w2):
    lhs = equal(reduce(PATH, w1), reduce(PATH, w2))
    assert lhs == (c4c2c4_matrix(oracle_sylls(w1)) == c4c2c4_matrix(oracle_sylls(w2)))


@settings(deadline=None)
@given(words_over(C2C2_ALPHABET, max_size=10))
def test_free_product_matches_affine_maps(w):
    assert (not reduce(FREE, w).syllables) == (c2c2_affine(oracle_sylls(w)) == AFFINE_ID)


@settings(deadline=None)
@given(words_over(C6HNN_ALPHABET), words_over(C6HNN_ALPHABET))
def test_hnn_equality_matches_split_model(w1, w2):
    lhs = equal(reduce(HNN, w1), reduce(HNN, w2))
    assert lhs == (c6hnn_model(hnn_sylls(w1)) == c6hnn_model(hnn_sylls(w2)))


@settings(deadline=None)
@given(words_over(C6HNN_ALPHABET))
def test_hnn_vertex_membership_matches_split_model(w):
    x = reduce(HNN, w)
    assert vertex_group_membership(HNN, "v", x) == c6hnn_in_vertex(
        c6hnn_model(hnn_sylls(w))
    )


def full_alphabet(g):
    """Every vertex handle, the identity included, and every letter with both signs.

    A nested vertex group contributes its radius-3 ball.
    """
    out = []
    for vid in sorted(g.graph.vertices):
        vg = g.vertex_groups[vid]
        handles = vg.handles() if isinstance(vg, TableVertexGroup) else ball(vg.sub, 3)
        out += [(VERTEX, vid, h) for h in handles]
    return out + [(LETTER, e, s) for e in sorted(g.graph.edges) for s in (1, -1)]


ORACLE_GRAPHS = {name: load_fixture(name) for name in FIXTURE_NAMES}
ORACLE_ALPHABETS = {name: full_alphabet(g) for name, g in ORACLE_GRAPHS.items()}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@settings(deadline=None)
@given(data=st.data())
def test_one_pass_reduction_matches_three_pass_oracle(name, data):
    g = ORACLE_GRAPHS[name]
    w = data.draw(words_over(ORACLE_ALPHABETS[name], max_size=16))
    for base in sorted(g.graph.vertices):
        assert _reduce_from(g, w.syllables, base) == reduce_three_pass(g, w, base), base


def oracle_derivation(g):
    """A standard and a twisted component with a value on every generator.

    Not glued: ``evaluate`` and its two-step reference compute the same sum
    whether or not the table is well defined.
    """
    values = {
        gen if gen[0] == VERTEX else gen[:2]: ring_term(_normal_form(g, (gen,)), 5, 1 + i % 4)
        for i, gen in enumerate(presentation(g).generators)
    }
    return Derivation(g, 5, (Component(STANDARD, values), Component(TWISTED, values)))


ORACLE_DERIVATIONS = {name: oracle_derivation(g) for name, g in ORACLE_GRAPHS.items()}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_products_and_evaluate_match_the_oracles(name, data):
    g = ORACLE_GRAPHS[name]
    w1, w2 = (data.draw(words_over(ORACLE_ALPHABETS[name], max_size=8)) for _ in range(2))
    x, y = reduce(g, w1), reduce(g, w2)
    assert multiply(x, y).syllables == reduce_three_pass(g, Word(x.syllables + y.syllables), g.basepoint)
    assert invert(x).syllables == reduce_three_pass(g, invert_word(g, Word(x.syllables)), g.basepoint)
    d = ORACLE_DERIVATIONS[name]
    for arg in (w1, w1.syllables, x, multiply(x, y)):
        assert evaluate(d, arg) == evaluate_two_step(d, arg)


# ---------------------------------------------------------------------------
# Algebraic laws


@settings(deadline=None)
@given(words_over(C4C6_ALPHABET))
def test_reduce_is_idempotent(w):
    x = reduce(AMALGAM, w)
    assert reduce(AMALGAM, Word(x.syllables)) == x


@settings(deadline=None)
@given(words_over(C6HNN_ALPHABET))
def test_reduce_is_idempotent_hnn(w):
    x = reduce(HNN, w)
    assert reduce(HNN, Word(x.syllables)) == x


@settings(deadline=None)
@given(words_over(C4C6_ALPHABET))
def test_inverse_law(w):
    x = reduce(AMALGAM, w)
    assert not multiply(x, invert(x)).syllables
    assert not multiply(invert(x), x).syllables


@settings(deadline=None)
@given(
    words_over(C4C6_ALPHABET, max_size=5),
    words_over(C4C6_ALPHABET, max_size=5),
    words_over(C4C6_ALPHABET, max_size=5),
)
def test_multiplication_is_associative(w1, w2, w3):
    x, y, z = (reduce(AMALGAM, w) for w in (w1, w2, w3))
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_mixed_owners_rejected():
    g1, g2 = load_fixture("c4c6"), load_fixture("c4c6")
    with pytest.raises(MixedOwners):
        multiply(identity(g1), identity(g2))
    with pytest.raises(MixedOwners):
        equal(identity(g1), identity(g2))


# ---------------------------------------------------------------------------
# Specific identifications


def test_amalgam_identification(c4c6):
    assert equal(nf(c4c6, "v:g2"), nf(c4c6, "w:g3"))
    assert nf(c4c6, "v:g2 * w:g3").syllables == ()


def test_path_identification(c4c2c4):
    assert equal(nf(c4c2c4, "u:g2"), nf(c4c2c4, "m:g1"))
    assert equal(nf(c4c2c4, "w:g2"), nf(c4c2c4, "m:g1"))
    assert equal(nf(c4c2c4, "u:g2"), nf(c4c2c4, "w:g2"))


def test_hnn_britton_relation(c6hnn):
    assert equal(nf(c6hnn, "t(t)^-1 * v:g3 * t(t)"), nf(c6hnn, "v:g3"))
    conj = nf(c6hnn, "t(t) * v:g1 * t(t)^-1")
    assert len(conj.syllables) == 3
    assert not vertex_group_membership(c6hnn, "v", conj)


# ---------------------------------------------------------------------------
# Presentation


@pytest.mark.parametrize(
    "name, n_gens, n_relators",
    [
        ("c4c6", 3 + 5 + 1, 1 + 2),
        ("c6hnn", 5 + 1, 0 + 2),
        ("c4c2c4", 3 + 1 + 3 + 2, 2 + 4),
        ("c2c2", 1 + 1 + 1, 1 + 1),
    ],
)
def test_presentation_counts(name, n_gens, n_relators):
    g = load_fixture(name)
    pres = presentation(g)
    assert len(pres.generators) == n_gens
    assert len(pres.relators) == n_relators


def test_presentation_relators_reduce_to_identity():
    for name in ("c4c6", "c6hnn", "c4c2c4", "c2c2"):
        g = load_fixture(name)
        for rel in presentation(g).relators:
            assert reduce(g, rel).syllables == (), f"{name}: {word_text(g, rel)}"


def _with_nested(name: str) -> list[GraphOfGroups]:
    """The fixture and every graph of groups nested in its vertex groups."""
    out = [load_fixture(name)]
    for g in out:
        out += [vg.sub for vg in g.vertex_groups.values() if isinstance(vg, CompositeVertexGroup)]
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_presentation_relators_match_the_hand_enumeration(name):
    for g in _with_nested(name):
        pres = presentation(g)
        labelled = [(eid, k, rel) for (eid, k), rel in zip(pres.labels, pres.relators)]
        assert len(pres.labels) == len(pres.relators)
        assert labelled == list(_relators(g))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_alphabet_matches_the_ball_and_sampler_lists(name):
    for g in _with_nested(name):
        letters = alphabet(g)
        assert [Word((s,)) for s in letters] == ball_generators(g)
        # The derivation sampler drew tree letters too; the alphabet drops them.
        assert letters == [
            s for s in _generator_alphabet(g) if s[0] == VERTEX or s[1] not in g.tree.edges
        ]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_nested_generator_handles_match_the_hand_enumeration(name):
    nested = [
        vg for g in _with_nested(name) for vg in g.vertex_groups.values()
        if isinstance(vg, CompositeVertexGroup)
    ]
    assert bool(nested) == (name == "expand_demo")
    for vg in nested:
        assert vg.generator_handles() == composite_generator_handles(vg)


# ---------------------------------------------------------------------------
# Derived graphs of groups


def test_rebuilt_keeps_every_part_not_given(c4c6):
    out = _rebuilt(c4c6)
    assert out is not c4c6 and out.graph == c4c6.graph
    assert out.vertex_groups == c4c6.vertex_groups and out.inclusions == c4c6.inclusions
    assert out.tree.edges == c4c6.tree.edges
    assert (out.basepoint, out.name) == (c4c6.basepoint, c4c6.name)


def test_rebuilt_overrides_entries_and_leaves_the_source_alone(c4c6):
    out = _rebuilt(
        c4c6, d0={"e": "w"}, d1={"e": "v"}, inclusions={"e": c4c6.inclusions["e"][::-1]}
    )
    assert (out.graph.d0, out.graph.d1) == ({"e": "w"}, {"e": "v"})
    assert (c4c6.graph.d0, c4c6.graph.d1) == ({"e": "v"}, {"e": "w"})
    assert validate(out).ok


def test_rebuilt_cuts_every_map_down_to_the_new_graph(c4c2c4):
    out = _rebuilt(c4c2c4, vertices=("u", "m"), edges=("e1",), tree={"e1"}, name="part")
    assert set(out.vertex_groups) == {"u", "m"}
    assert set(out.edge_groups) == set(out.inclusions) == set(out.graph.d0) == {"e1"}
    assert out.vertex_groups["u"] is c4c2c4.vertex_groups["u"]
    assert (out.basepoint, out.name) == ("m", "part")


# ---------------------------------------------------------------------------
# Balls


def test_ball_radius_zero(c4c6):
    assert [x.text() for x in ball(c4c6, 0)] == ["1"]


def test_ball_amalgam_radius_one(c4c6):
    # One-syllable words cover a, a², a³, b, ..., b⁵, but b³ = a² collapses,
    # so there are 8 distinct elements including the identity.
    assert len(ball(c4c6, 1)) == 8


def test_ball_free_product(c2c2):
    got = [x.text() for x in ball(c2c2, 2)]
    assert got == ["1", "u:g1", "w:g1", "u:g1 * w:g1", "w:g1 * u:g1"]


def test_ball_nesting(c4c6):
    b2 = {x.syllables for x in ball(c4c6, 2)}
    b3 = {x.syllables for x in ball(c4c6, 3)}
    assert b2 <= b3


def test_ball_cap(c6hnn, monkeypatch):
    monkeypatch.setattr("gogkit.gog.BALL_CAP", 100)
    with pytest.raises(BallTooLarge, match="cap of 100 elements"):
        ball(c6hnn, 6)


def test_ball_deterministic(c4c6):
    first = [x.text() for x in ball(c4c6, 3)]
    second = [x.text() for x in ball(c4c6, 3)]
    assert first == second


def test_ball_rejects_negative_radius(c4c6):
    with pytest.raises(ValueError):
        ball(c4c6, -1)


def test_ball_needs_table_groups(expand_demo):
    with pytest.raises(NotFinite):
        ball(expand_demo, 2)


# The breadth-first walk skips products it already knows; the full walk
# multiplies every element by every letter.  Both must give the same list.

@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_ball_matches_the_full_walk_on_fixtures(name):
    g = load_fixture(name)
    for radius in range(6 if name == "c6hnn" else 7):
        assert ball(g, radius) == ball_bfs(g, radius), radius


@pytest.mark.parametrize("g", [pytest.param(w.target, id=label) for label, w in c08_witnesses()])
def test_ball_matches_the_full_walk_on_rewrite_outputs(g):
    for radius in range(5):
        assert ball(g, radius) == ball_bfs(g, radius), radius


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_ball_cap_is_reached_at_the_same_element(name, monkeypatch):
    g = load_fixture(name)
    size = len(ball(g, 4))
    for cap in (1, size // 2, size - 1):
        monkeypatch.setattr("gogkit.gog.BALL_CAP", cap)
        texts = []
        for walk in (ball, ball_bfs):
            with pytest.raises(BallTooLarge) as exc:
                walk(g, 4)
            texts.append(str(exc.value))
        assert texts == [f"ball exceeds cap of {cap} elements"] * 2
    monkeypatch.setattr("gogkit.gog.BALL_CAP", size)
    assert ball(g, 4) == ball_bfs(g, 4)


def _reductions(walk, g, radius):
    calls = []

    def counted(owner, syllables):
        calls.append(syllables)
        return _normal_form(owner, syllables)

    with pytest.MonkeyPatch.context() as m:
        m.setattr("gogkit.gog._normal_form", counted)
        walk(g, radius)
    return len(calls)


def test_ball_skips_the_products_it_already_knows(c4c6):
    # ball(c4c6, 8) has 212 elements; the full walk makes 1,184 reductions.
    assert _reductions(ball_bfs, c4c6, 8) == 1184
    assert _reductions(ball, c4c6, 8) <= 562


# ---------------------------------------------------------------------------
# Membership


def test_subgraph_membership(c4c6):
    sub = Subgraph.of({"v"})
    assert subgraph_group_membership(c4c6, sub, nf(c4c6, "v:g1"))
    assert subgraph_group_membership(c4c6, sub, nf(c4c6, "w:g3"))  # b³ = a²
    assert not subgraph_group_membership(c4c6, sub, nf(c4c6, "w:g1"))


def test_subgraph_membership_whole_graph(c6hnn):
    sub = Subgraph.of({"v"}, {"t"})
    assert subgraph_group_membership(c6hnn, sub, nf(c6hnn, "t(t) * v:g1"))


def test_subgraph_membership_excludes_letter(c6hnn):
    sub = Subgraph.of({"v"})
    assert not subgraph_group_membership(c6hnn, sub, nf(c6hnn, "t(t)"))


def test_bad_subgraphs(c4c6, c4c2c4):
    with pytest.raises(BadSubgraph):
        subgraph_group_membership(c4c6, Subgraph.of({"w"}), identity(c4c6))
    with pytest.raises(BadSubgraph):
        subgraph_group_membership(c4c6, Subgraph.of({"v", "w"}), identity(c4c6))
    with pytest.raises(BadSubgraph):
        subgraph_group_membership(c4c6, Subgraph.of({"v", "z"}), identity(c4c6))
    with pytest.raises(BadSubgraph):
        # Edge without its endpoints.
        subgraph_group_membership(c4c2c4, Subgraph.of({"m"}, {"e1"}), identity(c4c2c4))


def test_vertex_membership_away_from_basepoint(c4c6):
    x = nf(c4c6, "v:g2")  # a² = b³ lives in the w vertex group too
    assert vertex_group_membership(c4c6, "w", x)
    assert vertex_handle_of(c4c6, "w", x) == 3
    y = nf(c4c6, "v:g1")
    assert not vertex_group_membership(c4c6, "w", y)
    assert vertex_handle_of(c4c6, "w", y) is None
    assert vertex_handle_of(c4c6, "w", identity(c4c6)) == 0


# ---------------------------------------------------------------------------
# Relative malnormality


def test_malnormality_amalgam(c4c6):
    chi = subgroup_closure(c4c6.vertex_groups["w"].group, [3])
    report = verify_relative_malnormality(c4c6, "w", chi)
    assert report.ok, report.summary()


def test_malnormality_free_product(c2c2):
    chi = subgroup_closure(c2c2.vertex_groups["u"].group, [])
    report = verify_relative_malnormality(c2c2, "u", chi)
    assert report.ok, report.summary()


def test_malnormality_counterexample(c4c6):
    # The amalgamated C2 is central, so it lies in every H ∩ H^s.
    for h_vertex in ("v", "w"):
        trivial = subgroup_closure(c4c6.vertex_groups[h_vertex].group, [])
        report = verify_relative_malnormality(c4c6, h_vertex, trivial)
        assert not report.ok
        assert "H ∩ H^s" in report.problems[0]


@pytest.mark.parametrize("name, h_vertex, problem", [
    ("c4c6", "zz", "unknown vertex 'zz'"),
    ("expand_demo", "m", "vertex group at 'm' is not a finite table"),
])
def test_malnormality_needs_a_table_vertex(name, h_vertex, problem):
    report = verify_relative_malnormality(load_fixture(name), h_vertex, None)
    assert report.problems == [problem]


def test_malnormality_reports_a_nested_other_factor(expand_demo):
    chi = subgroup_closure(expand_demo.vertex_groups["z"].group, [])
    report = verify_relative_malnormality(expand_demo, "z", chi)
    assert report.problems == ["vertex group at 'm' is not a finite table"]


def test_malnormality_wrong_shape(c4c2c4):
    chi = subgroup_closure(c4c2c4.vertex_groups["m"].group, [])
    report = verify_relative_malnormality(c4c2c4, "m", chi)
    assert not report.ok


@pytest.mark.parametrize("name, h_vertex, checked", [
    ("c4c6", "v", 4), ("c4c6", "w", 3), ("c2c2", "u", 2), ("c2c2", "w", 2),
])
def test_malnormality_checks_the_vertices_two_edges_out(name, h_vertex, checked):
    # |A:C|·(|B:C| − 1) conjugators, one per vertex a·b·o; the verdict for
    # every subgroup χ of H agrees with the check over the radius-4 ball.
    g = load_fixture(name)
    H = g.vertex_groups[h_vertex].group
    for chi in {subgroup_closure(H, [i]) for i in range(H.order)} | {subgroup_closure(H, [])}:
        report = verify_relative_malnormality(g, h_vertex, chi)
        assert report.ok == malnormality_by_ball(g, h_vertex, chi, 4), chi
        if report.ok:
            assert report.counts == {"checked": checked}


@pytest.mark.parametrize("parent, elements, problem", [
    ("cyclic 6", (0, 3), "χ must be a subgroup of the vertex group at the given vertex"),
    ("v", (0, 1), "handles [0, 1] are not a subgroup at 'v'; they generate [0, 1, 2, 3]"),
], ids=["foreign-parent", "not-closed"])
def test_malnormality_checks_chi(c4c6, parent, elements, problem):
    # A C6 subgroup at the C4 vertex v once answered FAIL about C4 indices.
    group = c4c6.vertex_groups["v"].group if parent == "v" else make_group(parent)
    report = verify_relative_malnormality(c4c6, "v", Subgroup(group, elements))
    assert report.problems == [problem]


# ---------------------------------------------------------------------------
# Composite vertex groups


def test_composite_word_round_trip(expand_demo):
    text = "m:{u:g1 * w:g1} * z:g1"
    w = parse_word(expand_demo, text)
    assert word_text(expand_demo, w) == text


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_table_rows_are_the_group_product(name):
    g = load_fixture(name)
    for vg in g.vertex_groups.values():
        if isinstance(vg, TableVertexGroup):
            group = vg.group
            assert all(vg.rows[a][b] == group.mul(a, b)
                       for a in range(group.order) for b in range(group.order))


def test_nested_rows_are_multiply(expand_demo):
    vg = expand_demo.vertex_groups["m"]
    handles = ball(vg.sub, 2)
    assert all(vg.rows[a][b] == multiply(a, b) for a in handles for b in handles)


def test_composite_inclusion_identifies(expand_demo):
    # The edge glues z's generator to the left factor of the nested group.
    assert equal(nf(expand_demo, "z:g1"), nf(expand_demo, "m:{u:g1}"))
    assert not equal(nf(expand_demo, "z:g1"), nf(expand_demo, "m:{w:g1}"))
    x = nf(expand_demo, "m:{u:g1 * w:g1} * m:{w:g1}")
    assert equal(x, nf(expand_demo, "z:g1"))


def test_validate_reports(c4c6):
    assert validate(c4c6).ok
    broken = load_fixture("c4c6")
    broken.inclusions["e"] = ((0, 2), (0, 2))  # b² is not an involution
    report = validate(broken)
    assert not report.ok
    assert any("not a homomorphism" in p for p in report.problems)


def test_validate_reports_out_of_range_image(c4c6):
    # 7 is no element of C6; the checks after the range check never index it.
    g = GraphOfGroups(c4c6.graph, c4c6.vertex_groups, c4c6.edge_groups, {"e": ((0, 2), (0, 7))})
    report = validate(g)
    assert not report.ok
    assert report.problems == ["edge 'e' side 1: image 7 not in group at 'w'"]


def test_vertex_element_and_identity_helpers(c4c6):
    assert vertex_element(c4c6, "v", 1).text() == "v:g1"
    assert identity(c4c6).syllables == ()


# ---------------------------------------------------------------------------
# Handle checks where words enter


@pytest.mark.parametrize("handle", [99, -1, 1.0, True, "g1"])
def test_reduce_rejects_a_bad_table_handle(c4c6, handle):
    # -1 would index the last row of C4's table if nothing checked it.
    for syllables in (
        ((VERTEX, "v", handle),),
        ((VERTEX, "w", 1), (LETTER, "e", 1), (VERTEX, "v", handle), (VERTEX, "w", 2)),
    ):
        with pytest.raises(MalformedWord):
            reduce(c4c6, Word(syllables))


def test_reduce_rejects_a_foreign_nested_handle(expand_demo):
    other = load_fixture("expand_demo")
    foreign = other.vertex_groups["m"].generator_handles()[0]
    own = expand_demo.vertex_groups["m"].generator_handles()[0]
    assert foreign == reduce(other.vertex_groups["m"].sub, Word(own.syllables))
    for syllables in (((VERTEX, "m", foreign),), ((VERTEX, "z", 1), (VERTEX, "m", foreign))):
        with pytest.raises(MalformedWord):
            reduce(expand_demo, Word(syllables))
    assert reduce(expand_demo, Word(((VERTEX, "m", own),))).syllables


@pytest.mark.parametrize("syllables", [
    ((LETTER, "zz", 1),),
    (("x", "v", 1),),
    ((VERTEX, "v"),),
    ((LETTER, "t", 2),),  # read as t(t) if nothing checked the exponent
])
def test_reduce_rejects_what_is_not_a_syllable(c6hnn, syllables):
    with pytest.raises(MalformedWord):
        reduce(c6hnn, Word(syllables))


@pytest.mark.parametrize("exp", [True, 1.0, -1.0])
def test_a_letter_exponent_must_be_an_int(c6hnn, exp):
    # True == 1.0 == 1, so a membership test in (1, -1) alone lets them through.
    syllables = ((LETTER, "t", exp),)
    d = accessibility_derivation(c6hnn, "v", 5)
    for enter in (
        lambda: NormalForm(c6hnn, syllables),
        lambda: reduce(c6hnn, Word(syllables)),
        lambda: stable_letter(c6hnn, "t", exp),
        lambda: evaluate(d, syllables),
    ):
        with pytest.raises(MalformedWord):
            enter()


def test_reduce_rejects_syllables_that_are_not_a_tuple(c4c6):
    # A list would reach the reducer, whose tuple concatenation raises TypeError.
    with pytest.raises(MalformedWord, match="^syllables must be a tuple, got list$"):
        reduce(c4c6, Word([(VERTEX, "v", 1)]))


@pytest.mark.parametrize("unit", [
    lambda g: vertex_element(g, "zz", 1),
    lambda g: stable_letter(g, "zz"),
    lambda g: stable_letter(g, "t", 2),
], ids=["unknown-vertex", "unknown-edge", "exponent-2"])
def test_units_reject_what_is_not_a_syllable(c6hnn, unit):
    with pytest.raises(MalformedWord):
        unit(c6hnn)


@pytest.mark.parametrize("syllables", [
    ((VERTEX, "v", -1),),
    ((VERTEX, "v", 99),),
    ((VERTEX, "v", 1), (VERTEX, "v", 1)),  # v:g2 written as a product
    ((VERTEX, "v", 0),),  # the identity written out
    ((LETTER, "e", 1),),  # a spanning-tree letter
    ((VERTEX, "w", 3),),  # the edge-group image, whose normal form is v:g2
    ((LETTER, "zz", 1),),
    ((VERTEX, "zz", 1),),
    (("x", "v", 1),),
    ((VERTEX, "v"),),
    ("v:g1",),
])
def test_normal_form_constructor_rejects_what_is_not_a_normal_form(c4c6, syllables):
    with pytest.raises(MalformedWord):
        NormalForm(c4c6, syllables)


def test_a_forged_normal_form_reaches_no_reader(c4c6):
    d = accessibility_derivation(c4c6, "v", 5)
    with pytest.raises(MalformedWord):
        multiply(NormalForm(c4c6, ((VERTEX, "v", -1),)), nf(c4c6, "w:g1"))
    with pytest.raises(MalformedWord):
        evaluate(d, NormalForm(c4c6, ((VERTEX, "v", -1),)))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_normal_form_constructor_accepts_every_normal_form(name):
    g = load_fixture(name)
    if g.all_tables():
        elements = ball(g, 3)
    else:
        elements = [reduce(g, Word((s,))) for s in alphabet(g)]
        elements += [multiply(x, y) for x in elements for y in elements]
    for x in elements:
        assert NormalForm(g, list(x.syllables)) == x


def _path_with_double_edge(tree_edges):
    """C2 at a, b and c with trivial edge groups; e1 and e2 run a→b, e3 runs b→c."""
    graph = FiniteGraph(
        ("a", "b", "c"),
        ("e1", "e2", "e3"),
        {"e1": "a", "e2": "a", "e3": "b"},
        {"e1": "b", "e2": "b", "e3": "c"},
    )
    c1, c2 = make_group("cyclic 1"), make_group("cyclic 2")
    return GraphOfGroups(
        graph,
        {v: c2 for v in graph.vertices},
        {e: c1 for e in graph.edges},
        {e: ((0,), (0,)) for e in graph.edges},
        tree=SpanningTree(graph, frozenset(tree_edges)),
    )


def test_tree_missing_a_vertex_is_rejected():
    # {e1, e2} has |V| - 1 edges but never reaches c, so c:g1 had no tree path.
    with pytest.raises(ValueError, match="does not connect all vertices"):
        _path_with_double_edge({"e1", "e2"})
    g = _path_with_double_edge({"e1", "e3"})
    assert validate(g).ok
    assert nf(g, "c:g1").text() == "c:g1"


def test_tree_over_another_graph_is_rejected(c4c6):
    other = FiniteGraph(("v", "w"), ("f",), {"f": "v"}, {"f": "w"})
    with pytest.raises(ValueError, match="different graph"):
        GraphOfGroups(
            c4c6.graph,
            c4c6.vertex_groups,
            c4c6.edge_groups,
            c4c6.inclusions,
            tree=SpanningTree(other, frozenset({"f"})),
        )

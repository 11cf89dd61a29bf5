"""Tests for derivations: the law, gluing, the two constructions, kernel scans."""
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import check_well_defined, evaluate_two_step
from gogkit.acceptance import _derivations
from gogkit.errors import BadModulus, GluingConditionFailed, MalformedWord
from gogkit.derivation import (
    STANDARD,
    TWISTED,
    Component,
    Derivation,
    accessibility_derivation,
    derivation_data,
    derivation_from_data,
    dunwoody_derivation,
    evaluate,
    free_retract,
    glue,
    is_zero,
    kernel_scan,
)
from gogkit.fixtures import load_fixture
from gogkit.gog import (
    LETTER,
    VERTEX,
    Subgraph,
    Word,
    ball,
    identity,
    multiply,
    nf,
    parse_word,
    reduce,
    vertex_element,
)
from gogkit.group_ring import ring_term, subtract

AMALGAM = load_fixture("c4c6")
HNN = load_fixture("c6hnn")


def ring_texts(values):
    return [v.text() for v in values]


# ---------------------------------------------------------------------------
# The derivation law


@settings(deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [(VERTEX, "v", k) for k in range(1, 4)]
            + [(VERTEX, "w", k) for k in range(1, 6)]
            + [(LETTER, "e", 1), (LETTER, "e", -1)]
        ),
        max_size=6,
    ),
    st.lists(
        st.sampled_from(
            [(VERTEX, "v", k) for k in range(1, 4)] + [(VERTEX, "w", k) for k in range(1, 6)]
        ),
        max_size=6,
    ),
)
def test_derivation_law_on_products(sylls1, sylls2):
    """f(gh) = f(g)·α(h) + f(h) for the Dunwoody derivation on the amalgam."""
    from gogkit.group_ring import act_right, add

    d = dunwoody_derivation(AMALGAM, "v", "w", 5)
    g_elt = reduce(AMALGAM, Word(tuple(sylls1)))
    h_elt = reduce(AMALGAM, Word(tuple(sylls2)))
    lhs = evaluate(d, multiply(g_elt, h_elt))[0]
    rhs = add(act_right(evaluate(d, g_elt)[0], h_elt), evaluate(d, h_elt)[0])
    assert lhs == rhs


@settings(deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [(VERTEX, "v", k) for k in range(1, 6)] + [(LETTER, "t", 1), (LETTER, "t", -1)]
        ),
        max_size=6,
    )
)
def test_evaluation_is_word_invariant_hnn(sylls):
    """Evaluating a word and its normal form agree (well-definedness in action)."""
    d = accessibility_derivation(HNN, "v", 5)
    w = Word(tuple(sylls))
    assert evaluate(d, w) == evaluate(d, reduce(HNN, w))


# ---------------------------------------------------------------------------
# Frozen values on the amalgam


def test_dunwoody_values_amalgam(c4c6):
    d = dunwoody_derivation(c4c6, "v", "w", 5)
    assert d.rank == 1
    assert d.components[0].action == STANDARD
    # f(b) = b + b⁴ − 1 − b³ with b³ = a² and b⁴ = b·a² in normal form.
    assert (
        evaluate(d, nf(c4c6, "w:g1"))[0].text()
        == "4·[1] + 4·[v:g2] + 1·[w:g1] + 1·[w:g1 * v:g2]"
    )
    assert (
        evaluate(d, nf(c4c6, "w:g2"))[0].text()
        == "4·[1] + 4·[v:g2] + 1·[w:g2] + 1·[w:g2 * v:g2]"
    )
    assert evaluate(d, nf(c4c6, "w:g3"))[0].is_zero()
    assert evaluate(d, nf(c4c6, "v:g1"))[0].is_zero()
    assert check_well_defined(d, samples=150).ok


def test_dunwoody_kernel_is_edge_image(c4c6, c4c2c4):
    d = dunwoody_derivation(c4c6, "v", "w", 5)
    for h in range(6):
        x = vertex_element(c4c6, "w", h)
        assert is_zero(evaluate(d, x)) == (h in (0, 3))
    d2 = dunwoody_derivation(c4c2c4, "m", "w", 5)
    for h in range(4):
        x = vertex_element(c4c2c4, "w", h)
        assert is_zero(evaluate(d2, x)) == (h in (0, 2))


def test_accessibility_amalgam_is_single_dunwoody(c4c6):
    acc = accessibility_derivation(c4c6, "v", 5)
    d = dunwoody_derivation(c4c6, "v", "w", 5)
    assert acc.rank == 1
    assert acc.components[0].values == d.components[0].values


@pytest.mark.parametrize("handle", [99, -1, 1.0, "g1"])
def test_evaluate_rejects_a_bad_handle(c4c6, handle):
    d = accessibility_derivation(c4c6, "v", 5)
    syllables = ((VERTEX, "w", 1), (VERTEX, "v", handle))
    for x in (Word(syllables), syllables):
        with pytest.raises(MalformedWord):
            evaluate(d, x)


def test_evaluate_rejects_what_is_not_a_syllable(c6hnn):
    # Without the check, the unknown edge carries no value and evaluates to 0.
    d = accessibility_derivation(c6hnn, "v", 5)
    syllables = ((LETTER, "zz", 1),)
    for x in (Word(syllables), syllables):
        with pytest.raises(MalformedWord):
            evaluate(d, x)


# ---------------------------------------------------------------------------
# The HNN letter component and the two naive tables


def t_minus_one(g, mod):
    return subtract(ring_term(nf(g, "t(t)"), mod), ring_term(identity(g), mod))


def test_naive_standard_table_fails_gluing(c6hnn):
    """f(b)=0, f(t)=t−1 with the standard action leaves residue c − ct + t − 1."""
    with pytest.raises(GluingConditionFailed) as exc:
        glue(c6hnn, 5, [(STANDARD, {"t(t)": t_minus_one(c6hnn, 5)})])
    assert exc.value.edge == "t"
    assert exc.value.element == 1
    assert exc.value.residue == "4·[1] + 1·[t(t)] + 1·[v:g3] + 4·[t(t) * v:g3]"


def test_check_well_defined_reports_the_surviving_relator(c6hnn):
    """The naive standard table, built without glue, as component 1 of 2."""
    d = Derivation(c6hnn, 5, (
        Component(STANDARD, {}),
        Component(STANDARD, {(LETTER, "t"): t_minus_one(c6hnn, 5)}),
    ))
    report = check_well_defined(d, samples=50)
    assert not report.ok
    assert report.problems[0] == (
        "component 1: relator v:g3 * t(t)^-1 * v:g3 * t(t) evaluates to "
        "4·[1] + 1·[t(t)] + 1·[v:g3] + 4·[t(t) * v:g3]"
    )
    assert not any(line.startswith("component 0") for line in report.problems)
    assert report.counts == {"relators": 2, "sampled_pairs": 50}


def test_naive_twisted_table_is_blind_to_conjugates(c6hnn):
    """The twisted table passes gluing but kills t·b·t⁻¹, which is not in C6."""
    d = glue(c6hnn, 5, [(TWISTED, {"t(t)": t_minus_one(c6hnn, 5)})])
    assert check_well_defined(d, samples=150).ok
    conj = nf(c6hnn, "t(t) * v:g1 * t(t)^-1")
    assert is_zero(evaluate(d, conj))
    from gogkit.gog import vertex_group_membership

    assert not vertex_group_membership(c6hnn, "v", conj)


def test_letter_component_detects_conjugates(c6hnn):
    acc = accessibility_derivation(c6hnn, "v", 5)
    assert acc.rank == 1
    # f(t) = (t−1)(1+b³) has four ±1 terms.
    assert (
        evaluate(acc, nf(c6hnn, "t(t)"))[0].text()
        == "4·[1] + 1·[t(t)] + 4·[v:g3] + 1·[t(t) * v:g3]"
    )
    conj = nf(c6hnn, "t(t) * v:g1 * t(t)^-1")
    val = evaluate(acc, conj)[0]
    assert len(val.terms) == 8
    assert sorted(val.terms.values()) == [1, 1, 1, 1, 4, 4, 4, 4]
    assert check_well_defined(acc, samples=150).ok


def test_free_retract(c6hnn):
    assert free_retract(c6hnn, nf(c6hnn, "v:g2 * t(t) * v:g1")).text() == "t(t)"
    assert free_retract(c6hnn, nf(c6hnn, "v:g1")).text() == "1"


def test_twisted_action_ignores_vertex_suffixes(c6hnn):
    d = glue(c6hnn, 5, [(TWISTED, {"t(t)": t_minus_one(c6hnn, 5)})])
    assert evaluate(d, nf(c6hnn, "t(t) * v:g1")) == evaluate(d, nf(c6hnn, "t(t) * v:g2"))


# ---------------------------------------------------------------------------
# Gluing diagnostics


def test_glue_rejects_tree_letter_values(c4c6):
    with pytest.raises(GluingConditionFailed) as exc:
        glue(
            c4c6,
            5,
            [(STANDARD, {"t(e)": ring_term(identity(c4c6), 5)})],
        )
    assert exc.value.edge == "e"
    assert exc.value.element is None


def test_glue_accepts_dunwoody_table(c4c6):
    d = dunwoody_derivation(c4c6, "v", "w", 5)
    table = {}
    for key, vec in d.components[0].values.items():
        kind, vid, handle = key
        table[f"{vid}:g{handle}"] = vec
    rebuilt = glue(c4c6, 5, [(STANDARD, table)])
    assert rebuilt.components[0].values == d.components[0].values


def test_glue_rejects_badly_keyed_tables(c4c6):
    with pytest.raises(ValueError):
        glue(c4c6, 5, [(STANDARD, {"v:g1 * v:g2": ring_term(identity(c4c6), 5)})])
    with pytest.raises(ValueError):
        glue(c4c6, 5, [(STANDARD, {"v:g0": ring_term(identity(c4c6), 5)})])
    with pytest.raises(ValueError):
        glue(c4c6, 5, [(STANDARD, {"t(e)^-1": ring_term(identity(c4c6), 5)})])


# ---------------------------------------------------------------------------
# Kernel scans


def test_kernel_scan_amalgam(c4c6):
    acc = accessibility_derivation(c4c6, "v", 5)
    report = kernel_scan(acc, "v", 3)
    assert report.ok, report.summary()
    assert report.counts["mismatches"] == 0
    assert report.counts["elements"] == 28


def test_kernel_scan_hnn(c6hnn):
    acc = accessibility_derivation(c6hnn, "v", 5)
    report = kernel_scan(acc, "v", 3)
    assert report.ok, report.summary()


def test_kernel_scan_path_with_subgraph(c4c2c4):
    acc = accessibility_derivation(c4c2c4, "m", 5)
    report = kernel_scan(acc, Subgraph.of({"m"}), 3)
    assert report.ok, report.summary()


def test_kernel_scan_reports_mismatches(c6hnn):
    # The twisted table's kernel swallows conjugates like t·b·t⁻¹, which have
    # three syllables, so the first mismatches appear at radius 3.
    d = glue(c6hnn, 5, [(TWISTED, {"t(t)": t_minus_one(c6hnn, 5)})])
    assert kernel_scan(d, "v", 2).ok
    report = kernel_scan(d, "v", 3)
    assert not report.ok
    assert report.counts["mismatches"] == 8
    assert report.problems[5:] == ["… and 3 more mismatches not listed"]


def test_bad_modulus(c4c6):
    with pytest.raises(BadModulus):
        accessibility_derivation(c4c6, "v", 2)


# ---------------------------------------------------------------------------
# Serialization


def test_derivation_round_trip(c4c6):
    d = dunwoody_derivation(c4c6, "v", "w", 5)
    data = derivation_data(d)
    assert data["mod"] == 5
    assert data["components"][0]["action"] == STANDARD
    rebuilt = derivation_from_data(c4c6, data)
    assert rebuilt.components[0].values == d.components[0].values


def test_derivation_round_trip_letter(c6hnn):
    d = accessibility_derivation(c6hnn, "v", 5)
    rebuilt = derivation_from_data(c6hnn, derivation_data(d))
    assert rebuilt.components[0].values == d.components[0].values
    assert "t(t)" in derivation_data(d)["components"][0]["values"]


def test_derivation_from_data_rejects_unknown_action(c4c6):
    with pytest.raises(ValueError):
        derivation_from_data(c4c6, {"mod": 5, "components": [{"action": "left"}]})


def test_glue_rejects_unknown_action(c4c6):
    with pytest.raises(ValueError, match=r"^unknown action 'sideways'$"):
        glue(c4c6, 5, [("sideways", {})])


def test_derivation_from_data_enforces_gluing(c4c6):
    # v:g2 is the edge-group image, so its value must match w:g3's (zero).
    data = {"mod": 5, "components": [{"values": {"v:g2": [{"word": "1", "coeff": 1}]}}]}
    with pytest.raises(GluingConditionFailed) as info:
        derivation_from_data(c4c6, data)
    assert info.value.edge == "e"


def _mixed_actions_c6hnn():
    """Rank 2 on c6hnn: the standard letter component beside the twisted t − 1."""
    letter_value = evaluate(accessibility_derivation(HNN, "v", 5), nf(HNN, "t(t)"))[0]
    tables = [(STANDARD, {"t(t)": letter_value}), (TWISTED, {"t(t)": t_minus_one(HNN, 5)})]
    return [("standard + twisted", glue(HNN, 5, tables))]


@pytest.mark.parametrize("name", ["c4c6", "c6hnn", "c4c2c4", "c2c2", "c6hnn-mixed"])
def test_evaluate_matches_two_step_reference(name):
    derivations = _mixed_actions_c6hnn() if name == "c6hnn-mixed" else _derivations(load_fixture(name), name)
    for label, d in derivations:
        for x in ball(d.owner, 3):
            assert evaluate(d, x) == evaluate_two_step(d, x), (label, x.text())


def test_evaluate_reads_the_word_it_is_given(c4c6):
    # glue accepts this table, since the presentation has no vertex-group
    # relators yet, though it breaks the law: the word v:g1 * v:g1 and its
    # normal form v:g2 get different values.  evaluate, like the two-step
    # reference, evaluates the word as given.
    d = glue(c4c6, 5, [(STANDARD, {"v:g1": ring_term(identity(c4c6), 5)})])
    word = parse_word(c4c6, "v:g1 * v:g1")
    assert reduce(c4c6, word).text() == "v:g2"
    for evaluator in (evaluate, evaluate_two_step):
        assert ring_texts(evaluator(d, word)) == ["1·[1] + 1·[v:g1]"]
        assert ring_texts(evaluator(d, reduce(c4c6, word))) == ["0"]

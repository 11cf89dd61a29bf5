"""Tests for sparse group-ring vectors over Z/m."""
import pytest

from gogkit.derivation import derivation_from_data, evaluate
from gogkit.errors import GluingConditionFailed, MixedOwners, RingMismatch
from gogkit.fixtures import load_fixture
from gogkit.gog import identity, nf
from gogkit.group_ring import (
    _ring_from_terms,
    act_right,
    add,
    group_sum,
    ring_data,
    ring_term,
    ring_zero,
    scale,
    subtract,
)


def test_zero_and_normalization(c4c6):
    z = ring_zero(c4c6, 5)
    assert z.is_zero()
    assert z.text() == "0"
    u = ring_term(nf(c4c6, "v:g1"), 5, coeff=10)
    assert u.is_zero()  # 10 ≡ 0 mod 5
    v = ring_term(nf(c4c6, "v:g1"), 5, coeff=-1)
    assert v.terms[nf(c4c6, "v:g1")] == 4


def test_modulus_must_be_at_least_two(c4c6):
    with pytest.raises(ValueError):
        ring_zero(c4c6, 1)


def test_add_and_scale(c4c6):
    a = ring_term(nf(c4c6, "v:g1"), 7)
    b = ring_term(nf(c4c6, "w:g1"), 7, coeff=3)
    s = add(a, b)
    assert s.terms[nf(c4c6, "v:g1")] == 1
    assert s.terms[nf(c4c6, "w:g1")] == 3
    assert subtract(s, s).is_zero()
    assert scale(a, 7).is_zero()


def test_terms_merge_under_reduction(c4c6):
    # b³ and a² are the same element, so their terms combine.
    u = add(ring_term(nf(c4c6, "w:g3"), 5), ring_term(nf(c4c6, "v:g2"), 5))
    assert list(u.terms.values()) == [2]


def test_act_right(c4c6):
    one = ring_term(identity(c4c6), 5)
    moved = act_right(one, nf(c4c6, "w:g1"))
    assert moved.terms == {nf(c4c6, "w:g1"): 1}
    # Right action is a ring action: (u·x)·x⁻¹ = u.
    u = add(one, ring_term(nf(c4c6, "v:g1"), 5, coeff=2))
    x = nf(c4c6, "w:g2 * v:g1")
    from gogkit.gog import invert

    assert act_right(act_right(u, x), invert(x)) == u


def test_mismatch_errors():
    g1, g2 = load_fixture("c4c6"), load_fixture("c4c6")
    with pytest.raises(RingMismatch):
        add(ring_zero(g1, 5), ring_zero(g1, 7))
    with pytest.raises(MixedOwners):
        add(ring_zero(g1, 5), ring_zero(g2, 5))
    with pytest.raises(MixedOwners):
        act_right(ring_zero(g1, 5), identity(g2))


def test_group_sum(c4c6):
    P = group_sum(c4c6, [identity(c4c6), nf(c4c6, "w:g3")], 5)
    assert len(P.terms) == 2
    # Doubling an element merges coefficients.
    Q = group_sum(c4c6, [identity(c4c6), identity(c4c6)], 5)
    assert Q.terms == {identity(c4c6): 2}


def test_push_to_quotient(c4c6):
    from gogkit.finite_group import make_group
    from gogkit.quotients import quotient_from_images

    # Send a ↦ 1, b ↦ 0: count v-syllable exponents mod 2.
    images = {"v": (0, 1, 0, 1), "w": (0,) * 6}
    q = quotient_from_images(c4c6, make_group("cyclic 2"), images, {"e": 0})
    u = add(ring_term(nf(c4c6, "v:g1"), 5), ring_term(nf(c4c6, "w:g1"), 5, coeff=2))
    assert q.push(u) == {0: 2, 1: 1}


def test_json_round_trip(c4c6):
    u = add(
        ring_term(nf(c4c6, "w:g1 * v:g2"), 5, coeff=3),
        ring_term(identity(c4c6), 5, coeff=4),
    )
    data = ring_data(u)
    assert data["mod"] == 5
    assert [t["word"] for t in data["terms"]] == ["1", "w:g1 * v:g2"]
    assert _ring_from_terms(c4c6, data["mod"], data["terms"], ("terms",)) == u


def test_from_data_reduces_words(c4c6):
    # Unreduced aliases of the same element merge on load: 1 + 4 ≡ 0 (mod 5)
    # leaves the zero derivation, where either term alone fails to glue.
    terms = [{"word": "w:g3", "coeff": 1}, {"word": "v:g2", "coeff": 4}]
    d = derivation_from_data(c4c6, {"mod": 5, "components": [{"values": {"v:g2": terms}}]})
    assert evaluate(d, nf(c4c6, "v:g2"))[0].is_zero()
    for term in terms:
        with pytest.raises(GluingConditionFailed):
            derivation_from_data(c4c6, {"mod": 5, "components": [{"values": {"v:g2": [term]}}]})


def test_from_data_requires_fields(c4c6):
    with pytest.raises(ValueError, match="^mod is missing$"):
        derivation_from_data(c4c6, {"components": []})
    with pytest.raises(ValueError, match=r"^components\[0\]\.values\['v:g1'\]\[0\]\.coeff is missing$"):
        derivation_from_data(c4c6, {"mod": 5, "components": [{"values": {"v:g1": [{"word": "1"}]}}]})

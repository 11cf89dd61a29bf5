"""Certificates checked in the target: ``push_derivation`` against the push of
``evaluate``, and the soundness of ``check_certificate``.

``push_derivation`` re-derives the push of a derivation value by Fox's
formula over the target's table.  It must equal ``q.push(evaluate(d, x)[i])``
for every homomorphism q, on every component, standard or twisted, for raw
words as well as normal forms.  It need not for a map that is not a
homomorphism, so every ``FiniteQuotient`` is one (its constructor checks)
and ``check_certificate`` refuses a quotient of another graph.
"""
import dataclasses
import importlib
import os
import random
import sys

import pytest

import gogkit.acceptance as acceptance
from gogkit.derivation import accessibility_derivation, dunwoody_derivation, evaluate
from gogkit.errors import MalformedWord
from gogkit.finite_group import make_group
from gogkit.fixtures import load_fixture
from gogkit.gog import LETTER, VERTEX, Word, ball, nf, reduce
from gogkit.quotients import (
    FiniteQuotient,
    NonkernelCertificate,
    _iter_quotients,
    _unchecked,
    certify_nonkernel,
    check_certificate,
    push_derivation,
    quotient_data,
    quotient_from_data,
    quotient_from_images,
)

from test_gog import ORACLE_DERIVATIONS, ORACLE_GRAPHS

GOGBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "gogbench")
TABLE_FIXTURES = ("c4c6", "c6hnn", "c4c2c4", "c2c2")


def _assert_pushes_agree(q, d, x):
    values = evaluate(d, x)
    for i in range(d.rank):
        assert push_derivation(q, d, x, i) == q.push(values[i]), (q, d.components[i].action, x, i)


def _raw_words(g, rng, count: int, longest: int = 12):
    """Seeded unreduced words: every handle (the identity too) and both letter signs."""
    syllables = [(VERTEX, v, h) for v in sorted(g.graph.vertices)
                 for h in g.vertex_groups[v].handles()]
    syllables += [(LETTER, e, s) for e in sorted(g.graph.edges) for s in (1, -1)]
    return [Word(tuple(rng.choice(syllables) for _ in range(rng.randrange(longest + 1))))
            for _ in range(count)]


def _gogbench_workloads():
    sys.path.insert(0, GOGBENCH)
    try:
        return importlib.import_module("workloads"), importlib.import_module("spans")
    finally:
        sys.path.remove(GOGBENCH)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_certify_op_of_the_quotients_round_pushes_alike(seed):
    workloads, spans = _gogbench_workloads()
    rng = random.Random(f"gogbench:quotients:{seed}")
    round_ = workloads._quotients(rng, spans.NoTrace())
    ops = {(id(op.args[0]), op.args[1]): op.args for op in round_.ops if op.kind == "certify"}
    assert len(ops) > 100  # every nonzero element of each fixture's ball of radius 3
    for d, x in ops.values():
        cert = certify_nonkernel(d, x)
        _assert_pushes_agree(cert.quotient, d, x)
        assert check_certificate(cert, d, x)


def _recorded(monkeypatch, name: str):
    """Run the acceptance function ``name`` calls, keeping every quotient it returns."""
    found = []
    inner = getattr(acceptance, name)

    def keep(*args, **kwargs):
        out = inner(*args, **kwargs)
        found.append(out[0] if isinstance(out, tuple) else out)
        return out

    monkeypatch.setattr(acceptance, name, keep)
    return found


def test_c09_and_c10_quotients_push_alike(monkeypatch):
    rng = random.Random("certificate push c09 c10")
    c09 = _recorded(monkeypatch, "search_quotient")
    assert acceptance.run_check("c09-residual-finiteness").ok
    monkeypatch.undo()
    c10 = _recorded(monkeypatch, "_first_quotient")
    assert acceptance.run_check("c10-coset-functional").ok
    assert c09 and c10
    cases = [(q, d) for q in c09 for _, d in acceptance._derivations(q.owner, q.owner.name)]
    cases += [(q, dunwoody_derivation(q.owner, "v", "w", 5)) for q in c10]
    for q, d in cases:
        assert quotient_from_images(q.owner, q.target, q.vertex_images, q.letter_images) == q
        for x in ball(q.owner, 2) + _raw_words(q.owner, rng, 10):
            _assert_pushes_agree(q, d, x)


@pytest.mark.parametrize("name", TABLE_FIXTURES)
def test_raw_words_push_alike_through_s4_homs_standard_and_twisted(name):
    g, d = ORACLE_GRAPHS[name], ORACLE_DERIVATIONS[name]
    assert [c.action for c in d.components] == ["standard", "twisted"]
    rng = random.Random(f"certificate push {name}")
    homs = list(_iter_quotients(g, make_group("symmetric 4")))
    for q in rng.sample(homs, 8):
        for w in _raw_words(g, rng, 25):
            for x in (w, w.syllables, reduce(g, w)):
                _assert_pushes_agree(q, d, x)


# ---------------------------------------------------------------------------
# Soundness


def _zero_word_and_forgery(g):
    """w:g1·w:g2, whose value is zero upstairs, and image maps into C3 that
    are no homomorphism (w:g1 and w:g2 both go to 1) under which Fox's
    formula reads a nonzero value on it."""
    d = accessibility_derivation(g, "v", 5)
    x = Word(((VERTEX, "w", 1), (VERTEX, "w", 2)))
    forged = (make_group("cyclic 3"), {"v": (0,) * 4, "w": (0, 1, 1, 0, 1, 1)}, {"e": 0})
    return d, x, forged


def test_a_quotient_that_is_not_a_hom_certifies_nothing(c4c6):
    d, x, forged = _zero_word_and_forgery(c4c6)
    assert all(v.is_zero() for v in evaluate(d, x))
    # Why a quotient must be a hom: built unchecked, as only the walk builds,
    # the forgery would push a zero value to a nonzero one.
    assert push_derivation(_unchecked(c4c6, *forged), d, x, 0) == {0: 3, 2: 2}
    with pytest.raises(ValueError, match="^image tables do not define a homomorphism$"):
        FiniteQuotient(c4c6, *forged)
    assert quotient_from_images(c4c6, *forged) is None
    data = quotient_data(_unchecked(c4c6, *forged))
    with pytest.raises(ValueError, match="^image tables do not define a homomorphism$"):
        quotient_from_data(c4c6, data)


def test_a_quotient_cannot_be_changed(c4c6):
    d = accessibility_derivation(c4c6, "v", 5)
    b = nf(c4c6, "w:g1")
    cert = certify_nonkernel(d, b)
    q = cert.quotient
    with pytest.raises(TypeError):
        q.vertex_images["w"] = (0, 1, 1, 0, 1, 1)
    with pytest.raises(TypeError):
        q.letter_images["e"] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.vertex_images = {}
    # The maps it was built from are copied, so changing them changes nothing.
    images = {"v": [0, 0, 0, 0], "w": [0, 1, 2, 0, 1, 2]}
    built = quotient_from_images(c4c6, q.target, images, {"e": 0})
    images["w"][1] = 2
    images["v"] = [0, 1, 2, 3]
    assert built == q and built.vertex_images["w"] == (0, 1, 2, 0, 1, 2)
    assert check_certificate(NonkernelCertificate(built, 0, cert.pushed), d, b)
    # A copy with other images goes through the constructor's check.
    _, _, (_, forged_images, _) = _zero_word_and_forgery(c4c6)
    with pytest.raises(ValueError, match="^image tables do not define a homomorphism$"):
        dataclasses.replace(q, vertex_images=forged_images)


def test_a_constructed_copy_of_a_hom_is_accepted(c4c6):
    d = accessibility_derivation(c4c6, "v", 5)
    b = nf(c4c6, "w:g1")
    cert = certify_nonkernel(d, b)
    q = cert.quotient
    copy = FiniteQuotient(c4c6, q.target, {**q.vertex_images, "nope": (1,)}, q.letter_images)
    assert copy == q and dict(copy.vertex_images) == dict(q.vertex_images)
    assert check_certificate(NonkernelCertificate(copy, cert.component, cert.pushed), d, b)


def test_a_certificate_of_another_graph_object_is_refused(c4c6):
    twin = load_fixture("c4c6")
    d, d_twin = (accessibility_derivation(g, "v", 5) for g in (c4c6, twin))
    cert = certify_nonkernel(d_twin, nf(twin, "w:g1"))
    assert check_certificate(cert, d_twin, nf(twin, "w:g1"))
    assert not check_certificate(cert, d, nf(c4c6, "w:g1"))


def test_a_foreign_word_still_raises(c4c6, c6hnn):
    d = accessibility_derivation(c4c6, "v", 5)
    cert = certify_nonkernel(d, nf(c4c6, "w:g1"))
    for x in (nf(c6hnn, "t(t)"), ((VERTEX, "w", 9),), ((LETTER, "e", 2),)):
        with pytest.raises(MalformedWord):
            check_certificate(cert, d, x)
        with pytest.raises(MalformedWord):
            push_derivation(cert.quotient, d, x, 0)

"""Reduction counts of the read paths, counted by a wrapper around
``gog._reduce_from``: a timing-free guard for what they skip.

``evaluate`` reduces each term of a value once, moved by the raw tail of the
word, and nothing when the tail is empty; a base-vertex coset reduces its
representative once.
"""
import random

import pytest

from gogkit import gog
from gogkit.acceptance import _derivations
from gogkit.derivation import evaluate
from gogkit.fixtures import load_fixture
from gogkit.gog import LETTER, VERTEX, Word, alphabet, ball
from gogkit.structure_tree import tree_vertex


@pytest.fixture
def reductions(monkeypatch):
    """A list that grows by one per ``_reduce_from`` call."""
    calls = []
    inner = gog._reduce_from

    def counted(g, syllables, base):
        calls.append(syllables)
        return inner(g, syllables, base)

    monkeypatch.setattr(gog, "_reduce_from", counted)
    return calls


def moved_terms(d, syllables) -> int:
    """Terms of the values f(sᵢ) moved by a non-empty tail: every sᵢ but the
    last, and a last t⁻¹, whose value f(t⁻¹) = −f(t)·t⁻¹ moves by t⁻¹."""
    total = 0
    for comp in d.components:
        for i, syl in enumerate(syllables):
            vec = comp.values.get(syl if syl[0] == VERTEX else (LETTER, syl[1]))
            if vec is not None and (i < len(syllables) - 1 or syl[0] == LETTER and syl[2] < 0):
                total += len(vec.terms)
    return total


@pytest.mark.parametrize("name", ["c4c6", "c6hnn", "c4c2c4", "c2c2"])
def test_evaluate_reduces_at_most_once_per_moved_term(name, reductions):
    rng = random.Random(name)
    seen = 0
    for label, d in _derivations(load_fixture(name), name):
        g = d.owner
        letters = alphabet(g)
        words = [x.syllables for x in ball(g, 3)]
        words += [tuple(rng.choice(letters) for _ in range(rng.randint(0, 8))) for _ in range(50)]
        for syllables in words:
            reductions.clear()
            evaluate(d, Word(syllables))
            assert len(reductions) <= moved_terms(d, syllables), (label, syllables)
            seen += len(reductions)
    assert seen


@pytest.mark.parametrize("name", ["c4c6", "c6hnn", "c4c2c4", "c2c2"])
def test_base_vertex_coset_reduces_at_most_twice(name, reductions):
    g = load_fixture(name)
    for x in ball(g, 3):
        reductions.clear()
        tree_vertex(g, g.basepoint, x)
        assert 1 <= len(reductions) <= 2, x


def test_other_vertices_still_try_every_candidate(c4c6, reductions):
    x = ball(c4c6, 1)[1]
    reductions.clear()
    tree_vertex(c4c6, "w", x)
    assert len(reductions) == c4c6.vertex_groups["w"].order

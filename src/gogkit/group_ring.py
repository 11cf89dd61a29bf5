"""Sparse group-ring vectors over Z/m with group elements in normal form."""
from __future__ import annotations

from .errors import MixedOwners, RingMismatch, expect, member
from .gog import GraphOfGroups, NormalForm, _owned, multiply, nf


class RingVector:
    """An element of (Z/m)[Γ]: a finite formal sum of normal forms.

    Terms are kept normalized: coefficients reduced mod m, zeros dropped.
    Treat instances as immutable.
    """

    __slots__ = ("owner", "mod", "terms")

    def __init__(self, owner: GraphOfGroups, mod: int, terms: dict[NormalForm, int]):
        if mod < 2:
            raise ValueError("modulus must be at least 2")
        self.owner = owner
        self.mod = mod
        clean = {}
        for word, coeff in terms.items():
            c = coeff % mod
            if c:
                clean[word] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingVector)
            and self.owner is other.owner
            and self.mod == other.mod
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.mod, frozenset(self.terms.items())))

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=NormalForm.sort_key):
            parts.append(f"{self.terms[word]}·[{word.text()}]")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ring({self.text()} mod {self.mod})"


def _check_pair(u: RingVector, v: RingVector):
    if u.owner is not v.owner:
        raise MixedOwners("ring vectors belong to different graphs of groups")
    if u.mod != v.mod:
        raise RingMismatch(f"moduli differ: {u.mod} vs {v.mod}")


def ring_zero(g: GraphOfGroups, mod: int) -> RingVector:
    return RingVector(g, mod, {})


def ring_term(x: NormalForm, mod: int, coeff: int = 1) -> RingVector:
    return RingVector(x.owner, mod, {x: coeff})


def add(u: RingVector, v: RingVector) -> RingVector:
    _check_pair(u, v)
    terms = dict(u.terms)
    for word, coeff in v.terms.items():
        terms[word] = terms.get(word, 0) + coeff
    return RingVector(u.owner, u.mod, terms)


def subtract(u: RingVector, v: RingVector) -> RingVector:
    return add(u, scale(v, -1))


def scale(u: RingVector, c: int) -> RingVector:
    return RingVector(u.owner, u.mod, {w: c * k for w, k in u.terms.items()})


def act_right(u: RingVector, x: NormalForm) -> RingVector:
    """Right translation: Σ c_w·w ↦ Σ c_w·(w·x)."""
    _owned(u.owner, x)
    terms: dict[NormalForm, int] = {}
    for word, coeff in u.terms.items():
        moved = multiply(word, x)
        terms[moved] = terms.get(moved, 0) + coeff
    return RingVector(u.owner, u.mod, terms)


def group_sum(g: GraphOfGroups, elements, mod: int) -> RingVector:
    """The formal sum of the given normal forms with coefficient one."""
    terms: dict[NormalForm, int] = {}
    for x in elements:
        terms[x] = terms.get(x, 0) + 1
    return RingVector(g, mod, terms)


def ring_data(u: RingVector) -> dict:
    """JSON-ready data: terms sorted by word text."""
    return {
        "mod": u.mod,
        "terms": [
            {"word": w.text(), "coeff": u.terms[w]}
            for w in sorted(u.terms, key=lambda x: x.text())
        ],
    }


def _ring_from_terms(g: GraphOfGroups, mod: int, terms, path: tuple) -> RingVector:
    """The vector of a JSON list of {"word", "coeff"} terms found at ``path``."""
    out: dict[NormalForm, int] = {}
    for i, entry in enumerate(expect(terms, list, path)):
        word = nf(g, member(expect(entry, dict, path + (i,)), "word", str, path + (i,)))
        out[word] = out.get(word, 0) + member(entry, "coeff", int, path + (i,))
    return RingVector(g, mod, out)

"""Right derivations on fundamental groups, valued in (Z/m)[Γ]^n.

A derivation component f satisfies f(gh) = f(g)·α(h) + f(h), where the
action α is either right translation by h itself ("standard") or by the
image of h under the retraction killing all vertex groups ("twisted").
Components are defined by a table of values on the generators; evaluation
extends the table along the derivation law, and well-definedness amounts to
every defining relator evaluating to zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import BadModulus, GluingConditionFailed, NotFinite, expect, json_value, member
from .gog import (
    LETTER,
    VERTEX,
    GraphOfGroups,
    NormalForm,
    Report,
    Subgraph,
    Word,
    _check_word,
    _normal_form,
    ball,
    multiply,
    parse_word,
    residues,
    stable_letter,
    subgraph_group_membership,
    vertex_element,
    vertex_group_membership,
    word_text,
)
from .graph_core import POSITIVE, classify
from .group_ring import (
    RingVector,
    _ring_from_terms,
    act_right,
    group_sum,
    ring_data,
    ring_zero,
    scale,
    subtract,
)

STANDARD = "standard"
TWISTED = "twisted"


@dataclass(frozen=True)
class Component:
    """One coordinate of a derivation: an action tag and generator values."""

    action: str
    values: dict[tuple, RingVector]


@dataclass(frozen=True)
class Derivation:
    """A tuple of derivation components over a common graph of groups and modulus."""

    owner: GraphOfGroups
    mod: int
    components: tuple[Component, ...]

    @property
    def rank(self) -> int:
        return len(self.components)


def free_retract(g: GraphOfGroups, x: NormalForm) -> NormalForm:
    """Image of x under the retraction killing every vertex group."""
    return _normal_form(g, tuple(syl for syl in x.syllables if syl[0] == LETTER))


def _act(g: GraphOfGroups, vec: RingVector, suffix: NormalForm, action: str) -> RingVector:
    if action == TWISTED:
        suffix = free_retract(g, suffix)
    return act_right(vec, suffix)


def _syllables(g: GraphOfGroups, x) -> tuple:
    """The syllables of a word, syllable tuple or normal form, checked by
    ``_check_word`` unless x is a normal form of g."""
    syllables = x.syllables if isinstance(x, (NormalForm, Word)) else tuple(x)
    if not (isinstance(x, NormalForm) and x.owner is g):
        _check_word(g, syllables)
    return syllables


def evaluate(d: Derivation, x) -> list[RingVector]:
    """Evaluate every component on a word or normal form, by Fox's formula.

    f(s₁⋯sₙ) = Σᵢ f(sᵢ)·α(sᵢ₊₁⋯sₙ) over the syllables as given, with
    f(t⁻¹) = −f(t)·α(t⁻¹) (Fox, "Free differential calculus I", *Ann. Math.*
    57, 1953).  One right-to-left pass moves each value by its raw tail: a
    term w becomes the normal form of w·tail, so no suffix is normalized on
    its own.  A twisted component moves by the tail's letters, since the
    retraction is a homomorphism.

    A word, a syllable tuple or another graph's normal form goes through
    ``_check_word`` once, up front; a normal form of ``d.owner`` is trusted.
    """
    g = d.owner
    syllables = _syllables(g, x)
    out = []
    for comp in d.components:
        values, twisted = comp.values, comp.action == TWISTED
        terms: dict[NormalForm, int] = {}
        tail: tuple = ()
        for syl in reversed(syllables):
            kind, name, exp = syl
            head = tail if twisted and kind == VERTEX else (syl,) + tail
            if kind == VERTEX:
                vec, sign, by = values.get(syl), 1, tail
            elif exp > 0:
                vec, sign, by = values.get((LETTER, name)), 1, tail
            else:
                # f(t⁻¹) = −f(t)·α(t⁻¹): moved by the tail that starts at t⁻¹.
                vec, sign, by = values.get((LETTER, name)), -1, head
            if vec is not None:
                for w, c in vec.terms.items():
                    moved = _normal_form(g, w.syllables + by) if by else w
                    terms[moved] = terms.get(moved, 0) + sign * c
            tail = head
        out.append(RingVector(g, d.mod, terms))
    return out


def is_zero(values: list[RingVector]) -> bool:
    return all(v.is_zero() for v in values)


def _component_from_text_table(
    g: GraphOfGroups, action: str, table: dict[str, RingVector]
) -> Component:
    if action not in (STANDARD, TWISTED):
        raise ValueError(f"unknown action {action!r}")
    values: dict[tuple, RingVector] = {}
    for key, vec in table.items():
        w = parse_word(g, key)
        if len(w.syllables) != 1:
            raise ValueError(f"derivation table keys must be single generators, got {key!r}")
        syl = w.syllables[0]
        if syl[0] == LETTER:
            if syl[2] < 0:
                raise ValueError(f"give letter values on t(e), not its inverse: {key!r}")
            values[(LETTER, syl[1])] = vec
        else:
            if syl[2] == g.vertex_groups[syl[1]].identity():
                raise ValueError(f"identity elements carry no value: {key!r}")
            values[(VERTEX, syl[1], syl[2])] = vec
    return Component(action, values)


def glue(g: GraphOfGroups, mod: int, components: list[tuple[str, dict[str, RingVector]]]) -> Derivation:
    """Assemble a derivation from generator tables and enforce the gluing condition.

    Every defining relator must evaluate to zero in every component; the first
    violation raises GluingConditionFailed carrying (edge, element, residue).
    """
    built = tuple(
        _component_from_text_table(g, action, table) for action, table in components
    )
    d = Derivation(g, mod, built)
    for eid, k, _, values in residues(g, partial(evaluate, d), [ring_zero(g, mod)] * d.rank):
        raise GluingConditionFailed(eid, k, next(v for v in values if not v.is_zero()).text())
    return d


# ---------------------------------------------------------------------------
# The two constructed families


def _edge_image_sum(g: GraphOfGroups, eid: str, mod: int) -> RingVector:
    """Σκ over the image of the edge group at the d1 end, as elements of Γ."""
    d1v = g.graph.d1[eid]
    elems = [vertex_element(g, d1v, h) for h in g.inclusions[eid][1]]
    return group_sum(g, elems, mod)


def dunwoody_derivation(g: GraphOfGroups, v: str, w: str, mod: int) -> Derivation:
    """The single-component derivation separating w from v across their tree path.

    With P the formal sum of the base-edge-group image, positive-vertex
    elements map to P·(x − 1); stable letters map by the sign of their
    endpoints.  Its kernel meets each positive vertex group exactly in the
    edge-group image.
    """
    if not g.all_tables():
        raise NotFinite("derivations need finite table vertex groups")
    signs = classify(g.tree, v, w)
    P = _edge_image_sum(g, signs.base_edge, mod)
    values: dict[tuple, RingVector] = {}
    for vid in sorted(g.graph.vertices):
        if signs.vertex_signs[vid] != POSITIVE:
            continue
        for h in g.vertex_groups[vid].generator_handles():
            x = vertex_element(g, vid, h)
            values[(VERTEX, vid, h)] = subtract(act_right(P, x), P)
    for eid in sorted(g.graph.edges):
        if eid in g.tree.edges:
            continue
        d0_pos = signs.vertex_signs[g.graph.d0[eid]] == POSITIVE
        d1_pos = signs.vertex_signs[g.graph.d1[eid]] == POSITIVE
        letter = stable_letter(g, eid)
        if d0_pos and d1_pos:
            values[(LETTER, eid)] = subtract(act_right(P, letter), P)
        elif d1_pos and not d0_pos:
            values[(LETTER, eid)] = scale(P, -1)
        elif d0_pos and not d1_pos:
            values[(LETTER, eid)] = act_right(P, letter)
    return Derivation(g, mod, (Component(STANDARD, values),))


def _letter_component(g: GraphOfGroups, eid: str, mod: int) -> Component:
    """Standard-action component detecting the stable letter of a non-tree edge.

    The only relator family touching t is X·∂1(k) = X, so the value must be
    right-invariant under the edge-group image; (t − 1)·Σκ is the canonical
    choice and vanishes on no reduced word using the letter.
    """
    P = _edge_image_sum(g, eid, mod)
    letter = stable_letter(g, eid)
    t_then_k = group_sum(
        g,
        [
            multiply(letter, vertex_element(g, g.graph.d1[eid], g.incl(eid, 1, k)))
            for k in range(g.edge_groups[eid].order)
        ],
        mod,
    )
    return Component(STANDARD, {(LETTER, eid): subtract(t_then_k, P)})


def accessibility_derivation(g: GraphOfGroups, v: str, mod: int) -> Derivation:
    """One component per tree direction plus one per stable letter; rank |E|.

    Raises ValueError for a modulus below 2, and BadModulus when the modulus
    divides an edge-group order, which would collapse the edge-image sums the
    construction relies on.
    """
    if not g.all_tables():
        raise NotFinite("derivations need finite table vertex groups")
    if mod < 2:
        raise ValueError("modulus must be at least 2")
    for eid in sorted(g.graph.edges):
        if g.edge_groups[eid].order % mod == 0:
            raise BadModulus(
                f"modulus {mod} divides the order of the edge group at {eid!r}"
            )
    components: list[Component] = []
    for w in sorted(g.graph.vertices):
        if w == v:
            continue
        components.extend(dunwoody_derivation(g, v, w, mod).components)
    for eid in sorted(g.graph.edges):
        if eid not in g.tree.edges:
            components.append(_letter_component(g, eid, mod))
    return Derivation(g, mod, tuple(components))


def kernel_scan(d: Derivation, designation, radius: int) -> Report:
    """Compare {x : f(x) = 0} with a designated subgroup over a whole ball.

    ``designation`` is a vertex id (membership in that vertex group) or a
    Subgraph (membership in the subgraph's fundamental group).
    """
    g = d.owner
    if not isinstance(designation, Subgraph) and designation not in g.vertex_groups:
        raise ValueError(f"unknown vertex {designation!r}")
    report = Report()
    elements = ball(g, radius)
    mismatches = 0
    for x in elements:
        zero = is_zero(evaluate(d, x))
        if isinstance(designation, Subgraph):
            member = subgraph_group_membership(g, designation, x)
        else:
            member = vertex_group_membership(g, designation, x)
        if zero != member:
            mismatches += 1
            if len(report.problems) < 5:
                verb = "killed but outside" if zero else "detected but inside"
                report.fail(f"{x.text()}: {verb} the designated subgroup")
    report.ok = mismatches == 0
    if mismatches > len(report.problems):
        left = mismatches - len(report.problems)
        report.problems.append(f"… and {left} more mismatch{'es' if left > 1 else ''} not listed")
    report.counts["elements"] = len(elements)
    report.counts["mismatches"] = mismatches
    return report


# ---------------------------------------------------------------------------
# Serialization


_KEY_ORDER = {VERTEX: 0, LETTER: 1}


def derivation_data(d: Derivation) -> dict:
    components = []
    for comp in d.components:
        values = {}
        for key in sorted(comp.values, key=lambda k: (_KEY_ORDER[k[0]], k[1:])):
            syllable = key if key[0] == VERTEX else (LETTER, key[1], 1)
            values[word_text(d.owner, Word((syllable,)))] = ring_data(comp.values[key])["terms"]
        components.append({"action": comp.action, "values": values})
    return {"mod": d.mod, "components": components}


def derivation_from_data(g: GraphOfGroups, data) -> Derivation:
    """The derivation that data (a dict or JSON text) describes, glued on g."""
    data = expect(json_value(data), dict, ())
    mod = member(data, "mod", int, ())
    components = []
    for i, entry in enumerate(member(data, "components", list, ())):
        where = ("components", i)
        action = expect(entry, dict, where).get("action", STANDARD)
        values = expect(entry.get("values", {}), dict, where + ("values",))
        table = {
            key: _ring_from_terms(g, mod, terms, where + ("values", key))
            for key, terms in values.items()
        }
        components.append((action, table))
    return glue(g, mod, components)

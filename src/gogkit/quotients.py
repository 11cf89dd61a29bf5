"""Finite quotients of fundamental groups: search, certificates, coset functionals.

A quotient is stored as one image array per vertex group plus one image per
stable letter; tree letters always map to the identity.  Its image maps are
read-only copies, so a quotient cannot change after it is checked.  Searches
walk a deterministic candidate list (cyclic groups up to order 24, then
symmetric groups up to degree 6 by default, each built only when a search
reaches it).  For each target they walk its homomorphisms depth first
(``_iter_quotients``; Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, 2005), testing each edge relator as soon as its ends and
letter are assigned, and yield them in lexicographic image order, so the
first hit is reproducible.  A goal that constrains single vertex homs
(injectivity) filters each vertex's hom list before the walk; filtering the
factors of a lexicographic product keeps the order of the combinations that
survive.  The walk's plan and its filtered hom lists are built once per graph
(``_walk``).  A search whose walks pass ``WALK_CAP`` stops with Exhausted,
naming the cap.

Every homomorphism test goes through ``finite_group``: ``hom_defect`` checks
a vertex image array against the target's table rows, pair by pair
(``quotient_from_images``), and ``extend_on_span`` decides whether a map
defined on generators extends, which is how ``refine`` tests that a given
quotient factors through a candidate.  A quotient that ``_iter_quotients``
yields or ``quotient_from_images`` returns is marked verified: it kills every
relator of its owner.

A nonkernel certificate is found in Γ (``certify_nonkernel`` evaluates the
derivation there, since only that value decides whether it is zero) and
checked in the target (``check_certificate`` re-derives the push by Fox's
formula over the target's table, ``push_derivation``, with no reduction in
Γ).  That formula equals the push of the Γ value only for a homomorphism of
the derivation's graph, so the check refuses a quotient of another graph and
re-checks, through ``quotient_from_images``, every quotient not marked
verified.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import ClassVar, Mapping

from .derivation import TWISTED, _syllables, evaluate
from .documents import _group_spec
from .errors import Exhausted, MixedOwners, expect, json_value, member
from .finite_group import (
    FiniteGroup,
    Subgroup,
    enumerate_homs,
    extend_on_span,
    hom_defect,
    make_group,
)
from .gog import (
    LETTER,
    VERTEX,
    GraphOfGroups,
    NormalForm,
    Subgraph,
    TableVertexGroup,
    Word,
    _check_subgraph,
    _rebuilt,
    presentation,
    residues,
    table_subgroup,
)
from .group_ring import RingVector

# Work one search may do, each walk node charged the choices it tries.  The
# largest search of the tests, the acceptance checks and the benchmark charges
# 2,420; all of c6hnn into S5, 7,986; (a0·a1)^60 in three C2s on a path, 444,744.
WALK_CAP = 10**5


def _image(target: FiniteGroup, vertex_images, letter_images, x) -> int:
    """Image in ``target`` of a word, normal form or syllable tuple under the
    given image maps."""
    syllables = x.syllables if isinstance(x, (NormalForm, Word)) else tuple(x)
    table, inverse = target.table, target.inverse
    out = target.identity
    for kind, key, h in syllables:
        if kind == VERTEX:
            out = table[out][vertex_images[key][h]]
        else:
            img = letter_images[key]
            out = table[out][img if h > 0 else inverse[img]]
    return out


@dataclass(frozen=True)
class FiniteQuotient:
    """A homomorphism from a fundamental group onto (into) a finite group.

    The image maps are kept as read-only copies of the ones given; they
    compare equal to dicts.
    """

    owner: GraphOfGroups
    target: FiniteGroup
    vertex_images: Mapping[str, tuple[int, ...]]
    letter_images: Mapping[str, int]
    # True only where ``_verified`` built the quotient: it kills every relator
    # of ``owner``.  A class attribute, so neither compared nor an argument.
    _verified: ClassVar[bool] = False

    def __post_init__(self):
        self.__dict__.update(
            vertex_images=MappingProxyType(dict(self.vertex_images)),
            letter_images=MappingProxyType(dict(self.letter_images)),
        )

    def image_of(self, x) -> int:
        """Image of a word or normal form in the target group."""
        return _image(self.target, self.vertex_images, self.letter_images, x)

    def is_vertex_injective(self) -> bool:
        return all(
            len(set(images)) == len(images) for images in self.vertex_images.values()
        )

    def push(self, u: RingVector) -> dict[int, int]:
        """The image of u in the target's group ring: sparse coefficients, zeros dropped."""
        table, inverse = self.target.table, self.target.inverse
        vertex_images, letter_images = self.vertex_images, self.letter_images
        one, mod = self.target.identity, u.mod
        out: dict[int, int] = {}
        # ``_image``'s fold, inlined: a certificate search pushes every value
        # through every candidate quotient.
        for word, coeff in u.terms.items():
            q = one
            for kind, key, h in word.syllables:
                if kind == VERTEX:
                    q = table[q][vertex_images[key][h]]
                else:
                    img = letter_images[key]
                    q = table[q][img if h > 0 else inverse[img]]
            out[q] = out.get(q, 0) + coeff
        return {k: c for k, v in sorted(out.items()) if (c := v % mod)}


def _verified(g: GraphOfGroups, target: FiniteGroup, vertex_images, letter_images) -> FiniteQuotient:
    """A quotient from maps known to kill every relator of g, marked verified.

    Built without the dataclass ``__init__``, which takes twice as long: a
    search yields thousands of quotients."""
    q = object.__new__(FiniteQuotient)
    q.__dict__.update(
        owner=g, target=target, _verified=True,
        vertex_images=MappingProxyType(dict(vertex_images)),
        letter_images=MappingProxyType(dict(letter_images)),
    )
    return q


def quotient_from_images(
    g: GraphOfGroups,
    target: FiniteGroup,
    vertex_images: dict[str, tuple[int, ...]],
    letter_images: dict[str, int],
) -> FiniteQuotient | None:
    """Assemble a quotient and check every defining relator; None if not a hom.

    The quotient keeps a tuple copy of each vertex's image array and the image
    of each edge's letter, and is marked verified."""
    def is_element(i) -> bool:
        return type(i) is int and 0 <= i < target.order

    if not all(is_element(letter_images.get(eid)) for eid in g.graph.edges):
        return None
    arrays = {}
    for vid in g.graph.vertices:
        vg = g.vertex_groups[vid]
        if not isinstance(vg, TableVertexGroup):
            return None
        images = tuple(vertex_images.get(vid) or ())
        if len(images) != vg.group.order or not all(map(is_element, images)):
            return None
        if hom_defect(vg.group, images, target.table) is not None:
            return None
        arrays[vid] = images
    letters = {eid: letter_images[eid] for eid in g.graph.edges}
    if next(residues(g, partial(_image, target, arrays, letters), target.identity), None) is not None:
        return None
    return _verified(g, target, arrays, letters)


def _default_pool(degree: int = 6):
    """Cyclic groups of order 2..24, then symmetric groups of degree 3..degree.

    Each group is built when the walk reaches it, so a search that succeeds
    early never builds S5 or S6.
    """
    for n in range(2, 25):
        yield make_group(f"cyclic {n}")
    for n in range(3, degree + 1):
        yield make_group(f"symmetric {n}")


def default_targets() -> list[FiniteGroup]:
    """The default target pool as a list, every group built."""
    return list(_default_pool())


def _resolve_targets(targets):
    if targets is None:
        return _default_pool()
    if isinstance(targets, int):
        return _default_pool(targets)
    # Explicit specs are built up front, so a bad one fails before any search;
    # a group is taken as it is.
    return [t if isinstance(t, FiniteGroup) else make_group(t) for t in targets]


def _walk(g: GraphOfGroups) -> tuple:
    """The walk's per-graph plan, built once: the variables (sorted vertex ids,
    then sorted non-tree letters), how many are vertices, the tree letters, the
    presentation positions each variable completes, and ``_choices``' lists."""
    if g._walk is None:
        vertex_ids = sorted(g.graph.vertices)
        names = vertex_ids + [e for e in sorted(g.graph.edges) if e not in g.tree.edges]
        depth = {name: i for i, name in enumerate(names)}
        checks: list[list[int]] = [[] for _ in names]
        for i, (eid, k) in enumerate(presentation(g).labels):
            ends = (g.graph.d0[eid], g.graph.d1[eid])
            if k is None or all(
                g.incl(eid, side, k) == g.vertex_groups[v].identity() for side, v in enumerate(ends)
            ):
                continue  # t_e = 1 on the tree, and t⁻¹·1·t = 1 on any edge
            checks[max(depth[v] for v in (*ends, eid) if v in depth)].append(i)
        tree = [e for e in g.graph.edges if e in g.tree.edges]
        g._walk = (names, len(vertex_ids), tree, tuple(map(tuple, checks)), {})
    return g._walk


def _choices(g: GraphOfGroups, target: FiniteGroup, keep: tuple) -> list:
    """Per variable, its choices in ``target``: the image arrays of the vertex
    homs that keep each (vertex, handles) pair of ``keep`` distinct, then every
    element per letter.  A nested vertex group leaves nothing to walk."""
    names, n_vertices, _, _, cache = _walk(g)
    key = (target, keep)
    found = cache.get(key)
    if found is None:
        if not g.all_tables():
            found = [[]]
        else:
            found = [
                [
                    h for h in enumerate_homs(g.vertex_groups[v].group, target)
                    if all(len({h[x] for x in xs}) == len(xs) for u, xs in keep if u == v)
                ]
                for v in names[:n_vertices]
            ] + [range(target.order)] * (len(names) - n_vertices)
        cache[key] = found
    return found


def _iter_quotients(g: GraphOfGroups, target: FiniteGroup, keep: tuple = (), spent=None):
    """All quotients onto a fixed target, in lexicographic image order.

    A depth-first walk over one hom per vertex group (sorted vertex ids), then
    one target element per non-tree letter (sorted edge ids).  After each
    assignment ``residues`` tests the relators it completes, and a survivor
    cuts the branch; the relators never tested hold by construction (tree
    letters, k = 1).  The quotients come out as from the filtered product of
    every choice.  ``keep`` lists (vertex id, handles) pairs whose images must
    stay distinct; it drops vertex homs before the walk, which keeps the
    relative order of the rest.  ``spent``, a one-item list, sums the work
    (see ``WALK_CAP``) over the walks that share it; past the cap the walk
    raises Exhausted.
    """
    choices = _choices(g, target, keep)
    if not all(choices):
        return  # an empty factor empties the product
    names, n_vertices, tree, checks, _ = _walk(g)
    one, last = target.identity, len(names) - 1
    vertex_images: dict[str, tuple[int, ...]] = {}
    letter_images = dict.fromkeys(tree, one)
    image = partial(_image, target, vertex_images, letter_images)
    spent = [0] if spent is None else spent

    def walk(depth: int):
        spent[0] += len(choices[depth])
        if spent[0] > WALK_CAP:
            raise Exhausted(f"the quotient walk exceeds its cap of {WALK_CAP} choices")
        store = vertex_images if depth < n_vertices else letter_images
        name, positions = names[depth], checks[depth]
        for choice in choices[depth]:
            store[name] = choice
            if positions and next(residues(g, image, one, positions), None) is not None:
                continue
            if depth == last:
                yield _verified(g, target, vertex_images, letter_images)
            else:
                yield from walk(depth + 1)

    yield from walk(0)


def subgraph_gog(g: GraphOfGroups, sub: Subgraph) -> GraphOfGroups:
    """The restriction of g to a designated subgraph, sharing the basepoint."""
    _check_subgraph(g, sub)
    return _rebuilt(
        g,
        vertices=(v for v in g.graph.vertices if v in sub.vertices),
        edges=(e for e in g.graph.edges if e in sub.edges),
        tree=g.tree.edges & sub.edges,
        name=f"{g.name}|sub" if g.name else "sub",
    )


def _factors_through(g: GraphOfGroups, q: FiniteQuotient, sub: Subgraph, given: FiniteQuotient) -> bool:
    """Whether the given subgraph quotient factors through q's restriction.

    Equivalently: a map θ with θ(q(s)) = given(s) exists on the subgroup of
    q.target generated by the subgraph generators.
    """
    letters = sub.edges - g.tree.edges
    inside = [(gen,) for gen in presentation(g).generators
              if gen[1] in (sub.vertices if gen[0] == VERTEX else letters)]
    gens = [q.image_of(syl) for syl in inside]
    gen_images = [given.image_of(syl) for syl in inside]
    return extend_on_span(
        q.target, gens, gen_images, given.target.mul, given.target.identity
    ) is not None


def search_quotient(
    g: GraphOfGroups,
    goal: str,
    *,
    elements: list[NormalForm] | None = None,
    vertex: str | None = None,
    subgroup: Subgroup | None = None,
    subgraph: Subgraph | None = None,
    given: FiniteQuotient | None = None,
    targets=None,
) -> FiniteQuotient:
    """First quotient (deterministic order) achieving the stated goal.

    Goals: "separate" (every listed element maps away from the identity;
    quotients must be injective on every vertex group), "embed" (injective on
    a designated subgroup of one vertex group), "refine" (the restriction to a
    designated subgraph group factors the given quotient of it).  Raises
    Exhausted when the candidate pool runs out; that is never a disproof.
    Injectivity goals filter vertex homs before the walk (``keep``: the
    handles whose images must stay distinct); ``accept`` tests what needs the
    whole quotient.
    """
    keep = ()
    if goal == "separate":
        if not elements:
            raise ValueError("separate needs a non-empty element list")
        for x in elements:
            if x.owner is not g:
                raise MixedOwners("element belongs to a different graph of groups")
            if not x.syllables:
                raise ValueError("cannot separate the identity from itself")
        if g.all_tables():
            keep = tuple((v, tuple(vg.handles())) for v, vg in sorted(g.vertex_groups.items()))

        def accept(q: FiniteQuotient) -> bool:
            return all(q.image_of(x) != q.target.identity for x in elements)

    elif goal == "embed":
        if vertex is None or subgroup is None:
            raise ValueError("embed needs a vertex id and a subgroup of its group")
        if vertex not in g.vertex_groups:
            raise ValueError(f"{vertex!r} is not a vertex")
        keep = ((vertex, table_subgroup(g, vertex, subgroup).elements),)

        def accept(q: FiniteQuotient) -> bool:
            return True

    elif goal == "refine":
        if subgraph is None or given is None:
            raise ValueError("refine needs a subgraph and a quotient of its group")

        def accept(q: FiniteQuotient) -> bool:
            return _factors_through(g, q, subgraph, given)

    else:
        raise ValueError(f"unknown goal {goal!r}")

    failure = f"no quotient in the candidate pool achieves goal {goal!r}"
    return _first_quotient(g, targets, accept, keep, failure=failure)[0]


def _first_quotient(g: GraphOfGroups, targets, accept, keep=(), *, failure: str):
    """The first quotient ``accept`` takes, walking the targets (a pool spec) in
    order, with the verdict: the truthy value ``accept`` returned.

    Raises Exhausted with ``failure`` and how far the walk got, e.g.
    '(1 target, 96 quotients tried)', when the pool runs out, or with the
    cap in place of ``failure`` when its walks together pass ``WALK_CAP``.
    """
    walked = tried = 0
    spent = [0]
    try:
        for target in _resolve_targets(targets):
            walked += 1
            for q in _iter_quotients(g, target, keep, spent):
                tried += 1
                verdict = accept(q)
                if verdict:
                    return q, verdict
    except Exhausted as exc:
        failure = str(exc)
    raise Exhausted(
        f"{failure} ({walked} target{'s' * (walked != 1)}, "
        f"{tried} quotient{'s' * (tried != 1)} tried)"
    )


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class NonkernelCertificate:
    """A finite quotient witnessing that a derivation value is nonzero."""

    quotient: FiniteQuotient
    component: int
    pushed: dict[int, int]


def certify_nonkernel(d, x: NormalForm, targets=None) -> NonkernelCertificate:
    """A quotient and component where the pushed derivation value is nonzero.

    Sound by construction: a nonzero push forces eval(d, x) ≠ 0 upstairs.
    Raises Exhausted when no candidate quotient shows anything (inconclusive).
    """
    values = evaluate(d, x)
    if all(v.is_zero() for v in values):
        raise Exhausted("the value is zero; no certificate can exist")

    def first_push(q):
        return next(((i, pushed) for i, pushed in enumerate(map(q.push, values)) if pushed), None)

    failure = "no candidate quotient shows a nonzero push; inconclusive"
    q, (i, pushed) = _first_quotient(d.owner, targets, first_push, failure=failure)
    return NonkernelCertificate(q, i, pushed)


def push_derivation(q: FiniteQuotient, d, x, component: int) -> dict[int, int]:
    """The push of ``evaluate(d, x)[component]`` into the target's group ring,
    computed in the target: no reduction in Γ.

    Fox's formula read through q, Σᵢ q(f(sᵢ))·q(α(sᵢ₊₁⋯sₙ)) with
    f(t⁻¹) = −f(t)·α(t⁻¹), one right-to-left pass keeping the image of the
    tail.  A twisted component moves by the images of the tail's letters
    only.  It equals ``q.push(evaluate(d, x)[component])`` when q is a
    homomorphism of ``d.owner``; for any other map it may not.  ``x`` is
    checked as ``evaluate`` checks it.
    """
    syllables = _syllables(d.owner, x)
    comp = d.components[component]
    values, twisted = comp.values, comp.action == TWISTED
    table, inverse = q.target.table, q.target.inverse
    vertex_images, letter_images = q.vertex_images, q.letter_images
    out: dict[int, int] = {}
    tail = q.target.identity  # q(α(sᵢ₊₁⋯sₙ))
    for syl in reversed(syllables):
        kind, name, exp = syl
        if kind == VERTEX:
            vec, sign, by = values.get(syl), 1, tail
            head = tail if twisted else table[vertex_images[name][exp]][tail]
        else:
            img = letter_images[name]
            head = table[img if exp > 0 else inverse[img]][tail]
            vec = values.get((LETTER, name))
            # f(t⁻¹) = −f(t)·α(t⁻¹): moved by the tail that starts at t⁻¹.
            sign, by = (1, tail) if exp > 0 else (-1, head)
        if vec is not None:
            for k, c in q.push(vec).items():
                moved = table[k][by]
                out[moved] = out.get(moved, 0) + sign * c
        tail = head
    return {k: c for k, v in sorted(out.items()) if (c := v % d.mod)}


def check_certificate(cert: NonkernelCertificate, d, x: NormalForm) -> bool:
    """Re-derive the pushed value in the target and compare.

    The push is re-derived by ``push_derivation``, which is sound for a
    homomorphism of ``d.owner`` only: a quotient of another graph is refused,
    and one not marked verified is checked through ``quotient_from_images``
    first.  A word that is not one of ``d.owner`` raises MalformedWord.
    """
    g, q = d.owner, cert.quotient
    _syllables(g, x)
    if q.owner is not g:
        return False
    if not q._verified:
        q = quotient_from_images(g, q.target, q.vertex_images, q.letter_images)
        if q is None:
            return False
    return bool(cert.pushed) and push_derivation(q, d, x, cert.component) == cert.pushed


# ---------------------------------------------------------------------------
# The coset-complement functional


def coset_complement_functional(q: FiniteQuotient, D, pushed: dict[int, int], mod: int) -> int:
    """Sum of pushed coefficients on classes outside the designated subgroup."""
    if isinstance(D, Subgroup):
        inside = set(D.elements)
    else:
        inside = set(D)
    return sum(c for cls, c in pushed.items() if cls not in inside) % mod


# ---------------------------------------------------------------------------
# Serialization


def quotient_data(q: FiniteQuotient) -> dict:
    return {
        "target": _group_spec(q.target),
        "vertex_images": {v: list(q.vertex_images[v]) for v in sorted(q.vertex_images)},
        "letter_images": {e: q.letter_images[e] for e in sorted(q.letter_images)},
    }


def quotient_from_data(g: GraphOfGroups, data) -> FiniteQuotient:
    """The quotient that data (a dict or JSON text) describes, checked on g."""
    data = expect(json_value(data), dict, ())
    vertex_images = {
        v: tuple(expect(arr, list, ("vertex_images", v)))
        for v, arr in member(data, "vertex_images", dict, ()).items()
    }
    letter_images = dict(member(data, "letter_images", dict, ()))
    target = make_group(member(data, "target", object, ()))
    q = quotient_from_images(g, target, vertex_images, letter_images)
    if q is None:
        raise ValueError("image tables do not define a homomorphism")
    return q

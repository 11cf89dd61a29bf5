"""Graph-of-groups transformations that emit machine-checked isomorphism data.

Every operation returns the rewritten graph of groups together with a
GogIsoWitness: generator-level word maps ψ (source → target) and φ (target →
source).  Witnesses are validated mechanically — each relator must map to a
word reducing to the identity, and φ∘ψ / ψ∘φ must fix every generator up to
normal-form equality — so a bad transport formula cannot pass silently.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import (
    BadAttachment,
    MixedOwners,
    NotCollapsible,
    NotFinite,
    TableInvalid,
    WrongShape,
)
from .finite_group import Subgroup, is_conjugate_into, subgroup_as_group, subgroup_closure
from .gog import (
    LETTER,
    VERTEX,
    CompositeVertexGroup,
    GraphOfGroups,
    NormalForm,
    Report,
    Subgraph,
    TableVertexGroup,
    Word,
    _check_subgraph,
    _reduce_from,
    ball,
    invert,
    invert_word,
    nf,
    parse_word,
    presentation,
    reduce,
    subgraph_group_membership,
    vertex_handle_of,
    word_text,
)
from .graph_core import FiniteGraph, SpanningTree
from .structure_tree import conjugate_finite_into_vertex


# ---------------------------------------------------------------------------
# Witnesses


@dataclass
class GogIsoWitness:
    """Generator-level isomorphism data between two graphs of groups."""

    source: GraphOfGroups
    target: GraphOfGroups
    psi: dict[tuple, Word]
    phi: dict[tuple, Word]


def _atoms(g: GraphOfGroups, syllable: tuple):
    """Split one syllable into (generator key, exponent sign) pairs."""
    if syllable[0] == LETTER:
        return [((LETTER, syllable[1], 1), syllable[2])]
    vid, h = syllable[1], syllable[2]
    vg = g.vertex_groups[vid]
    if isinstance(vg, TableVertexGroup):
        if vg.is_identity(h):
            return []
        return [((VERTEX, vid, h), 1)]
    out = []
    for s in h.syllables:
        if s[0] == VERTEX:
            key = reduce(vg.sub, Word((s,)))
            out.append(((VERTEX, vid, key), 1))
        else:
            key = reduce(vg.sub, Word(((LETTER, s[1], 1),)))
            out.append(((VERTEX, vid, key), s[2]))
    return out


def translate(witness_map: dict, g_from: GraphOfGroups, g_to: GraphOfGroups, w) -> NormalForm:
    """Apply a generator↦word map to a word or normal form and reduce."""
    syllables = w.syllables if isinstance(w, (Word, NormalForm)) else tuple(w)
    out: list[tuple] = []
    for syl in syllables:
        for key, sign in _atoms(g_from, syl):
            image = witness_map[key]
            if sign < 0:
                image = invert_word(g_to, image)
            out.extend(image.syllables)
    return reduce(g_to, Word(tuple(out)))


def apply_psi(w: GogIsoWitness, x) -> NormalForm:
    return translate(w.psi, w.source, w.target, x)


def apply_phi(w: GogIsoWitness, x) -> NormalForm:
    return translate(w.phi, w.target, w.source, x)


def _identity_map(g: GraphOfGroups) -> dict[tuple, Word]:
    return {gen: Word((gen,)) for gen in presentation(g).generators}


def validate_witness(w: GogIsoWitness) -> Report:
    """Relator preservation both ways plus two-sided inverse on generators."""
    report = Report()
    src = presentation(w.source)
    tgt = presentation(w.target)
    for r in src.relators:
        image = translate(w.psi, w.source, w.target, r)
        if image.syllables:
            report.fail(f"ψ sends source relator to {image.text()!r}")
    for r in tgt.relators:
        image = translate(w.phi, w.target, w.source, r)
        if image.syllables:
            report.fail(f"φ sends target relator to {image.text()!r}")
    for gen in src.generators:
        x = reduce(w.source, Word((gen,)))
        back = translate(w.phi, w.target, w.source, apply_psi(w, x))
        if back != x:
            report.fail(f"φ∘ψ moves source generator {x.text()!r} to {back.text()!r}")
    for gen in tgt.generators:
        x = reduce(w.target, Word((gen,)))
        back = translate(w.psi, w.source, w.target, apply_phi(w, x))
        if back != x:
            report.fail(f"ψ∘φ moves target generator {x.text()!r} to {back.text()!r}")
    report.counts["source_relators"] = len(src.relators)
    report.counts["target_relators"] = len(tgt.relators)
    report.counts["generators"] = len(src.generators) + len(tgt.generators)
    return report


def compose_witness(first: GogIsoWitness, second: GogIsoWitness) -> GogIsoWitness:
    """The witness of the composite transformation (first, then second)."""
    if first.target is not second.source:
        raise MixedOwners("witnesses do not share the middle graph of groups")
    psi = {
        gen: Word(translate(second.psi, second.source, second.target, w).syllables)
        for gen, w in first.psi.items()
    }
    phi = {
        gen: Word(translate(first.phi, first.target, first.source, w).syllables)
        for gen, w in second.phi.items()
    }
    return GogIsoWitness(first.source, second.target, psi, phi)


def witness_ball_report(w: GogIsoWitness, radius: int = 3) -> Report:
    """Translated balls keep their size: the word maps are injective on them."""
    report = Report()
    for label, g, mapping, g_to in (
        ("psi", w.source, w.psi, w.target),
        ("phi", w.target, w.phi, w.source),
    ):
        try:
            elements = ball(g, radius)
        except NotFinite:
            report.counts[f"{label}_skipped"] = 1
            continue
        images = {translate(mapping, g, g_to, x) for x in elements}
        report.counts[f"{label}_ball"] = len(elements)
        if len(images) != len(elements):
            report.fail(
                f"{label} collapses the radius-{radius} ball: "
                f"{len(elements)} elements, {len(images)} images"
            )
    return report


# ---------------------------------------------------------------------------
# Edge reversal


def reverse_edge(g: GraphOfGroups, e: str) -> tuple[GraphOfGroups, GogIsoWitness]:
    """Flip the orientation of one edge; the stable letter maps to its inverse."""
    if e not in g.graph.edges:
        raise ValueError(f"unknown edge {e!r}")
    d0 = dict(g.graph.d0)
    d1 = dict(g.graph.d1)
    d0[e], d1[e] = d1[e], d0[e]
    inclusions = dict(g.inclusions)
    inclusions[e] = (g.inclusions[e][1], g.inclusions[e][0])
    graph = FiniteGraph(g.graph.vertices, g.graph.edges, d0, d1)
    out = GraphOfGroups(
        graph,
        dict(g.vertex_groups),
        dict(g.edge_groups),
        inclusions,
        tree=SpanningTree(graph, g.tree.edges),
        basepoint=g.basepoint,
        name=g.name,
    )
    psi = _identity_map(g)
    psi[(LETTER, e, 1)] = Word(((LETTER, e, -1),))
    phi = _identity_map(out)
    phi[(LETTER, e, 1)] = Word(((LETTER, e, -1),))
    return out, GogIsoWitness(g, out, psi, phi)


# ---------------------------------------------------------------------------
# Collapsing a spanning-tree edge


def collapse_tree_edge(g: GraphOfGroups, e: str) -> tuple[GraphOfGroups, GogIsoWitness]:
    """Merge one endpoint of a tree edge into the other.

    Requires an inclusion of e that is onto its endpoint group, so the edge
    carries an isomorphism and the endpoint vertex is redundant.
    """
    if e not in g.graph.edges:
        raise ValueError(f"unknown edge {e!r}")
    if e not in g.tree.edges:
        raise NotCollapsible(f"edge {e!r} is not in the spanning tree")
    order = g.edge_groups[e].order
    side = None
    for s in (1, 0):
        endpoint = g.graph.d1[e] if s == 1 else g.graph.d0[e]
        vg = g.vertex_groups[endpoint]
        if isinstance(vg, TableVertexGroup) and vg.group.order == order:
            side = s
            break
    if side is None:
        raise NotCollapsible(f"neither inclusion of {e!r} is onto its endpoint group")
    gone = g.graph.d1[e] if side == 1 else g.graph.d0[e]
    kept = g.graph.d0[e] if side == 1 else g.graph.d1[e]

    def iso(h):
        k = g.incl_preimage(e, side, h)
        return g.incl(e, 1 - side, k)

    vertices = tuple(v for v in g.graph.vertices if v != gone)
    edges = tuple(x for x in g.graph.edges if x != e)
    d0, d1, inclusions = {}, {}, {}
    for x in edges:
        d0[x] = kept if g.graph.d0[x] == gone else g.graph.d0[x]
        d1[x] = kept if g.graph.d1[x] == gone else g.graph.d1[x]
        pair = []
        for i in (0, 1):
            images = g.inclusions[x][i]
            if (g.graph.d0[x] if i == 0 else g.graph.d1[x]) == gone:
                images = tuple(iso(h) for h in images)
            pair.append(tuple(images))
        inclusions[x] = (pair[0], pair[1])
    graph = FiniteGraph(vertices, edges, d0, d1)
    out = GraphOfGroups(
        graph,
        {v: g.vertex_groups[v] for v in vertices},
        {x: g.edge_groups[x] for x in edges},
        inclusions,
        tree=SpanningTree(graph, frozenset(x for x in g.tree.edges if x != e)),
        basepoint=kept if g.basepoint == gone else g.basepoint,
        name=g.name,
    )
    psi: dict[tuple, Word] = {}
    for gen in presentation(g).generators:
        if gen[0] == VERTEX and gen[1] == gone:
            psi[gen] = Word(((VERTEX, kept, iso(gen[2])),))
        elif gen == (LETTER, e, 1):
            psi[gen] = Word(())
        else:
            psi[gen] = Word((gen,))
    phi = _identity_map(out)
    return out, GogIsoWitness(g, out, psi, phi)


# ---------------------------------------------------------------------------
# Vertex expansion


def _namespaced(prefix: str, syllables) -> tuple[tuple, ...]:
    out = []
    for s in syllables:
        if s[0] == VERTEX:
            out.append((VERTEX, f"{prefix}.{s[1]}", s[2]))
        else:
            out.append((LETTER, f"{prefix}.{s[1]}", s[2]))
    return tuple(out)


def expand_vertex(
    g: GraphOfGroups, w: str, attach: dict | None = None, radius: int = 8
) -> tuple[GraphOfGroups, GogIsoWitness]:
    """Flatten a vertex whose group is presented by a nested graph of groups.

    Each edge formerly at ``w`` is re-attached to a vertex of the nested
    decomposition fixed by its (conjugated) edge-group image.  ``attach`` maps
    edge ids at w to (vertex id in the nested graph, conjugator); omitted
    entries are found via the structure-tree fixed-point search.
    """
    if w not in g.graph.vertices:
        raise ValueError(f"unknown vertex {w!r}")
    host = g.vertex_groups[w]
    if not isinstance(host, CompositeVertexGroup):
        raise ValueError(f"vertex group at {w!r} is not a nested graph of groups")
    sub = host.sub
    for eid in g.graph.edges:
        if g.graph.d0[eid] == w and g.graph.d1[eid] == w:
            raise BadAttachment(
                f"loop {eid!r} at the expansion vertex is not supported; "
                "split it off as an HNN layer first"
            )
    for vid in sub.graph.vertices:
        if f"{w}.{vid}" in g.graph.vertices:
            raise ValueError(f"vertex id {w}.{vid} already exists")
    for eid in sub.graph.edges:
        if f"{w}.{eid}" in g.graph.edges:
            raise ValueError(f"edge id {w}.{eid} already exists")

    attach = dict(attach or {})
    plans: dict[str, tuple[int, str, NormalForm, tuple]] = {}
    for eid, (i,) in _edges_at(g, w):
        images = [g.incl(eid, i, k) for k in range(g.edge_groups[eid].order)]
        if eid in attach:
            tau, conj = attach[eid]
            conj = nf(sub, conj) if isinstance(conj, str) else conj
        else:
            found = conjugate_finite_into_vertex(sub, images, radius)
            if found is None:
                raise BadAttachment(
                    f"no vertex of the nested decomposition fixed by the edge "
                    f"group of {eid!r} within radius {radius}"
                )
            conj, tau = found
        if eid in g.tree.edges and conj.syllables:
            raise BadAttachment(
                f"spanning-tree edge {eid!r} needs an identity conjugator; "
                "re-root the nested decomposition instead"
            )
        conj_inv = invert(conj)
        handles = []
        for x in images:
            moved = reduce(sub, Word(conj_inv.syllables + x.syllables + conj.syllables))
            h = vertex_handle_of(sub, tau, moved)
            if h is None:
                raise BadAttachment(
                    f"edge group of {eid!r} does not conjugate into the vertex "
                    f"group at {tau!r}"
                )
            handles.append(h)
        plans[eid] = (i, tau, conj, tuple(handles))

    vertices = tuple(v for v in g.graph.vertices if v != w) + tuple(
        f"{w}.{v}" for v in sub.graph.vertices
    )
    edges = tuple(g.graph.edges) + tuple(f"{w}.{e}" for e in sub.graph.edges)
    d0, d1, inclusions, edge_groups = {}, {}, {}, {}
    for eid in g.graph.edges:
        d0[eid] = g.graph.d0[eid]
        d1[eid] = g.graph.d1[eid]
        inclusions[eid] = g.inclusions[eid]
        edge_groups[eid] = g.edge_groups[eid]
        if eid in plans:
            i, tau, _, handles = plans[eid]
            if i == 0:
                d0[eid] = f"{w}.{tau}"
            else:
                d1[eid] = f"{w}.{tau}"
            pair = list(inclusions[eid])
            pair[i] = handles
            inclusions[eid] = (pair[0], pair[1])
    for eid in sub.graph.edges:
        d0[f"{w}.{eid}"] = f"{w}.{sub.graph.d0[eid]}"
        d1[f"{w}.{eid}"] = f"{w}.{sub.graph.d1[eid]}"
        inclusions[f"{w}.{eid}"] = sub.inclusions[eid]
        edge_groups[f"{w}.{eid}"] = sub.edge_groups[eid]
    vertex_groups = {v: g.vertex_groups[v] for v in g.graph.vertices if v != w}
    for vid in sub.graph.vertices:
        vertex_groups[f"{w}.{vid}"] = sub.vertex_groups[vid]
    tree = frozenset(g.tree.edges) | {f"{w}.{e}" for e in sub.tree.edges}
    graph = FiniteGraph(vertices, edges, d0, d1)
    out = GraphOfGroups(
        graph,
        vertex_groups,
        edge_groups,
        inclusions,
        tree=SpanningTree(graph, tree),
        basepoint=f"{w}.{sub.basepoint}" if g.basepoint == w else g.basepoint,
        name=f"{g.name}~expanded" if g.name else "expanded",
    )

    psi: dict[tuple, Word] = {}
    for gen in presentation(g).generators:
        if gen[0] == VERTEX and gen[1] == w:
            psi[gen] = Word(_namespaced(w, gen[2].syllables))
        elif gen[0] == LETTER and gen[1] in plans:
            eid = gen[1]
            i, _, conj, _ = plans[eid]
            if i == 0:
                psi[gen] = Word(_namespaced(w, conj.syllables) + ((LETTER, eid, 1),))
            else:
                psi[gen] = Word(((LETTER, eid, 1),) + _namespaced(w, invert(conj).syllables))
        else:
            psi[gen] = Word((gen,))
    phi: dict[tuple, Word] = {}
    for gen in presentation(out).generators:
        if gen[0] == VERTEX and gen[1].startswith(f"{w}."):
            vid = gen[1][len(w) + 1 :]
            phi[gen] = Word(((VERTEX, w, reduce(sub, Word(((VERTEX, vid, gen[2]),)))),))
        elif gen[0] == LETTER and gen[1].startswith(f"{w}."):
            eid = gen[1][len(w) + 1 :]
            handle = reduce(sub, Word(((LETTER, eid, 1),)))
            phi[gen] = Word(()) if not handle.syllables else Word(((VERTEX, w, handle),))
        elif gen[0] == LETTER and gen[1] in plans:
            eid = gen[1]
            i, _, conj, _ = plans[eid]
            if not conj.syllables:
                phi[gen] = Word((gen,))
            elif i == 0:
                phi[gen] = Word(((VERTEX, w, invert(conj)), (LETTER, eid, 1)))
            else:
                phi[gen] = Word(((LETTER, eid, 1), (VERTEX, w, conj)))
        else:
            phi[gen] = Word((gen,))
    return out, GogIsoWitness(g, out, psi, phi)


# ---------------------------------------------------------------------------
# Conjugator tables and amalgam attachment


@dataclass
class ConjugatorTable:
    """Per-edge conjugators δ(η) moving edge-group images into χ."""

    owner: GraphOfGroups
    vertex: str
    chi: Subgroup
    delta: dict[str, int] = field(default_factory=dict)

    def gamma(self, eid: str, i: int) -> int:
        """γ(η,i): δ(η)⁻¹ on sides incident to the designated vertex."""
        endpoint = self.owner.graph.d0[eid] if i == 0 else self.owner.graph.d1[eid]
        group = self.owner.vertex_groups[self.vertex].group
        if endpoint == self.vertex:
            return group.inv(self.delta[eid])
        return group.identity


def _edges_at(g: GraphOfGroups, v: str) -> list[tuple[str, list[int]]]:
    out = []
    for eid in sorted(g.graph.edges):
        sides = [i for i in (0, 1) if (g.graph.d0[eid] if i == 0 else g.graph.d1[eid]) == v]
        if sides:
            out.append((eid, sides))
    return out


def find_delta_conjugators(g: GraphOfGroups, v: str, chi: Subgroup) -> ConjugatorTable | None:
    """Least element of 𝒢(v) conjugating each edge-group image at v into χ.

    Returns None when some edge admits no conjugator — inconclusive only in
    the sense that a larger ambient Δ might; within 𝒢(v) the scan is complete.
    """
    vg = g.vertex_groups[v]
    if not isinstance(vg, TableVertexGroup):
        raise ValueError(f"vertex group at {v!r} must be a finite table group")
    group = vg.group
    if chi.parent is not group:
        raise ValueError("χ must be a subgroup of the vertex group at the given vertex")
    table = ConjugatorTable(g, v, chi)
    for eid, sides in _edges_at(g, v):
        images = {g.incl(eid, i, k) for i in sides for k in range(g.edge_groups[eid].order)}
        found = is_conjugate_into(subgroup_closure(group, images), chi, group)
        if found is None:
            return None
        table.delta[eid] = found
    return table


def attach_amalgam_vertex(
    g: GraphOfGroups,
    v: str,
    chi: Subgroup,
    table: ConjugatorTable,
    new_vertex: str | None = None,
    new_edge: str | None = None,
) -> tuple[GraphOfGroups, GogIsoWitness]:
    """Split 𝒢(v) off as an amalgam factor: v keeps χ, a new vertex carries Δ.

    The output graph gains one vertex and one tree edge; edge inclusions at v
    are conjugated into χ by the table's δ(η), and the stable letters absorb
    the conjugators via γ(η,i).
    """
    vg = g.vertex_groups[v]
    if not isinstance(vg, TableVertexGroup):
        raise ValueError(f"vertex group at {v!r} must be a finite table group")
    group = vg.group
    if chi.parent is not group:
        raise ValueError("χ must be a subgroup of the vertex group at the given vertex")
    if table.owner is not g or table.vertex != v:
        raise TableInvalid("conjugator table belongs to a different attachment")
    if table.chi.parent is not group or set(table.chi.elements) != set(chi.elements):
        raise TableInvalid("conjugator table was built for a different χ")
    chi_set = set(chi.elements)
    at_v = _edges_at(g, v)
    for eid, sides in at_v:
        if 0 not in sides:
            raise ValueError(
                f"edge {eid!r} ends at {v!r} but does not start there; "
                "apply reverse_edge first"
            )
        if eid in g.tree.edges and len(
            {g.incl(eid, sides[0], k) for k in range(g.edge_groups[eid].order)}
        ) == group.order:
            raise ValueError(f"edge {eid!r} is superfluous at {v!r}; collapse it first")
        if eid not in table.delta:
            raise TableInvalid(f"no conjugator recorded for edge {eid!r}")
        d = table.delta[eid]
        if not isinstance(d, int) or not 0 <= d < group.order:
            raise TableInvalid(f"conjugator for {eid!r} is not an element of Δ")
        for i in sides:
            for k in range(g.edge_groups[eid].order):
                if group.conjugate(g.incl(eid, i, k), d) not in chi_set:
                    raise TableInvalid(
                        f"δ for {eid!r} does not move the side-{i} image into χ"
                    )

    w_id = new_vertex if new_vertex is not None else f"{v}.delta"
    e_id = new_edge if new_edge is not None else f"{v}.chi"
    if w_id in g.graph.vertices:
        raise ValueError(f"vertex id {w_id!r} already exists")
    if e_id in g.graph.edges:
        raise ValueError(f"edge id {e_id!r} already exists")

    chi_group, to_local = subgroup_as_group(chi)
    vertices = tuple(g.graph.vertices) + (w_id,)
    edges = tuple(g.graph.edges) + (e_id,)
    d0 = dict(g.graph.d0)
    d1 = dict(g.graph.d1)
    d0[e_id], d1[e_id] = v, w_id
    inclusions = {}
    for eid in g.graph.edges:
        pair = [list(g.inclusions[eid][0]), list(g.inclusions[eid][1])]
        for i in (0, 1):
            if (g.graph.d0[eid] if i == 0 else g.graph.d1[eid]) == v:
                d = table.delta[eid]
                pair[i] = [to_local[group.conjugate(h, d)] for h in pair[i]]
        inclusions[eid] = (tuple(pair[0]), tuple(pair[1]))
    inclusions[e_id] = (
        tuple(range(chi_group.order)),
        tuple(chi.elements),
    )
    vertex_groups = {u: g.vertex_groups[u] for u in g.graph.vertices if u != v}
    vertex_groups[v] = TableVertexGroup(chi_group)
    vertex_groups[w_id] = TableVertexGroup(group)
    edge_groups = dict(g.edge_groups)
    edge_groups[e_id] = chi_group
    graph = FiniteGraph(vertices, edges, d0, d1)
    out = GraphOfGroups(
        graph,
        vertex_groups,
        edge_groups,
        inclusions,
        tree=SpanningTree(graph, frozenset(g.tree.edges) | {e_id}),
        basepoint=g.basepoint,
        name=f"{g.name}~attached" if g.name else "attached",
    )

    deltas = {eid: table.delta[eid] for eid, _ in at_v}
    psi: dict[tuple, Word] = {}
    for gen in presentation(g).generators:
        if gen[0] == VERTEX and gen[1] == v:
            psi[gen] = Word(((VERTEX, w_id, gen[2]),))
        elif gen[0] == LETTER and gen[1] in deltas:
            eid = gen[1]
            d = deltas[eid]
            syls: list[tuple] = [(VERTEX, w_id, d), (LETTER, eid, 1)]
            if g.graph.d1[eid] == v:  # loop at v
                syls.append((VERTEX, w_id, group.inv(d)))
            psi[gen] = Word(tuple(syls))
        else:
            psi[gen] = Word((gen,))
    phi: dict[tuple, Word] = {}
    for gen in presentation(out).generators:
        if gen[0] == VERTEX and gen[1] == v:
            phi[gen] = Word(((VERTEX, v, chi.elements[gen[2]]),))
        elif gen[0] == VERTEX and gen[1] == w_id:
            phi[gen] = Word(((VERTEX, v, gen[2]),))
        elif gen == (LETTER, e_id, 1):
            phi[gen] = Word(())
        elif gen[0] == LETTER and gen[1] in deltas:
            eid = gen[1]
            d = deltas[eid]
            syls = [(VERTEX, v, group.inv(d)), (LETTER, eid, 1)]
            if g.graph.d1[eid] == v:
                syls.append((VERTEX, v, d))
            phi[gen] = Word(tuple(syls))
        else:
            phi[gen] = Word((gen,))
    return out, GogIsoWitness(g, out, psi, phi)


# ---------------------------------------------------------------------------
# Collapse to a two-factor amalgam description


@dataclass
class AmalgamDescription:
    """A two-factor amalgam Δ *_χ Λ read off a graph of groups."""

    owner: GraphOfGroups
    edge: str
    delta_vertex: str
    delta_vertices: frozenset[str]
    delta_edges: frozenset[str]
    chi: Subgroup
    lambda_subgraph: Subgraph

    def in_delta(self, x: NormalForm) -> bool:
        syllables = _reduce_from(self.owner, Word(x.syllables), self.delta_vertex)
        for s in syllables:
            if s[0] == VERTEX and s[1] not in self.delta_vertices:
                return False
            if s[0] == LETTER and s[1] not in self.delta_edges:
                return False
        return True

    def in_lambda(self, x: NormalForm) -> bool:
        return subgraph_group_membership(self.owner, self.lambda_subgraph, x)


def collapse_to_amalgam(g: GraphOfGroups, xi: Subgraph) -> AmalgamDescription:
    """Read a graph shaped Ξ ⊔ {e, Δ-part} as the amalgam Δ *_χ Π₁(Ξ)."""
    _check_subgraph(g, xi)
    delta_vertices = frozenset(g.graph.vertices) - xi.vertices
    extra_edges = frozenset(g.graph.edges) - xi.edges
    if not delta_vertices:
        raise WrongShape("the designated subgraph already covers every vertex")
    crossing = [
        e
        for e in sorted(extra_edges)
        if (g.graph.d0[e] in xi.vertices) != (g.graph.d1[e] in xi.vertices)
    ]
    if len(crossing) != 1:
        raise WrongShape(
            f"expected exactly one edge joining the factors, found {len(crossing)}"
        )
    e = crossing[0]
    if e not in g.tree.edges:
        raise WrongShape(f"the joining edge {e!r} must lie in the spanning tree")
    for x in sorted(extra_edges - {e}):
        if g.graph.d0[x] in xi.vertices or g.graph.d1[x] in xi.vertices:
            raise WrongShape(f"edge {x!r} straddles the factor boundary")
    side = 0 if g.graph.d0[e] in delta_vertices else 1
    delta_vertex = g.graph.d0[e] if side == 0 else g.graph.d1[e]
    vg = g.vertex_groups[delta_vertex]
    if not isinstance(vg, TableVertexGroup):
        raise WrongShape("the Δ-side endpoint of the joining edge must be a table group")
    chi = Subgroup(
        vg.group,
        tuple(sorted({g.incl(e, side, k) for k in range(g.edge_groups[e].order)})),
    )
    return AmalgamDescription(
        owner=g,
        edge=e,
        delta_vertex=delta_vertex,
        delta_vertices=delta_vertices,
        delta_edges=extra_edges - {e},
        chi=chi,
        lambda_subgraph=xi,
    )


# ---------------------------------------------------------------------------
# Transcripts


def _gen_text(g: GraphOfGroups, gen: tuple) -> str:
    return word_text(g, Word((gen,)))


def witness_transcript(op: str, w: GogIsoWitness) -> dict:
    """A replayable record: input hash, output document, witness tables."""
    from .documents import document_data

    source_doc = document_data(w.source, name=w.source.name)
    payload = json.dumps(source_doc, sort_keys=True).encode()
    return {
        "op": op,
        "input_sha256": hashlib.sha256(payload).hexdigest(),
        "source": source_doc,
        "output": document_data(w.target, name=w.target.name),
        "psi": {
            _gen_text(w.source, gen): word_text(w.target, word)
            for gen, word in sorted(w.psi.items(), key=lambda kv: _gen_text(w.source, kv[0]))
        },
        "phi": {
            _gen_text(w.target, gen): word_text(w.source, word)
            for gen, word in sorted(w.phi.items(), key=lambda kv: _gen_text(w.target, kv[0]))
        },
    }


def replay_transcript(data) -> Report:
    """Rebuild both graphs and the witness from a transcript and re-validate."""
    from .documents import parse_document

    if isinstance(data, str):
        data = json.loads(data)
    source = parse_document(data["source"]).gog
    target = parse_document(data["output"]).gog
    payload = json.dumps(data["source"], sort_keys=True).encode()
    report = Report()
    if hashlib.sha256(payload).hexdigest() != data["input_sha256"]:
        report.fail("input hash does not match the recorded source document")
        return report

    def rebuild(g_from, g_to, table):
        out = {}
        for key_text, word_text_ in table.items():
            key_word = parse_word(g_from, key_text)
            if len(key_word.syllables) != 1:
                raise ValueError(f"witness key {key_text!r} is not a single generator")
            out[key_word.syllables[0]] = parse_word(g_to, word_text_)
        return out

    psi = rebuild(source, target, data["psi"])
    phi = rebuild(target, source, data["phi"])
    inner = validate_witness(GogIsoWitness(source, target, psi, phi))
    inner.counts["replayed"] = 1
    return inner

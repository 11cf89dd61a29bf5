"""Graph-of-groups transformations that emit machine-checked isomorphism data.

Every operation returns the rewritten graph of groups together with a
GogIsoWitness: generator-level word maps ψ (source → target) and φ (target →
source).  A rewrite lists only the generators it moves; every other generator
maps to itself.  Witnesses are validated mechanically — each relator must map
to a word reducing to the identity, and φ∘ψ / ψ∘φ must fix every generator up
to normal-form equality — so a bad transport formula cannot pass silently.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .documents import _parse, document_data
from .errors import (
    BadAttachment,
    GogkitError,
    MixedOwners,
    NotCollapsible,
    NotFinite,
    TableInvalid,
    WrongShape,
    expect,
    json_value,
    member,
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
    _check_word,
    _edge_ends,
    _normal_form,
    _owned,
    _rebuilt,
    _reduce_from,
    _syllables,
    _syllables_within,
    _vertex_group,
    ball,
    identity,
    invert,
    invert_word,
    parse_word,
    presentation,
    reduce,
    residues,
    stable_letter,
    subgraph_group_membership,
    table_group,
    table_subgroup,
    vertex_handle_of,
    word_text,
)
from .structure_tree import fixed_vertex


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
        return [] if h == vg.identity() else [((VERTEX, vid, h), 1)]
    out = []
    for s in h.syllables:
        if s[0] == VERTEX:
            out.append(((VERTEX, vid, _normal_form(vg.sub, (s,))), 1))
        else:
            out.append(((VERTEX, vid, stable_letter(vg.sub, s[1])), s[2]))
    return out


def _translator(witness_map: dict, g_from: GraphOfGroups, g_to: GraphOfGroups):
    """The map applied to words or normal forms of g_from, reduced in g_to.

    Each syllable's image is expanded (atoms looked up, inverted where the
    sign asks) and checked once, on its first use, and kept for the call.
    The images before a bad one are all checked, so a bad image raises
    MalformedWord at the same syllable as checking the whole concatenation.
    """
    images: dict[tuple, tuple] = {}

    def apply(w) -> NormalForm:
        syllables = w.syllables if isinstance(w, (Word, NormalForm)) else tuple(w)
        out: list[tuple] = []
        for syl in syllables:
            image = images.get(syl)
            if image is None:
                parts = []
                for key, sign in _atoms(g_from, syl):
                    word = witness_map[key]
                    parts.extend((invert_word(g_to, word) if sign < 0 else word).syllables)
                image = tuple(parts)
                _check_word(g_to, image)
                images[syl] = image
            out.extend(image)
        return _normal_form(g_to, tuple(out))

    return apply


def translate(witness_map: dict, g_from: GraphOfGroups, g_to: GraphOfGroups, w) -> NormalForm:
    """Apply a generator↦word map to a word, syllable tuple or normal form of
    g_from, checked as ``evaluate`` checks it, and reduce."""
    return _translator(witness_map, g_from, g_to)(_syllables(g_from, w))


def apply_psi(w: GogIsoWitness, x) -> NormalForm:
    return translate(w.psi, w.source, w.target, x)


def apply_phi(w: GogIsoWitness, x) -> NormalForm:
    return translate(w.phi, w.target, w.source, x)


def _witness(
    g: GraphOfGroups, out: GraphOfGroups, psi: dict[tuple, Word], phi: dict[tuple, Word]
) -> GogIsoWitness:
    """The witness of a rewrite g → out: ψ and φ as listed, every other generator fixed."""
    return GogIsoWitness(
        g,
        out,
        {gen: psi.get(gen, Word((gen,))) for gen in presentation(g).generators},
        {gen: phi.get(gen, Word((gen,))) for gen in presentation(out).generators},
    )


def validate_witness(w: GogIsoWitness) -> Report:
    """Complete maps, relator preservation both ways, two-sided inverse on generators.

    Each generator a map misses and each key that is not a generator is a
    problem line; when a map misses a generator, nothing is translated.  A
    relator line names the relator's presentation label, a generator line the
    generator.
    """
    report = Report()
    src = presentation(w.source)
    tgt = presentation(w.target)
    report.counts["source_relators"] = len(src.relators)
    report.counts["target_relators"] = len(tgt.relators)
    report.counts["generators"] = len(src.generators) + len(tgt.generators)
    complete = True
    for label, side, g, mapping, gens in (
        ("ψ", "source", w.source, w.psi, src.generators),
        ("φ", "target", w.target, w.phi, tgt.generators),
    ):
        for gen in gens:
            if gen not in mapping:
                complete = False
                report.fail(f"{label} has no image for {side} generator {_gen_text(g, gen)!r}")
        known = set(gens)
        for key in mapping:
            if key not in known:
                report.fail(f"{label} maps {key!r}, which is not a {side} generator")
    if not complete:
        return report
    psi = _translator(w.psi, w.source, w.target)
    phi = _translator(w.phi, w.target, w.source)
    for label, side, g, apply, g_to in (
        ("ψ", "source", w.source, psi, w.target),
        ("φ", "target", w.target, phi, w.source),
    ):
        for eid, k, _, image in residues(g, apply, identity(g_to)):
            where = f"tree letter t({eid})" if k is None else f"edge {eid!r}, k={k}"
            report.fail(f"{label} sends {side} relator ({where}) to {image.text()!r}")
    for label, side, g, there, back in (
        ("φ∘ψ", "source", w.source, psi, phi),
        ("ψ∘φ", "target", w.target, phi, psi),
    ):
        for gen in presentation(g).generators:
            x = _normal_form(g, (gen,))
            y = back(there(x))
            if y != x:
                report.fail(f"{label} moves {side} generator {_gen_text(g, gen)!r} to {y.text()!r}")
    return report


def compose_witness(first: GogIsoWitness, second: GogIsoWitness) -> GogIsoWitness:
    """The witness of the composite transformation (first, then second)."""
    if first.target is not second.source:
        raise MixedOwners("witnesses do not share the middle graph of groups")
    there = _translator(second.psi, second.source, second.target)
    back = _translator(first.phi, first.target, first.source)
    psi = {gen: Word(there(w).syllables) for gen, w in first.psi.items()}
    phi = {gen: Word(back(w).syllables) for gen, w in second.phi.items()}
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
        images = set(map(_translator(mapping, g, g_to), elements))
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
    d0, d1 = _edge_ends(g, e)
    out = _rebuilt(
        g,
        d0={e: d1},
        d1={e: d0},
        inclusions={e: g.inclusions[e][::-1]},
    )
    flip = {(LETTER, e, 1): Word(((LETTER, e, -1),))}
    return out, _witness(g, out, flip, flip)


# ---------------------------------------------------------------------------
# Collapsing a spanning-tree edge


def collapse_tree_edge(g: GraphOfGroups, e: str) -> tuple[GraphOfGroups, GogIsoWitness]:
    """Merge one endpoint of a tree edge into the other.

    Requires an inclusion of e that is onto its endpoint group, so the edge
    carries an isomorphism and the endpoint vertex is redundant.
    """
    ends = _edge_ends(g, e)
    if e not in g.tree.edges:
        raise NotCollapsible(f"edge {e!r} is not in the spanning tree")
    order = g.edge_groups[e].order
    side = next((s for s in (1, 0) if g.vertex_groups[ends[s]].order == order), None)
    if side is None:
        raise NotCollapsible(f"neither inclusion of {e!r} is onto its endpoint group")
    gone, kept = ends[side], ends[1 - side]

    def iso(h):
        return g.incl(e, 1 - side, g.incl_preimage(e, side, h))

    moved = [x for x in g.graph.incident(gone) if x != e]
    out = _rebuilt(
        g,
        vertices=(v for v in g.graph.vertices if v != gone),
        edges=(x for x in g.graph.edges if x != e),
        d0={x: kept for x in moved if g.graph.d0[x] == gone},
        d1={x: kept for x in moved if g.graph.d1[x] == gone},
        inclusions={
            x: tuple(
                tuple(map(iso, images)) if end == gone else images
                for end, images in zip((g.graph.d0[x], g.graph.d1[x]), g.inclusions[x])
            )
            for x in moved
        },
        tree=g.tree.edges - {e},
        basepoint=kept if g.basepoint == gone else g.basepoint,
    )
    psi = {
        (VERTEX, gone, h): Word(((VERTEX, kept, iso(h)),))
        for h in g.vertex_groups[gone].generator_handles()
    }
    psi[(LETTER, e, 1)] = Word(())
    return out, _witness(g, out, psi, {})


# ---------------------------------------------------------------------------
# Vertex expansion


def _namespaced(prefix: str, syllables) -> tuple[tuple, ...]:
    return tuple((s[0], f"{prefix}.{s[1]}", s[2]) for s in syllables)


def expand_vertex(g: GraphOfGroups, w: str) -> tuple[GraphOfGroups, GogIsoWitness]:
    """Flatten a vertex whose group is presented by a nested graph of groups.

    Each edge formerly at ``w`` is re-attached to the nested tree vertex c·𝒢(τ)
    nearest the base that its edge-group image fixes, which exists because
    edge groups are finite; the conjugator c is that vertex's rep.  A
    spanning-tree edge needs c = 1, and every image must land in 𝒢(τ):
    BadAttachment otherwise.
    """
    host = _vertex_group(g, w)
    if not isinstance(host, CompositeVertexGroup):
        raise ValueError(f"vertex group at {w!r} is not a nested graph of groups")
    sub = host.sub
    for eid in g.graph.incident(w):
        if g.graph.d0[eid] == g.graph.d1[eid]:
            raise BadAttachment(
                f"loop {eid!r} at the expansion vertex is not supported; "
                "split it off as an HNN layer first"
            )

    plans: dict[str, tuple[int, str, NormalForm, tuple]] = {}
    for eid in g.graph.incident(w):
        i = 0 if g.graph.d0[eid] == w else 1
        images = g.inclusions[eid][i]
        fixed = fixed_vertex(sub, images)
        tau, conj = fixed.vertex_id, fixed.rep
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

    d0, d1, inclusions, edge_groups = {}, {}, {}, {}
    ends = (d0, d1)
    for eid, (i, tau, _, handles) in plans.items():
        ends[i][eid] = f"{w}.{tau}"
        pair = list(g.inclusions[eid])
        pair[i] = handles
        inclusions[eid] = tuple(pair)
    for eid in sub.graph.edges:
        inner = f"{w}.{eid}"
        d0[inner], d1[inner] = f"{w}.{sub.graph.d0[eid]}", f"{w}.{sub.graph.d1[eid]}"
        inclusions[inner] = sub.inclusions[eid]
        edge_groups[inner] = sub.edge_groups[eid]
    out = _rebuilt(
        g,
        vertices=[v for v in g.graph.vertices if v != w] + [f"{w}.{v}" for v in sub.graph.vertices],
        edges=(*g.graph.edges, *(f"{w}.{e}" for e in sub.graph.edges)),
        d0=d0,
        d1=d1,
        vertex_groups={f"{w}.{v}": sub.vertex_groups[v] for v in sub.graph.vertices},
        edge_groups=edge_groups,
        inclusions=inclusions,
        tree=g.tree.edges | {f"{w}.{e}" for e in sub.tree.edges},
        basepoint=f"{w}.{sub.basepoint}" if g.basepoint == w else g.basepoint,
        name=f"{g.name}~expanded" if g.name else "expanded",
    )

    psi = {
        gen: Word(_namespaced(w, gen[2].syllables))
        for gen in presentation(g).generators
        if gen[:2] == (VERTEX, w)
    }
    phi = {}
    for gen in presentation(sub).generators:
        x = _normal_form(sub, (gen,))
        phi[_namespaced(w, (gen,))[0]] = Word(((VERTEX, w, x),) if x.syllables else ())
    for eid, (i, _, conj, _) in plans.items():
        if not conj.syllables:
            continue
        letter = (LETTER, eid, 1)
        if i == 0:
            psi[letter] = Word(_namespaced(w, conj.syllables) + (letter,))
            phi[letter] = Word(((VERTEX, w, invert(conj)), letter))
        else:
            psi[letter] = Word((letter,) + _namespaced(w, invert(conj).syllables))
            phi[letter] = Word((letter, (VERTEX, w, conj)))
    return out, _witness(g, out, psi, phi)


# ---------------------------------------------------------------------------
# Conjugator tables and amalgam attachment


@dataclass
class ConjugatorTable:
    """Per-edge conjugators δ(η) moving edge-group images into χ."""

    owner: GraphOfGroups
    vertex: str
    chi: Subgroup
    delta: dict[str, int] = field(default_factory=dict)


def find_delta_conjugators(g: GraphOfGroups, v: str, chi: Subgroup) -> ConjugatorTable | None:
    """Least element of 𝒢(v) conjugating each edge-group image at v into χ.

    Returns None when some edge admits no conjugator — inconclusive only in
    the sense that a larger ambient Δ might; within 𝒢(v) the scan is complete.
    """
    chi = table_subgroup(g, v, chi)
    group, table = chi.parent, ConjugatorTable(g, v, chi)
    for eid in g.graph.incident(v):
        ends = (g.graph.d0[eid], g.graph.d1[eid])
        sides = [i for i in (0, 1) if ends[i] == v]
        images = {h for i in sides for h in g.inclusions[eid][i]}
        found = is_conjugate_into(subgroup_closure(group, images), chi, group)
        if found is None:
            return None
        table.delta[eid] = found
    return table


def attach_amalgam_vertex(
    g: GraphOfGroups, v: str, chi: Subgroup, table: ConjugatorTable
) -> tuple[GraphOfGroups, GogIsoWitness]:
    """Split 𝒢(v) off as an amalgam factor: v keeps χ, a new vertex v.delta carries Δ.

    The output graph gains the vertex v.delta and the tree edge v.chi; edge
    inclusions at v are conjugated into χ by the table's δ(η), and the stable
    letters absorb the conjugators.
    """
    chi = table_subgroup(g, v, chi)
    group = chi.parent
    if table.owner is not g or table.vertex != v:
        raise TableInvalid("conjugator table belongs to a different attachment")
    if table.chi.parent is not group or set(table.chi.elements) != set(chi.elements):
        raise TableInvalid("conjugator table was built for a different χ")
    chi_set = set(chi.elements)
    at_v = g.graph.incident(v)
    for eid in at_v:
        ends = (g.graph.d0[eid], g.graph.d1[eid])
        if ends[0] != v:
            raise ValueError(
                f"edge {eid!r} ends at {v!r} but does not start there; "
                "apply reverse_edge first"
            )
        if eid in g.tree.edges and len(set(g.inclusions[eid][0])) == group.order:
            raise ValueError(f"edge {eid!r} is superfluous at {v!r}; collapse it first")
        if eid not in table.delta:
            raise TableInvalid(f"no conjugator recorded for edge {eid!r}")
        d = table.delta[eid]
        if not isinstance(d, int) or not 0 <= d < group.order:
            raise TableInvalid(f"conjugator for {eid!r} is not an element of Δ")
        for i in (0, 1) if ends[1] == v else (0,):
            for k in range(g.edge_groups[eid].order):
                if group.conjugate(g.incl(eid, i, k), d) not in chi_set:
                    raise TableInvalid(
                        f"δ for {eid!r} does not move the side-{i} image into χ"
                    )

    w_id, e_id = f"{v}.delta", f"{v}.chi"
    chi_group, to_local = subgroup_as_group(chi)
    inclusions = {e_id: (tuple(range(chi_group.order)), chi.elements)}
    for eid in at_v:
        d = table.delta[eid]
        inclusions[eid] = tuple(
            tuple(to_local[group.conjugate(h, d)] for h in images) if end == v else images
            for end, images in zip((g.graph.d0[eid], g.graph.d1[eid]), g.inclusions[eid])
        )
    out = _rebuilt(
        g,
        vertices=(*g.graph.vertices, w_id),
        edges=(*g.graph.edges, e_id),
        d0={e_id: v},
        d1={e_id: w_id},
        vertex_groups={v: chi_group, w_id: group},
        edge_groups={e_id: chi_group},
        inclusions=inclusions,
        tree=g.tree.edges | {e_id},
        name=f"{g.name}~attached" if g.name else "attached",
    )

    gens = g.vertex_groups[v].generator_handles()
    psi = {(VERTEX, v, h): Word(((VERTEX, w_id, h),)) for h in gens}
    phi = {(VERTEX, w_id, h): Word(((VERTEX, v, h),)) for h in gens}
    for j in out.vertex_groups[v].generator_handles():
        phi[(VERTEX, v, j)] = Word(((VERTEX, v, chi.elements[j]),))
    phi[(LETTER, e_id, 1)] = Word(())
    for eid in at_v:
        d, letter = table.delta[eid], (LETTER, eid, 1)
        to_out = [(VERTEX, w_id, d), letter]
        back = [(VERTEX, v, group.inv(d)), letter]
        if g.graph.d1[eid] == v:  # a loop at v: conjugate on both sides
            to_out.append((VERTEX, w_id, group.inv(d)))
            back.append((VERTEX, v, d))
        psi[letter], phi[letter] = Word(tuple(to_out)), Word(tuple(back))
    return out, _witness(g, out, psi, phi)


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
        syllables = _reduce_from(self.owner, _owned(self.owner, x), self.delta_vertex)
        return _syllables_within(syllables, self.delta_vertices, self.delta_edges)

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
    ends = (g.graph.d0[e], g.graph.d1[e])
    side = 0 if ends[0] in delta_vertices else 1
    delta_vertex = ends[side]
    chi = Subgroup(
        table_group(g, delta_vertex),
        tuple(sorted(set(g.inclusions[e][side]))),
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
    source_doc = document_data(w.source)
    payload = json.dumps(source_doc, sort_keys=True).encode()
    return {
        "op": op,
        "input_sha256": hashlib.sha256(payload).hexdigest(),
        "source": source_doc,
        "output": document_data(w.target),
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
    """Rebuild both graphs and the witness from a transcript and re-validate.

    A malformed transcript (bad JSON, a missing part, a map that is not an
    object, an entry that is not word text or does not parse) is a FAIL line.
    """
    report = Report()
    try:
        data = expect(json_value(data), dict, ())
        source = _parse(member(data, "source", object, ()), ("source",)).gog
        target = _parse(member(data, "output", object, ()), ("output",)).gog
        recorded = member(data, "input_sha256", str, ())
        tables = {part: member(data, part, dict, ()) for part in ("psi", "phi")}
    except (GogkitError, ValueError) as exc:
        report.fail(str(exc))
        return report
    payload = json.dumps(data["source"], sort_keys=True).encode()
    if hashlib.sha256(payload).hexdigest() != recorded:
        report.fail("input hash does not match the recorded source document")
        return report

    def rebuild(label, part, g_from, g_to):
        out = {}
        for key_text, image_text in tables[part].items():
            try:
                key_word = parse_word(g_from, expect(key_text, str, (part, key_text)))
                image = parse_word(g_to, expect(image_text, str, (part, key_text)))
            except (GogkitError, ValueError) as exc:
                report.fail(f"{label} entry {key_text!r}: {exc}")
                continue
            if len(key_word.syllables) != 1:
                report.fail(f"{label} key {key_text!r} is not a single generator")
                continue
            out[key_word.syllables[0]] = image
        return out

    psi = rebuild("ψ", "psi", source, target)
    phi = rebuild("φ", "phi", target, source)
    if not report.ok:
        return report
    inner = validate_witness(GogIsoWitness(source, target, psi, phi))
    inner.counts["replayed"] = 1
    return inner

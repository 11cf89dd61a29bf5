"""Graphs of finite groups and the word problem for their fundamental groups.

Elements are represented by canonical normal forms computed with a fixed left
transversal per edge inclusion: ``coset_rep`` picks the least element per
coset, for the reducer and the structure tree alike.  Reduction follows the
classical scheme (Serre, *Trees*, §I.5) in one pass: a walk reads the word as
a based loop (spanning-tree letters are trivial), stacks its edge crossings
and cancels each pinch as it closes; then the surviving crossings are
normalized left to right against the transversals.  Two elements are equal iff
their canonical words are identical.  The crossings left after cancellation
(``_walk``) are the tree geodesic from the base vertex, which the structure
tree reads for fixed vertices.

Words are checked where they enter, once per word, by the one gate
``_check_word``, called by ``reduce`` on a ``Word``, the public
``NormalForm`` constructor (which also demands a normal form),
``vertex_element``, ``stable_letter``, ``_syllables`` (the gate of
``evaluate``, ``image_of`` and ``translate``) on a word or another graph's
normal form, and the structure tree's edge cosets, whose handles are
inclusion images.  Each argument naming a part of g passes one gate here:
``_owned`` (a normal form of g, else MixedOwners), ``_vertex_group`` and
``_edge_ends`` (a vertex or edge id, else ValueError quoting it).
``table_group`` is the one test that a vertex carries a finite table,
``table_subgroup`` the one test that a subgroup is one of that table, and
``inclusion_problems`` the one check of the edge inclusions, read by
``validate`` and by ``parse_document``.  Inside, the
reducer trusts its handles: words built from g's own normal forms
(``multiply``, ``invert``, ``ball``, one-syllable units, ``evaluate``'s moved
values) go through the one trusted entry ``_normal_form``,
``vertex_handle_of`` reads ``_reduce_from`` at its vertex, and neither
``_reduce_from`` nor ``_walk`` checks.  A tuple known
to be canonical already, such as a normal form less its final base carry, is
wrapped by ``_canonical`` without a reduction.  ``multiply`` returns
the other factor when one is the identity, which is exact because normal
forms are canonical.

A graph of groups is immutable, so everything the reducer derives from its
structure lives in one reduction plan (``_tables``), built on first use and
kept for its lifetime; a graph derived from another starts without one.  The
plan holds per vertex its identity and its vertex group's product ``rows``,
|V| entries each; one crossing record per edge and direction, 2|E| of them,
holding what the reducer reads at a crossing: the source side's inclusion
preimages and its ``coset_rep`` memo, at most |𝒢(v)| carries, kept for a
finite table vertex group only (a nested group's carries are not stored; its
own reductions fill its own plan); and per vertex the tree route to each
syllable target, a vertex or a letter, as a tuple of crossing records, each
route built the first time it is walked: at most |V|·(|V| + 2|E|) routes.
Every product of two handles of one vertex group reads that group's ``rows``
(a table's rows, ``multiply`` in table shape for a nested group): the plan,
``coset_rep`` and ``inclusion_problems`` alike.  The reducer drops a syllable
whose handle equals its vertex's identity, a test that holds for nested
handles too, since their normal forms are canonical.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain

from .errors import BadSubgraph, BallTooLarge, MalformedWord, MixedOwners, NotFinite, cut, quote
from .finite_group import FiniteGroup, Subgroup, hom_defect, is_conjugate_into, subgroup_closure
from .graph_core import FiniteGraph, SpanningTree, spanning_tree

BALL_CAP = 10**6


class TableVertexGroup:
    """A vertex group backed by a finite table; handles are indices and ``rows`` is the table."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.rows = group.table
        # The most digits an index in range can have; ``parse_word`` refuses
        # a longer one before converting it.
        self.index_digits = len(str(group.order - 1))

    @property
    def order(self) -> int | None:
        return self.group.order

    def identity(self) -> int:
        return self.group.identity

    def inv(self, a: int) -> int:
        return self.group.inv(a)

    def sort_key(self, a: int):
        return a

    def handles(self) -> list[int]:
        return list(range(self.group.order))

    def generator_handles(self) -> list[int]:
        """Every non-identity handle; ``ball``'s skip rule relies on the whole list."""
        return [i for i in range(self.group.order) if i != self.group.identity]

    def text(self, a: int) -> str:
        return f"g{a}"

    def contains_handle(self, a) -> bool:
        return type(a) is int and 0 <= a < self.group.order


class CompositeVertexGroup:
    """A vertex group presented by a nested graph of groups; handles are its normal forms.

    Only the word-problem operations are available; enumeration raises since
    the underlying group is generally infinite.  ``rows`` is the product in
    the shape of a table: ``rows[a][b]`` is ``multiply(a, b)``.
    """

    def __init__(self, sub: GraphOfGroups):
        self.sub = sub
        self.rows = _NestedRows()
        self.index_digits = 0  # handles are normal forms, never indices

    @property
    def order(self) -> int | None:
        return None

    def identity(self) -> NormalForm:
        return identity(self.sub)

    def inv(self, a: NormalForm) -> NormalForm:
        return invert(a)

    def sort_key(self, a: NormalForm):
        return a.sort_key()

    def handles(self):
        raise NotFinite("vertex group is a nested graph of groups; cannot enumerate")

    def generator_handles(self) -> list[NormalForm]:
        """The units of the nested alphabet's vertex elements and positive letters."""
        sub = self.sub
        return [_normal_form(sub, (s,)) for s in alphabet(sub) if s[0] == VERTEX or s[2] > 0]

    def text(self, a: NormalForm) -> str:
        return "{" + a.text() + "}"

    def contains_handle(self, a) -> bool:
        return isinstance(a, NormalForm) and a.owner is self.sub


class _NestedRows:
    __slots__ = ()

    def __getitem__(self, a: NormalForm) -> _NestedRow:
        return _NestedRow(a)


class _NestedRow:
    __slots__ = ("a",)

    def __init__(self, a: NormalForm):
        self.a = a

    def __getitem__(self, b: NormalForm) -> NormalForm:
        return multiply(self.a, b)


VERTEX = "v"
LETTER = "t"


@dataclass(frozen=True)
class Word:
    """A syllable sequence: (VERTEX, vertex id, handle) or (LETTER, edge id, ±1)."""

    syllables: tuple[tuple, ...]

    def __len__(self) -> int:
        return len(self.syllables)


class GraphOfGroups:
    """A finite graph with a group per vertex/edge and injective edge inclusions.

    ``inclusions[e]`` is a pair of handle tuples (into the d0 and d1 vertex
    groups), indexed by the elements of the edge group.  Immutable after
    construction; structural validity is checked here, while the homomorphism
    invariants are checked by :func:`inclusion_problems`.
    """

    def __init__(
        self,
        graph: FiniteGraph,
        vertex_groups: dict[str, object],
        edge_groups: dict[str, FiniteGroup],
        inclusions: dict[str, tuple[tuple, tuple]],
        tree: SpanningTree | None = None,
        basepoint: str | None = None,
        name: str = "",
    ):
        self.graph = graph
        self.vertex_groups = {
            v: (TableVertexGroup(g) if isinstance(g, FiniteGroup) else g)
            for v, g in vertex_groups.items()
        }
        self.edge_groups = edge_groups
        self.inclusions = {e: (tuple(a), tuple(b)) for e, (a, b) in inclusions.items()}
        self.tree = tree if tree is not None else spanning_tree(graph)
        if self.tree.graph != graph:
            raise ValueError("spanning tree was built over a different graph")
        self.basepoint = basepoint if basepoint is not None else min(graph.vertices)
        self.name = name
        for v in graph.vertices:
            if v not in self.vertex_groups:
                raise ValueError(f"vertex {v!r} has no group")
        for e in graph.edges:
            if e not in self.edge_groups or e not in self.inclusions:
                raise ValueError(f"edge {e!r} has no group or inclusions")
            n = self.edge_groups[e].order
            if len(self.inclusions[e][0]) != n or len(self.inclusions[e][1]) != n:
                raise ValueError(f"edge {e!r}: inclusion image arrays must have length {n}")
        if self.basepoint not in graph.vertices:
            raise ValueError(f"basepoint {quote(self.basepoint)} is not a vertex")
        self._presentation: Presentation | None = None
        # The reduction plan (_tables).
        self._kernel: tuple[dict, dict, dict, dict] | None = None
        # The quotient walk's plan and its vertex hom lists (quotients._walk).
        self._walk: tuple | None = None

    def incl(self, e: str, side: int, k: int):
        """Image handle of edge-group element k under the side-inclusion of e."""
        return self.inclusions[e][side][k]

    def incl_preimage(self, e: str, side: int, handle) -> int | None:
        """The edge-group element k with ``incl(e, side, k) == handle``, else None."""
        return _side_crossing(self, e, side).pre.get(handle)

    def all_tables(self) -> bool:
        return all(isinstance(vg, TableVertexGroup) for vg in self.vertex_groups.values())

    def __repr__(self) -> str:
        tag = self.name or "gog"
        return f"GraphOfGroups({tag}, |V|={len(self.graph.vertices)}, |E|={len(self.graph.edges)})"


def _vertex_group(g: GraphOfGroups, vid: str):
    """The vertex gate: the vertex group at ``vid``, else ValueError."""
    if vid not in g.vertex_groups:
        raise ValueError(f"unknown vertex {quote(vid)}")
    return g.vertex_groups[vid]


def _edge_ends(g: GraphOfGroups, eid: str) -> tuple[str, str]:
    """The edge gate: the ends (d0, d1) of edge ``eid``, else ValueError."""
    if eid not in g.graph.d0:
        raise ValueError(f"unknown edge {quote(eid)}")
    return g.graph.d0[eid], g.graph.d1[eid]


def table_group(g: GraphOfGroups, vid: str) -> FiniteGroup:
    """The finite group at vertex ``vid``: ValueError for an unknown vertex,
    NotFinite for a nested graph of groups.  The one test that a vertex is a
    finite table."""
    vg = _vertex_group(g, vid)
    if not isinstance(vg, TableVertexGroup):
        raise NotFinite(f"vertex group at {vid!r} is not a finite table")
    return vg.group


def table_subgroup(g: GraphOfGroups, vid: str, chi: Subgroup) -> Subgroup:
    """χ as a subgroup of the finite group at ``vid``, its elements sorted:
    ``table_group``'s errors, then ValueError unless χ's parent is that group
    and its elements are in range and closed under the product.  The one
    subgroup test, for the surgery, quotient and malnormality entries."""
    group = table_group(g, vid)
    if chi.parent is not group:
        raise ValueError("χ must be a subgroup of the vertex group at the given vertex")
    handles = tuple(sorted(set(chi.elements)))
    for h in handles:
        if not (isinstance(h, int) and 0 <= h < group.order):
            raise ValueError(f"element index {h} out of range at {vid!r}")
    closure = subgroup_closure(group, handles).elements
    if closure != handles:
        raise ValueError(
            f"handles {list(handles)} are not a subgroup at {vid!r}; they generate {list(closure)}"
        )
    return Subgroup(group, handles)


def _rebuilt(
    g: GraphOfGroups, *, vertices=None, edges=None, d0=None, d1=None, vertex_groups=None,
    edge_groups=None, inclusions=None, tree=None, basepoint=None, name=None,
) -> GraphOfGroups:
    """A graph of groups derived from g: only the parts given differ.

    Vertex and edge tuples and the spanning-tree edge set replace g's; the
    maps override g's entries key by key and are then cut down to the new
    vertices and edges.  Every rewrite builds its output here.
    """
    vertices = g.graph.vertices if vertices is None else tuple(vertices)
    edges = g.graph.edges if edges is None else tuple(edges)

    def part(own: dict, given, keys) -> dict:
        merged = own if given is None else {**own, **given}
        return {k: merged[k] for k in keys}

    graph = FiniteGraph(vertices, edges, part(g.graph.d0, d0, edges), part(g.graph.d1, d1, edges))
    return GraphOfGroups(
        graph,
        part(g.vertex_groups, vertex_groups, vertices),
        part(g.edge_groups, edge_groups, edges),
        part(g.inclusions, inclusions, edges),
        tree=SpanningTree(graph, frozenset(g.tree.edges if tree is None else tree)),
        basepoint=g.basepoint if basepoint is None else basepoint,
        name=g.name if name is None else name,
    )


class NormalForm:
    """A canonical word together with its owning graph of groups.

    The constructor checks: it raises MalformedWord unless ``syllables`` are
    syllables of ``owner`` with good handles and already its normal form.
    Trusted code wraps a tuple known to be canonical with ``_canonical``.
    """

    __slots__ = ("owner", "syllables", "_hash")

    def __init__(self, owner: GraphOfGroups, syllables: tuple[tuple, ...]):
        syllables = tuple(syllables)
        _check_word(owner, syllables)
        if _reduce_from(owner, syllables, owner.basepoint) != syllables:
            raise MalformedWord(f"{word_text(owner, Word(syllables))} is not a normal form")
        self.owner = owner
        self.syllables = syllables
        self._hash = hash(syllables)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalForm)
            and self.owner is other.owner
            and self.syllables == other.syllables
        )

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.syllables)

    def text(self) -> str:
        return word_text(self.owner, self)

    def sort_key(self) -> tuple[int, str]:
        """The one order of normal forms: syllable count, then word text."""
        return len(self.syllables), self.text()

    def __repr__(self) -> str:
        return f"nf({self.text()})"


def word_text(g: GraphOfGroups, w: Word | NormalForm) -> str:
    """Serialize a word or normal form; the identity is written as "1"."""
    if not w.syllables:
        return "1"
    parts = []
    for syl in w.syllables:
        if syl[0] == VERTEX:
            _, vid, h = syl
            parts.append(f"{vid}:{g.vertex_groups[vid].text(h)}")
        else:
            _, eid, exp = syl
            parts.append(f"t({eid})" + ("^-1" if exp < 0 else ""))
    return " * ".join(parts)


_LETTER_RE = re.compile(r"^t\(([^()\s]+)\)(\^-1)?$")
# Canonical ASCII indices only: no leading zero, no other Unicode digit.
_INDEX_RE = re.compile(r"g(0|[1-9][0-9]*)")


def _split_word_text(text: str) -> list[str]:
    """Split on top-level '*' separators, respecting {...} nesting."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise MalformedWord(f"unbalanced braces in {quote(text)}")
        if ch == "*" and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise MalformedWord(f"unbalanced braces in {quote(text)}")
    parts.append("".join(cur).strip())
    return parts


def parse_word(g: GraphOfGroups, text: str) -> Word:
    """Parse word text: syllables joined by '*', `vid:gN` or `t(eid)[^-1]`.
    Error texts quote the text read through ``errors.quote``."""
    text = text.strip()
    if text in ("", "1"):
        return Word(())
    syllables = []
    for token in _split_word_text(text):
        if not token:
            raise MalformedWord(f"empty syllable in {quote(text)}")
        m = _LETTER_RE.match(token)
        if m:
            eid = m.group(1)
            if eid not in g.graph.edges:
                raise MalformedWord(f"unknown edge {quote(eid)} in {quote(token)}")
            syllables.append((LETTER, eid, -1 if m.group(2) else 1))
            continue
        if ":" not in token:
            raise MalformedWord(f"cannot parse syllable {quote(token)}")
        vid, _, elem = token.partition(":")
        vid, elem = vid.strip(), elem.strip()
        if vid not in g.graph.vertices:
            raise MalformedWord(f"unknown vertex {quote(vid)} in {quote(token)}")
        vg = g.vertex_groups[vid]
        if elem.startswith("{") and elem.endswith("}"):
            if not isinstance(vg, CompositeVertexGroup):
                raise MalformedWord(f"vertex {quote(vid)} has a table group; got {quote(elem)}")
            handle = _normal_form(vg.sub, parse_word(vg.sub, elem[1:-1]).syllables)
        else:
            if not _INDEX_RE.fullmatch(elem):
                raise MalformedWord(f"cannot parse element {quote(elem)} in {quote(token)}")
            digits = elem[1:]
            if len(digits) > vg.index_digits or not vg.contains_handle(handle := int(digits)):
                raise MalformedWord(f"element index {cut(digits)} out of range at {quote(vid)}")
        syllables.append((VERTEX, vid, handle))
    return Word(tuple(syllables))


# ---------------------------------------------------------------------------
# Reduction


class _Crossing:
    """One edge crossed one way, with all the kernel reads at that crossing.

    ``pre`` maps the source-side images (at ``near``) to their edge-group
    elements and ``img`` lists the far-side images; ``memo`` is
    ``coset_rep``'s table for the source side, filled for a table vertex
    group only; ``letter`` is the normal form's syllable for the crossing,
    None on a tree edge; ``rev`` is the record of the same edge crossed back.
    Each record owns its ``pre`` and ``memo``.
    """

    __slots__ = ("eid", "direction", "src", "near", "near_one", "near_rows",
                 "far", "far_one", "far_rows", "pre", "img", "memo", "letter", "rev")

    def __init__(self, g: GraphOfGroups, one: dict, rows: dict, eid: str, direction: int):
        src = 0 if direction > 0 else 1
        ends = (g.graph.d0[eid], g.graph.d1[eid])
        self.eid, self.direction, self.src = eid, direction, src
        self.near, self.far = ends[src], ends[1 - src]
        self.near_one, self.near_rows = one[self.near], rows[self.near]
        self.far_one, self.far_rows = one[self.far], rows[self.far]
        self.pre = {h: k for k, h in enumerate(g.inclusions[eid][src])}
        self.img = g.inclusions[eid][1 - src]
        self.memo = {}
        self.letter = None if eid in g.tree.edges else (LETTER, eid, direction)


class _Routes(dict):
    """The tree routes from one vertex, each built the first time it is read:
    to a vertex id, the crossings of the tree path there; to an (edge,
    direction) pair, the path to that crossing's near end, then the crossing."""

    __slots__ = ("tree", "crossings", "start")

    def __init__(self, tree: SpanningTree, crossings: dict, start: str):
        super().__init__()
        self.tree, self.crossings, self.start = tree, crossings, start

    def __missing__(self, target) -> tuple:
        last = () if isinstance(target, str) else (self.crossings[target],)
        end = last[0].near if last else target
        route = tuple(self.crossings[step] for step in self.tree.path(self.start, end)) + last
        self[target] = route
        return route


def _tables(g: GraphOfGroups) -> tuple[dict, dict, dict, dict]:
    """The kernel's reduction plan, built on first use: per vertex its
    identity, its vertex group's product ``rows`` and tree routes
    (``_Routes``), and the one ``_Crossing`` per edge and direction that the
    routes read."""
    if g._kernel is None:
        one, rows = {}, {}
        for vid, vg in g.vertex_groups.items():
            one[vid] = vg.identity()
            rows[vid] = vg.rows
        crossings = {
            (eid, direction): _Crossing(g, one, rows, eid, direction)
            for eid in g.graph.edges for direction in (1, -1)
        }
        for (eid, direction), crossing in crossings.items():
            crossing.rev = crossings[eid, -direction]
        routes = {vid: _Routes(g.tree, crossings, vid) for vid in g.graph.vertices}
        g._kernel = (one, rows, routes, crossings)
    return g._kernel


def _side_crossing(g: GraphOfGroups, eid: str, side: int) -> _Crossing:
    """The crossing that leaves ``eid`` from its ``side`` end (d0 for 0, d1
    for 1): its ``pre`` and ``memo`` are those of that end's inclusion.
    ValueError for an unknown edge or another side."""
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side!r}")
    crossing = _tables(g)[3].get((eid, 1 - 2 * side))
    if crossing is None:
        _edge_ends(g, eid)  # raises: every edge of g has its crossings
    return crossing


def _walk(plan: tuple, syllables: tuple, base: str) -> tuple[list[tuple], object]:
    """The crossings of the word ``syllables``, read as a loop at ``base``,
    left after every pinch cancels, as (crossing, element before) pairs, and
    the element left at ``base``.

    Each syllable walks its route from the current vertex; a crossing whose
    reverse is on top of the stack, with the element at hand in its source
    image, closes a pinch t_e·∂1(k)·t_e⁻¹ or t_e⁻¹·∂0(k)·t_e.  A final
    identity syllable at ``base`` walks the loop home.
    """
    one, rows, routes, _ = plan
    stack: list[tuple] = []
    top = None
    cur, h = base, one[base]
    for kind, a, b in chain(syllables, ((VERTEX, base, one[base]),)):
        route = routes[cur][a] if kind == VERTEX else routes[cur][a, b]
        for crossing in route:
            if crossing.rev is top:
                k = crossing.pre.get(h)
                if k is not None:
                    h = crossing.far_rows[stack.pop()[1]][crossing.img[k]]
                    top = stack[-1][0] if stack else None
                    continue
            stack.append((crossing, h))
            top = crossing
            h = crossing.far_one
        if kind == VERTEX:
            cur = a
            h = rows[a][h][b]
        else:
            cur = crossing.far
    return stack, h


def _reduce_from(g: GraphOfGroups, syllables: tuple, base: str) -> tuple[tuple, ...]:
    """Normal form of the word ``syllables``, handles trusted, read as a loop
    at ``base``: the crossings of its geodesic, normalized left to right
    against the transversals."""
    plan = _tables(g)
    one, rows, _, _ = plan
    stack, h = _walk(plan, syllables, base)
    out: list[tuple] = []
    carry = one[base]
    for crossing, before in stack:
        carry = crossing.near_rows[carry][before]
        found = crossing.memo.get(carry)
        if found is None:
            found = coset_rep(g, crossing.eid, crossing.src, carry)
        rep, k = found
        if rep != crossing.near_one:
            out.append((VERTEX, crossing.near, rep))
        if crossing.letter is not None:
            out.append(crossing.letter)
        carry = crossing.img[k]
    carry = rows[base][carry][h]
    if carry != one[base]:
        out.append((VERTEX, base, carry))
    return tuple(out)


def coset_rep(g: GraphOfGroups, eid: str, side: int, x):
    """The least element rep of x·∂side(𝒢(eid)) in the vertex group at the
    ``side`` end of ``eid``, by ``sort_key``, and the k with x = rep·∂side(k).

    Memoised in the plan's crossing out of that end when its group is a
    finite table; a nested group's handles are not stored (its own
    reductions hit its own tables).  A carry that is not a handle of that
    group raises MalformedWord before the memo is read.
    """
    crossing = _side_crossing(g, eid, side)
    vg = g.vertex_groups[crossing.near]
    if not vg.contains_handle(x):
        raise MalformedWord(f"bad element handle {x!r} at vertex {crossing.near!r}")
    found = crossing.memo.get(x)
    if found is not None:
        return found
    row = vg.rows[x]
    best_k, best_rep, best_key = None, None, None
    for k in range(g.edge_groups[eid].order):
        rep = row[vg.inv(g.incl(eid, side, k))]
        key = vg.sort_key(rep)
        if best_key is None or key < best_key:
            best_k, best_rep, best_key = k, rep, key
    if vg.order is not None:
        crossing.memo[x] = (best_rep, best_k)
    return best_rep, best_k


def transversal(g: GraphOfGroups, eid: str, side: int) -> list:
    """The sorted reps ``coset_rep`` picks for the cosets of ∂side(𝒢(eid))
    in the finite table group at the ``side`` end of ``eid``."""
    order = table_group(g, _side_crossing(g, eid, side).near).order
    return sorted({coset_rep(g, eid, side, x)[0] for x in range(order)})


def _check_word(g: GraphOfGroups, syllables: tuple):
    """The one syllable test: raise MalformedWord at the first entry that is
    neither (VERTEX, v, h), v a vertex of g and h an element of 𝒢(v), nor
    (LETTER, e, ±1), e an edge of g and ±1 an int (not a bool or a float),
    or at a container that is not a tuple."""
    if not isinstance(syllables, tuple):
        raise MalformedWord(f"syllables must be a tuple, got {type(syllables).__name__}")
    groups, edges = g.vertex_groups, g.graph.edges
    for syl in syllables:
        if not (isinstance(syl, tuple) and len(syl) == 3 and isinstance(syl[1], str)):
            raise MalformedWord(f"not a syllable of {g!r}: {syl!r}")
        kind, name, x = syl
        if kind == VERTEX and name in groups:
            if not groups[name].contains_handle(x):
                raise MalformedWord(f"bad element handle {x!r} at vertex {name!r}")
        elif not (kind == LETTER and name in edges and type(x) is int and x in (1, -1)):
            raise MalformedWord(f"not a syllable of {g!r}: {syl!r}")


def _syllables(g: GraphOfGroups, x) -> tuple:
    """The syllables of a word, syllable tuple or normal form, checked by
    ``_check_word`` unless x is a normal form of g: the public folds' gate."""
    syllables = x.syllables if isinstance(x, (NormalForm, Word)) else tuple(x)
    if not (isinstance(x, NormalForm) and x.owner is g):
        _check_word(g, syllables)
    return syllables


_new = object.__new__


def _canonical(g: GraphOfGroups, syllables: tuple) -> NormalForm:
    """Wrap a tuple known to be g's normal form, unchecked."""
    x = _new(NormalForm)
    x.owner, x.syllables, x._hash = g, syllables, hash(syllables)
    return x


def _normal_form(g: GraphOfGroups, syllables: tuple) -> NormalForm:
    """The trusted entry: the normal form of syllables whose handles are known
    to be good, such as those of g's own normal forms."""
    return _canonical(g, _reduce_from(g, syllables, g.basepoint))


def reduce(g: GraphOfGroups, w: Word) -> NormalForm:
    """Canonical normal form of the element represented by ``w``; its handles
    are checked once, before reduction."""
    _check_word(g, w.syllables)
    return _normal_form(g, w.syllables)


def nf(g: GraphOfGroups, text: str) -> NormalForm:
    """Parse and reduce word text; convenience wrapper."""
    return _normal_form(g, parse_word(g, text).syllables)


def identity(g: GraphOfGroups) -> NormalForm:
    return _canonical(g, ())


def vertex_element(g: GraphOfGroups, vid: str, handle) -> NormalForm:
    syl = (VERTEX, vid, handle)
    _check_word(g, (syl,))
    return _normal_form(g, (syl,))


def stable_letter(g: GraphOfGroups, eid: str, exp: int = 1) -> NormalForm:
    syl = (LETTER, eid, exp)
    _check_word(g, (syl,))
    return _normal_form(g, (syl,))


def _owned(g: GraphOfGroups, x: NormalForm) -> tuple:
    """The owner gate: the syllables of x, a normal form of g, else MixedOwners."""
    if x.owner is not g:
        raise MixedOwners("normal form belongs to a different graph of groups")
    return x.syllables


def multiply(x: NormalForm, y: NormalForm) -> NormalForm:
    """x·y; an identity factor returns the other, since normal forms are canonical."""
    tail = _owned(x.owner, y)
    if not tail:
        return x
    if not x.syllables:
        return y
    return _normal_form(x.owner, x.syllables + tail)


def invert(x: NormalForm) -> NormalForm:
    return _normal_form(x.owner, invert_word(x.owner, x).syllables)


def invert_word(g: GraphOfGroups, w: Word | NormalForm) -> Word:
    """The formal inverse: syllables reversed, each one inverted."""
    out = []
    for syl in reversed(w.syllables):
        if syl[0] == VERTEX:
            out.append((VERTEX, syl[1], g.vertex_groups[syl[1]].inv(syl[2])))
        else:
            out.append((LETTER, syl[1], -syl[2]))
    return Word(tuple(out))


def equal(x: NormalForm, y: NormalForm) -> bool:
    return x.syllables == _owned(x.owner, y)


# ---------------------------------------------------------------------------
# Presentation


@dataclass(frozen=True)
class Presentation:
    """Generators (vertex elements and stable letters) with defining relators,
    each labelled (edge, k): k an edge-group element, None for a tree letter."""

    generators: tuple[tuple, ...]
    relators: tuple[Word, ...]
    labels: tuple[tuple[str, int | None], ...]


def presentation(g: GraphOfGroups) -> Presentation:
    """The one list of generators and relators: t_e per tree edge, then
    ∂1(k)⁻¹·t_e⁻¹·∂0(k)·t_e per edge e and k; built once per (immutable) graph."""
    if g._presentation is None:
        edges = sorted(g.graph.edges)
        gens = [
            (VERTEX, vid, h)
            for vid in sorted(g.graph.vertices)
            for h in g.vertex_groups[vid].generator_handles()
        ]
        gens += [(LETTER, eid, 1) for eid in edges]
        labels: list[tuple] = [(eid, None) for eid in edges if eid in g.tree.edges]
        relators = [Word(((LETTER, eid, 1),)) for eid, _ in labels]
        for eid in edges:
            d0v, d1v = g.graph.d0[eid], g.graph.d1[eid]
            for k in range(g.edge_groups[eid].order):
                labels.append((eid, k))
                relators.append(Word((
                    (VERTEX, d1v, g.vertex_groups[d1v].inv(g.incl(eid, 1, k))),
                    (LETTER, eid, -1),
                    (VERTEX, d0v, g.incl(eid, 0, k)),
                    (LETTER, eid, 1),
                )))
        g._presentation = Presentation(tuple(gens), tuple(relators), tuple(labels))
    return g._presentation


def residues(g: GraphOfGroups, image, one, only=None):
    """(edge, k, relator, value) per relator whose ``image`` is not ``one``, in
    order: the one relator check.  A map given on generators is well defined
    exactly when it kills every relator (von Dyck; Fox 1953 for derivations).
    ``only`` lists the positions (indices into ``labels``) to check instead."""
    pres = presentation(g)
    for i in range(len(pres.labels)) if only is None else only:
        rel = pres.relators[i]
        value = image(rel)
        if value != one:
            eid, k = pres.labels[i]
            yield eid, k, rel, value


def alphabet(g: GraphOfGroups) -> list[tuple]:
    """The presentation's generators as syllables, tree letters dropped and
    each stable letter followed by its inverse."""
    out: list[tuple] = []
    for gen in presentation(g).generators:
        if gen[0] == VERTEX:
            out.append(gen)
        elif gen[1] not in g.tree.edges:
            out += [gen, (LETTER, gen[1], -1)]
    return out


# ---------------------------------------------------------------------------
# Validation


@dataclass
class Report:
    """A pass/fail verdict with human-readable problem lines."""

    ok: bool = True
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def fail(self, line: str):
        self.ok = False
        self.problems.append(line)

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        lines = [f"{status}" + (f" ({self.counts})" if self.counts else "")]
        lines.extend(self.problems)
        return "\n".join(lines)


def inclusion_problems(g: GraphOfGroups):
    """Yield a line per fault of an edge inclusion: an image outside its vertex
    group, or a map that is not injective, misses the identity or is not a
    homomorphism.  The one inclusion check, read by ``validate`` and by
    ``parse_document``."""
    for eid in sorted(g.graph.edges):
        K = g.edge_groups[eid]
        for side, vid in ((0, g.graph.d0[eid]), (1, g.graph.d1[eid])):
            vg = g.vertex_groups[vid]
            images = g.inclusions[eid][side]
            bad = [h for h in images if not vg.contains_handle(h)]
            for h in bad:
                yield f"edge {quote(eid)} side {side}: image {quote(h)} not in group at {quote(vid)}"
            if bad:
                continue  # the checks below would index the bad handles
            if len({vg.sort_key(h) for h in images}) != K.order:
                yield f"edge {quote(eid)} side {side}: inclusion is not injective"
            if images and images[K.identity] != vg.identity():
                yield f"edge {quote(eid)} side {side}: identity does not map to identity"
            defect = hom_defect(K, images, vg.rows)
            if defect is not None:
                i, j = defect
                yield f"edge {quote(eid)} side {side}: not a homomorphism on pair ({i},{j})"


def validate(g: GraphOfGroups) -> Report:
    """Check the edge inclusions (the spanning tree checked itself); never raises."""
    problems = list(inclusion_problems(g))
    counts = {"vertices": len(g.graph.vertices), "edges": len(g.graph.edges)}
    return Report(not problems, problems, counts)


# ---------------------------------------------------------------------------
# Balls and membership


def ball(g: GraphOfGroups, radius: int) -> list[NormalForm]:
    """All distinct normal forms of elements expressible by ≤ radius syllables.

    Breadth-first closure under right multiplication by the letters of
    ``alphabet(g)``, sorted by ``NormalForm.sort_key``.
    More than ``BALL_CAP`` elements raise BallTooLarge.

    A product known to land in an earlier level is skipped: if x = y·t with
    y one level below, then x·s = y·(ts) for t, s in one vertex group 𝒢(v)
    (ts is 1 or a letter) and x·t⁻¹ = y for a stable letter t.  So each new
    element keeps, per such y, the key v or t⁻¹ of the letters it skips;
    the skipped products would insert nothing (Serre, *Trees*, §I.4–5).
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if not g.all_tables():
        raise NotFinite("ball enumeration requires finite table vertex groups")
    letters = [
        (s, s[1], s[1]) if s[0] == VERTEX else (s, s, (LETTER, s[1], -s[2]))
        for s in alphabet(g)
    ]
    seen = {identity(g)}
    frontier = [(identity(g), ())]
    for _ in range(radius):
        blocked: dict[NormalForm, set] = {}
        for x, skip in frontier:
            for s, key, back in letters:
                if key in skip:
                    continue
                y = _normal_form(g, x.syllables + (s,))
                if y not in seen:
                    seen.add(y)
                    blocked[y] = {back}
                    if len(seen) > BALL_CAP:
                        raise BallTooLarge(f"ball exceeds cap of {BALL_CAP} elements")
                elif y in blocked:
                    blocked[y].add(back)
        frontier = list(blocked.items())
        if not frontier:
            break
    return sorted(seen, key=NormalForm.sort_key)


@dataclass(frozen=True)
class Subgraph:
    """A designated subgraph: vertex and edge id sets."""

    vertices: frozenset[str]
    edges: frozenset[str]

    @staticmethod
    def of(vertices, edges=()) -> Subgraph:
        return Subgraph(frozenset(vertices), frozenset(edges))


def _check_subgraph(g: GraphOfGroups, sub: Subgraph):
    if not sub.vertices <= set(g.graph.vertices) or not sub.edges <= set(g.graph.edges):
        raise BadSubgraph("subgraph references unknown vertices or edges")
    for e in sub.edges:
        if g.graph.d0[e] not in sub.vertices or g.graph.d1[e] not in sub.vertices:
            raise BadSubgraph(f"subgraph edge {e!r} has an endpoint outside the subgraph")
    if g.basepoint not in sub.vertices:
        raise BadSubgraph("subgraph must contain the basepoint")
    for v in sub.vertices:
        for e, _ in g.tree.path(g.basepoint, v):
            if e not in sub.edges:
                raise BadSubgraph(
                    f"subgraph is not closed under tree paths to the basepoint "
                    f"(missing edge {e!r})"
                )


def _syllables_within(syllables: tuple, vertices, edges) -> bool:
    """True iff every vertex syllable's vertex is in ``vertices`` and every
    letter's edge in ``edges``: the one subgraph membership test."""
    return all(s[1] in (vertices if s[0] == VERTEX else edges) for s in syllables)


def subgraph_group_membership(g: GraphOfGroups, sub: Subgraph, x: NormalForm) -> bool:
    """True iff every syllable of x lives in the subgraph."""
    _check_subgraph(g, sub)
    return _syllables_within(_owned(g, x), sub.vertices, sub.edges)


def vertex_group_membership(g: GraphOfGroups, vid: str, x: NormalForm) -> bool:
    """True iff x lies in the image of the vertex group at ``vid``.

    Canonicalizes from ``vid`` itself, so this works for any vertex, not just
    the basepoint.
    """
    return vertex_handle_of(g, vid, x) is not None


def vertex_handle_of(g: GraphOfGroups, vid: str, x: NormalForm):
    """The handle of x at vertex ``vid`` when x lies there, else None."""
    vg = _vertex_group(g, vid)
    syllables = _reduce_from(g, _owned(g, x), vid)
    if not syllables:
        return vg.identity()
    if len(syllables) == 1 and syllables[0][0] == VERTEX and syllables[0][1] == vid:
        return syllables[0][2]
    return None


def verify_relative_malnormality(g: GraphOfGroups, h_vertex: str, chi: Subgroup) -> Report:
    """Check H ∩ H^s ⊆ some H-conjugate of χ for every s outside H (H^s = s⁻¹Hs).

    ``g`` must be an amalgam A ∗_C B (two vertices, one edge); H = A is the
    vertex group at ``h_vertex`` and χ a subgroup of it.  H ∩ H^s fixes the
    tree path from o = 1·H to s⁻¹·o ≠ o, so it lies in H ∩ H^s' for the s'
    with s'⁻¹·o the vertex two edges along that path.  Those vertices are
    a·b·o, a over A/C and b over (B/C)∖C, so only s = (a·b)⁻¹ is checked.
    A factor that is not a finite table fails the report, as a bad χ does.
    """
    report = Report()
    if len(g.graph.vertices) != 2 or len(g.graph.edges) != 1:
        report.fail("graph is not a two-factor amalgam (need 2 vertices, 1 edge)")
        return report
    (eid,) = g.graph.edges
    side = 0 if g.graph.d0[eid] == h_vertex else 1
    other = g.graph.d1[eid] if side == 0 else g.graph.d0[eid]
    try:
        chi = table_subgroup(g, h_vertex, chi)
        table_group(g, other)
    except (ValueError, NotFinite) as exc:
        report.fail(str(exc))
        return report
    H = chi.parent
    checked = 0
    for a in transversal(g, eid, side):
        for b in transversal(g, eid, 1 - side):
            if g.incl_preimage(eid, 1 - side, b) is not None:
                continue  # b ∈ C: a·b·o = a·o = o
            checked += 1
            s_inv = multiply(vertex_element(g, h_vertex, a), vertex_element(g, other, b))
            s = invert(s_inv)
            # x ∈ H^s = s⁻¹·H·s iff s·x·s⁻¹ ∈ H.
            intersection = [
                i for i in range(H.order)
                if i != H.identity and vertex_group_membership(
                    g, h_vertex, multiply(multiply(s, vertex_element(g, h_vertex, i)), s_inv)
                )
            ]
            if not intersection:
                continue
            meet = Subgroup(H, tuple(sorted([H.identity, *intersection])))
            if is_conjugate_into(meet, chi, H) is None:
                report.fail(
                    f"malnormality fails at s = {s.text()}: "
                    f"H ∩ H^s = {sorted(intersection)} not inside any χ-conjugate"
                )
                return report
    report.counts["checked"] = checked
    return report

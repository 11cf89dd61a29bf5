"""The tree on which the fundamental group acts: cosets of vertex and edge groups.

Tree vertices are cosets g·𝒢(v), tree edges cosets g·𝒢(e) (the edge group
sitting inside the d0 vertex group); endpoints are d0(g𝒢(e)) = g𝒢(d0 e) and
d1(g𝒢(e)) = g·t_e·𝒢(d1 e).  Cosets are stored by their least representative
under ``NormalForm.sort_key`` (fewest syllables, then word text), so equality
is plain comparison; the edges at a vertex are listed in the same order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BallTooLarge, MixedOwners, NotFinite
from .graph_core import FiniteGraph, SpanningTree
from .gog import (
    BALL_CAP,
    LETTER,
    VERTEX,
    GraphOfGroups,
    NormalForm,
    _canonical,
    _check_word,
    _normal_form,
    _tables,
    _walk,
    invert,
    multiply,
    table_group,
    transversal,
    vertex_handle_of,
)


@dataclass(frozen=True)
class TreeVertex:
    """The coset rep·𝒢(vertex_id); rep is the least coset element."""

    vertex_id: str
    rep: NormalForm
    def text(self) -> str:
        return f"{self.rep.text()}·G({self.vertex_id})"


@dataclass(frozen=True)
class TreeEdge:
    """The coset rep·𝒢(edge_id); rep is the least coset element."""

    edge_id: str
    rep: NormalForm
    def text(self) -> str:
        return f"{self.rep.text()}·G({self.edge_id})"


def _least_coset_rep(g: GraphOfGroups, prefix: tuple, vid: str, handles) -> NormalForm:
    """The least of prefix·h over the handles h at vid by ``NormalForm.sort_key``,
    whose text is computed for the shortest candidates only; the prefix and the
    handles are trusted."""
    candidates = [_normal_form(g, prefix + ((VERTEX, vid, h),)) for h in handles]
    least = min(len(c.syllables) for c in candidates)
    return min((c for c in candidates if len(c.syllables) == least), key=NormalForm.text)


def _vertex_at(g: GraphOfGroups, vid: str, prefix: tuple) -> TreeVertex:
    """The tree vertex prefix·𝒢(vid); the prefix is trusted.

    At the base vertex every prefix·h walks the same crossings, so their
    normal forms differ only in the final carry (Serre, *Trees*, §I.5): the
    prefix's normal form less a trailing base syllable is the unique shortest.
    """
    order = table_group(g, vid).order
    if vid != g.basepoint:
        return TreeVertex(vid, _least_coset_rep(g, prefix, vid, range(order)))
    rep = _normal_form(g, prefix).syllables
    if rep and rep[-1][0] == VERTEX and rep[-1][1] == vid:
        rep = rep[:-1]
    return TreeVertex(vid, _canonical(g, rep))


def _edge_at(g: GraphOfGroups, eid: str, prefix: tuple) -> TreeEdge:
    if eid not in g.inclusions:
        raise ValueError(f"unknown edge {eid!r}")
    vid, images = g.graph.d0[eid], g.inclusions[eid][0]
    # A graph built in code may hold inclusion images no check has seen.
    _check_word(g, tuple((VERTEX, vid, h) for h in images))
    return TreeEdge(eid, _least_coset_rep(g, prefix, vid, images))


def _check_rep(g: GraphOfGroups, x: NormalForm | None) -> tuple:
    if x is None:
        return ()
    if x.owner is not g:
        raise MixedOwners("representative belongs to a different graph of groups")
    return x.syllables


def tree_vertex(g: GraphOfGroups, vid: str, x: NormalForm | None = None) -> TreeVertex:
    """The tree vertex x·𝒢(vid), canonicalized."""
    return _vertex_at(g, vid, _check_rep(g, x))


def tree_edge(g: GraphOfGroups, eid: str, x: NormalForm | None = None) -> TreeEdge:
    """The tree edge x·𝒢(eid), canonicalized."""
    return _edge_at(g, eid, _check_rep(g, x))


def edge_d0(g: GraphOfGroups, E: TreeEdge) -> TreeVertex:
    return _vertex_at(g, g.graph.d0[E.edge_id], E.rep.syllables)


def edge_d1(g: GraphOfGroups, E: TreeEdge) -> TreeVertex:
    return _vertex_at(g, g.graph.d1[E.edge_id], E.rep.syllables + ((LETTER, E.edge_id, 1),))


def act(g: GraphOfGroups, x: NormalForm, item):
    """Left translation of a tree vertex or edge by a group element."""
    if isinstance(item, TreeVertex):
        return tree_vertex(g, item.vertex_id, multiply(x, item.rep))
    if isinstance(item, TreeEdge):
        return tree_edge(g, item.edge_id, multiply(x, item.rep))
    raise TypeError(f"cannot act on {type(item).__name__}")


@dataclass
class TreeBall:
    """A radius-limited piece of the tree around an origin vertex."""

    origin: TreeVertex
    vertices: list[TreeVertex]
    edges: list[TreeEdge]
    incidence: dict[TreeEdge, tuple[TreeVertex, TreeVertex]]
    depth: dict[TreeVertex, int]

    def is_tree(self) -> bool:
        """The edges, joined as ``incidence`` says, span the vertices as a tree.

        ``graph_core.SpanningTree`` decides it on the graph of list positions.
        """
        index = {tv: str(i) for i, tv in enumerate(self.vertices)}
        d0, d1 = {}, {}
        try:
            for j, E in enumerate(self.edges):
                a, b = self.incidence[E]
                d0[str(j)], d1[str(j)] = index[a], index[b]
            graph = FiniteGraph(tuple(map(str, range(len(self.vertices)))), tuple(d0), d0, d1)
            SpanningTree(graph, frozenset(d0))
        except (KeyError, ValueError):
            return False
        return True


def _neighbors(g: GraphOfGroups, tv: TreeVertex):
    """Tree edges at tv = a·𝒢(v), ordered, each with the map (``edge_d0`` or
    ``edge_d1``) to its far endpoint.

    They are a·r·𝒢(e) (leaving) and a·r·t_e⁻¹·𝒢(e) (arriving), r over the
    transversal of ∂0(𝒢(e)) or ∂1(𝒢(e)) in 𝒢(v) (Serre, *Trees*, §I.4).
    Distinct cosets give distinct edges, and none both leaves and arrives: it
    would be a loop.
    """
    out = []
    v, a = tv.vertex_id, tv.rep.syllables

    def add_edges(eid: str, side: int, tail: tuple, far):
        for r in transversal(g, eid, side):
            out.append((_edge_at(g, eid, a + ((VERTEX, v, r),) + tail), far))

    for eid in g.graph.incident(v):
        if g.graph.d0[eid] == v:
            add_edges(eid, 0, (), edge_d1)
        if g.graph.d1[eid] == v:
            add_edges(eid, 1, ((LETTER, eid, -1),), edge_d0)
    return sorted(out, key=lambda kv: (kv[0].edge_id, kv[0].rep.sort_key()))


def tree_ball(g: GraphOfGroups, radius: int) -> TreeBall:
    """Breadth-first ball of tree vertices and edges around the base vertex.

    One walk, level by level: each tree edge is walked once, from the end
    nearer the origin, and its far end is computed only then.  More than
    ``BALL_CAP`` vertices raise BallTooLarge.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    origin = tree_vertex(g, g.basepoint)
    tb = TreeBall(origin, [origin], [], {}, {origin: 0})
    walked, frontier = set(), [origin]
    for depth in range(1, radius + 1):
        nxt = []
        for near in frontier:
            for E, far_end in _neighbors(g, near):
                if E in walked:
                    continue
                walked.add(E)
                far = far_end(g, E)
                tb.edges.append(E)
                tb.incidence[E] = (near, far)
                if far not in tb.depth:
                    tb.depth[far] = depth
                    tb.vertices.append(far)
                    nxt.append(far)
                    if len(tb.vertices) > BALL_CAP:
                        raise BallTooLarge(f"tree ball exceeds cap of {BALL_CAP} vertices")
        frontier = nxt
    return tb


def _elliptic_crossings(g: GraphOfGroups, x: NormalForm) -> list[tuple]:
    """The crossings of the geodesic [o, x·o], o = 1·𝒢(base), for elliptic x,
    as ``_walk``'s (crossing, element before) pairs.

    The crossings ``_walk`` leaves after every pinch cancels are that
    geodesic (Serre, *Trees*, §I.5): their number is the tree distance.  x
    is elliptic iff d(o, x²·o) ≤ d(o, x·o) (Culler and Morgan, *Proc. LMS*
    55, 1987; Serre, *Trees*, §I.6.4); else NotFinite, since a finite-order
    element fixes a vertex.
    """
    if x.owner is not g:
        raise MixedOwners("element belongs to a different graph of groups")
    plan = _tables(g)
    crossings, _ = _walk(plan, x.syllables, g.basepoint)
    if len(_walk(plan, x.syllables * 2, g.basepoint)[0]) > len(crossings):
        raise NotFinite(f"{x.text()} has infinite order: it fixes no tree vertex")
    return crossings


def _midpoint(g: GraphOfGroups, crossings: list[tuple]) -> TreeVertex:
    """The tree vertex after half of an elliptic x's crossings: the midpoint of
    [o, x·o], which is x's fixed vertex nearest o."""
    depth = len(crossings) // 2
    prefix = ()
    for crossing, before in crossings[:depth]:
        prefix += ((VERTEX, crossing.near, before), (LETTER, crossing.eid, crossing.direction))
    return _vertex_at(g, crossings[depth][0].near if crossings else g.basepoint, prefix)


def fixed_vertex(g: GraphOfGroups, elements: list[NormalForm]) -> TreeVertex:
    """The tree vertex c·𝒢(v) nearest the base that all given elements fix.

    Its rep c conjugates the finite group into a vertex group: c⁻¹·⟨elements⟩·c
    lies in 𝒢(v).  ⟨elements⟩ fixes a vertex iff every x and every x·y among
    them is elliptic (Serre, *Trees*, §I.6.5); else NotFinite, naming an
    element of infinite order.  Each x's nearest fixed vertex lies on the geodesic from
    the base to the group's nearest one, which is therefore the deepest.

    When every x fixes that midpoint, the group lies in its stabiliser and is
    finite, so no pair needs a check; otherwise the pairs are checked in order
    and one of them names the element of infinite order.
    """
    geodesics = [_elliptic_crossings(g, x) for x in elements]
    tv = _midpoint(g, max(geodesics, key=len, default=[]))
    rep, rep_inv = tv.rep, invert(tv.rep)
    if all(
        vertex_handle_of(g, tv.vertex_id, multiply(multiply(rep_inv, x), rep)) is not None
        for x in elements
    ):
        return tv
    for i, x in enumerate(elements):
        for y in elements[i + 1:]:
            _elliptic_crossings(g, multiply(x, y))
    return tv


def ball_to_dot(ball: TreeBall) -> str:
    """Graphviz DOT text for a tree ball, deterministically ordered."""
    lines = ["graph structure_tree {"]
    index = {tv: i for i, tv in enumerate(ball.vertices)}
    for tv in ball.vertices:
        shape = ", shape=doublecircle" if tv == ball.origin else ""
        lines.append(f'  n{index[tv]} [label="{tv.text()}"{shape}];')
    for E in ball.edges:
        a, b = ball.incidence[E]
        lines.append(f'  n{index[a]} -- n{index[b]} [label="{E.text()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

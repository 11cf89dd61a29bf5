"""The tree on which the fundamental group acts: cosets of vertex and edge groups.

Tree vertices are cosets g·𝒢(v), tree edges cosets g·𝒢(e) (the edge group
sitting inside the d0 vertex group); endpoints are d0(g𝒢(e)) = g𝒢(d0 e) and
d1(g𝒢(e)) = g·t_e·𝒢(d1 e).  Cosets are stored by their least representative
(fewest syllables, then word text), so equality is plain comparison.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BallTooLarge, MixedOwners, NotFinite
from .finite_group import MAX_EXHAUSTIVE_ORDER
from .gog import (
    BALL_CAP,
    LETTER,
    VERTEX,
    GraphOfGroups,
    NormalForm,
    Word,
    coset_rep,
    identity,
    invert,
    multiply,
    reduce,
    vertex_group_membership,
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
    """The least of prefix·h over the handles h at vid, by (syllables, text)."""
    return min(
        (reduce(g, Word(prefix + ((VERTEX, vid, h),))) for h in handles),
        key=lambda c: (len(c.syllables), c.text()),
    )


def _handles(g: GraphOfGroups, vid: str) -> list:
    vg = g.vertex_groups[vid]
    if vg.order is None:
        raise NotFinite(f"vertex group at {vid!r} is not a finite table")
    return vg.handles()


def _vertex_at(g: GraphOfGroups, vid: str, prefix: tuple) -> TreeVertex:
    return TreeVertex(vid, _least_coset_rep(g, prefix, vid, _handles(g, vid)))


def _edge_at(g: GraphOfGroups, eid: str, prefix: tuple) -> TreeEdge:
    return TreeEdge(eid, _least_coset_rep(g, prefix, g.graph.d0[eid], g.inclusions[eid][0]))


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
        """Connected with |E| = |V| − 1 and consistent incidence."""
        if len(self.edges) != len(self.vertices) - 1:
            return False
        seen = {self.origin}
        changed = True
        while changed:
            changed = False
            for a, b in self.incidence.values():
                if a in seen and b not in seen:
                    seen.add(b)
                    changed = True
                elif b in seen and a not in seen:
                    seen.add(a)
                    changed = True
        return len(seen) == len(self.vertices)


def _neighbors(g: GraphOfGroups, tv: TreeVertex):
    """Tree edges at tv = a·𝒢(v) with their far endpoints, ordered.

    They are a·r·𝒢(e) (leaving) and a·r·t_e⁻¹·𝒢(e) (arriving), r over the
    transversal of ∂0(𝒢(e)) or ∂1(𝒢(e)) in 𝒢(v) (Serre, *Trees*, §I.4).
    Distinct cosets give distinct edges, and none both leaves and arrives: it
    would be a loop.
    """
    out = []
    v, a = tv.vertex_id, tv.rep.syllables
    handles = _handles(g, v)

    def add_edges(eid: str, side: int, tail: tuple, far):
        for r in sorted({coset_rep(g, v, eid, side, h)[0] for h in handles}):
            E = _edge_at(g, eid, a + ((VERTEX, v, r),) + tail)
            out.append((E, far(g, E)))

    for eid in g.graph.incident(v):
        if g.graph.d0[eid] == v:
            add_edges(eid, 0, (), edge_d1)
        if g.graph.d1[eid] == v:
            add_edges(eid, 1, ((LETTER, eid, -1),), edge_d0)
    return sorted(out, key=lambda kv: (kv[0].edge_id, len(kv[0].rep.syllables), kv[0].rep.text()))


def tree_ball(
    g: GraphOfGroups,
    radius: int,
    origin: TreeVertex | None = None,
    max_size: int = BALL_CAP,
) -> TreeBall:
    """Breadth-first ball of tree vertices and edges around the origin."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if origin is None:
        origin = tree_vertex(g, g.basepoint)
    vertices = [origin]
    depth = {origin: 0}
    edges: list[TreeEdge] = []
    incidence: dict[TreeEdge, tuple[TreeVertex, TreeVertex]] = {}
    frontier = [origin]
    for level in range(radius):
        nxt = []
        for tv in frontier:
            for E, far in _neighbors(g, tv):
                if E in incidence:
                    continue
                incidence[E] = (tv, far)
                edges.append(E)
                if far not in depth:
                    depth[far] = level + 1
                    vertices.append(far)
                    nxt.append(far)
                    if len(vertices) > max_size:
                        raise BallTooLarge(f"tree ball exceeds cap of {max_size} vertices")
        frontier = nxt
    return TreeBall(origin, vertices, edges, incidence, depth)


def fixed_vertex(
    g: GraphOfGroups, elements: list[NormalForm], radius: int = 8
) -> TreeVertex | None:
    """A tree vertex fixed by all given elements, searched outward from the base.

    The subgroup generated by the elements must be finite (else NotFinite);
    returns None when no fixed vertex lies within the given radius.
    """
    _close_finite(g, elements)
    origin = tree_vertex(g, g.basepoint)
    seen = {origin}
    frontier = [origin]
    for _ in range(radius + 1):
        for tv in frontier:
            if all(act(g, x, tv) == tv for x in elements):
                return tv
        nxt = []
        for tv in frontier:
            for _, far in _neighbors(g, tv):
                if far not in seen:
                    seen.add(far)
                    nxt.append(far)
        frontier = sorted(nxt, key=lambda t: (t.vertex_id, t.rep.text()))
        if not frontier:
            break
    return None


def _close_finite(g: GraphOfGroups, elements: list[NormalForm]) -> None:
    """Raise NotFinite unless the elements generate a subgroup of order ≤ the cap."""
    closure = {identity(g)}
    frontier = [identity(g)]
    while frontier:
        nxt = []
        for x in frontier:
            for s in elements:
                y = multiply(x, s)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
                    if len(closure) > MAX_EXHAUSTIVE_ORDER:
                        raise NotFinite(
                            "elements generate a subgroup larger than "
                            f"{MAX_EXHAUSTIVE_ORDER}; treating as infinite"
                        )
        frontier = nxt


def conjugate_finite_into_vertex(
    g: GraphOfGroups, elements: list[NormalForm], radius: int = 8
) -> tuple[NormalForm, str] | None:
    """A conjugator c and vertex id with c⁻¹·⟨elements⟩·c inside that vertex group.

    Uses the fixed vertex of the action; returns None when the search radius
    is exhausted, raises NotFinite for infinite input.
    """
    tv = fixed_vertex(g, elements, radius)
    if tv is None:
        return None
    c = tv.rep
    c_inv = invert(c)
    for x in elements:
        moved = multiply(multiply(c_inv, x), c)
        if not vertex_group_membership(g, tv.vertex_id, moved):
            raise AssertionError(
                f"fixed vertex {tv.text()} does not conjugate {x.text()} into "
                f"the vertex group; this is a bug"
            )
    return c, tv.vertex_id


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

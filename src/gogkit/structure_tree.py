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
    GraphOfGroups,
    NormalForm,
    Word,
    identity,
    invert,
    multiply,
    reduce,
    vertex_element,
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


def _least_coset_rep(g: GraphOfGroups, x: NormalForm, members) -> NormalForm:
    best = None
    for m in members:
        cand = multiply(x, m)
        key = (len(cand.syllables), cand.text())
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def _vertex_group_elements(g: GraphOfGroups, vid: str) -> list[NormalForm]:
    vg = g.vertex_groups[vid]
    if vg.order is None:
        raise NotFinite(f"vertex group at {vid!r} is not a finite table")
    return [vertex_element(g, vid, h) for h in vg.handles()]


def _edge_group_elements(g: GraphOfGroups, eid: str) -> list[NormalForm]:
    d0v = g.graph.d0[eid]
    return [
        vertex_element(g, d0v, g.incl(eid, 0, k)) for k in range(g.edge_groups[eid].order)
    ]


def tree_vertex(g: GraphOfGroups, vid: str, x: NormalForm | None = None) -> TreeVertex:
    """The tree vertex x·𝒢(vid), canonicalized."""
    if x is None:
        x = identity(g)
    if x.owner is not g:
        raise MixedOwners("representative belongs to a different graph of groups")
    return TreeVertex(vid, _least_coset_rep(g, x, _vertex_group_elements(g, vid)))


def tree_edge(g: GraphOfGroups, eid: str, x: NormalForm | None = None) -> TreeEdge:
    """The tree edge x·𝒢(eid), canonicalized."""
    if x is None:
        x = identity(g)
    if x.owner is not g:
        raise MixedOwners("representative belongs to a different graph of groups")
    return TreeEdge(eid, _least_coset_rep(g, x, _edge_group_elements(g, eid)))


def edge_d0(g: GraphOfGroups, E: TreeEdge) -> TreeVertex:
    return tree_vertex(g, g.graph.d0[E.edge_id], E.rep)


def edge_d1(g: GraphOfGroups, E: TreeEdge) -> TreeVertex:
    letter = reduce(g, Word(((LETTER, E.edge_id, 1),)))
    return tree_vertex(g, g.graph.d1[E.edge_id], multiply(E.rep, letter))


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
    """Tree edges at tv with their far endpoints, deduplicated and ordered."""
    out = {}
    v, rep = tv.vertex_id, tv.rep
    for eid in g.graph.incident(v):
        if g.graph.d0[eid] == v:
            for a in _vertex_group_elements(g, v):
                E = tree_edge(g, eid, multiply(rep, a))
                if E not in out:
                    out[E] = edge_d1(g, E)
        if g.graph.d1[eid] == v:
            letter_inv = reduce(g, Word(((LETTER, eid, -1),)))
            for a in _vertex_group_elements(g, v):
                E = tree_edge(g, eid, multiply(multiply(rep, a), letter_inv))
                if E not in out:
                    out[E] = edge_d0(g, E)
    items = sorted(
        out.items(), key=lambda kv: (kv[0].edge_id, len(kv[0].rep.syllables), kv[0].rep.text())
    )
    return items


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


def _close_finite(g: GraphOfGroups, elements: list[NormalForm]) -> list[NormalForm]:
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
    return sorted(closure, key=lambda x: (len(x.syllables), x.text()))


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

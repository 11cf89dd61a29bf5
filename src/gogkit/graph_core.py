"""Finite directed graphs, spanning trees, tree paths, and vertex signs."""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Disconnected, SameVertex, quote

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"


@dataclass(frozen=True)
class FiniteGraph:
    """A finite directed graph; d0/d1 are the initial/terminal vertex maps; no id repeats."""

    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    d0: dict[str, str]
    d1: dict[str, str]
    _incident: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("graph has no vertices")
        for kind, ids in (("vertex", self.vertices), ("edge", self.edges)):
            if len(set(ids)) != len(ids):
                repeat = next(x for i, x in enumerate(ids) if x in ids[:i])
                raise ValueError(f"duplicate {kind} id {repeat!r}")
        incident: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in sorted(self.edges):
            a, b = self.d0.get(e), self.d1.get(e)
            if a is None or b is None:
                raise ValueError(f"edge {e!r} is missing an endpoint map")
            if a not in incident or b not in incident:
                raise ValueError(f"edge {e!r} has an endpoint outside the vertex set")
            incident[a].append(e)
            if b != a:
                incident[b].append(e)
        object.__setattr__(self, "_incident", incident)

    def incident(self, v: str) -> list[str]:
        """Edges touching v, in edge-id order; a loop is listed once."""
        return self._incident.get(v, [])

    def other_end(self, e: str, v: str) -> str:
        """The endpoint of e across from v (v itself for a loop)."""
        return self.d1[e] if self.d0[e] == v else self.d0[e]


@dataclass(frozen=True)
class SpanningTree:
    """|V| − 1 edges of ``graph`` that connect every vertex, checked on construction.

    Such an edge set has no loops or cycles; any other raises ValueError.
    ``parent`` maps each vertex to the tree edge toward the least vertex (the
    root maps to None); tree paths are read off it on each call.
    """

    graph: FiniteGraph
    edges: frozenset[str]
    parent: dict[str, str | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stray = sorted(set(self.edges) - set(self.graph.edges))
        if stray:
            raise ValueError(f"spanning tree edges {quote(stray)} are not edges of the graph")
        n = len(self.graph.vertices)
        if len(self.edges) != n - 1:
            raise ValueError(
                f"spanning tree has the wrong number of edges: {len(self.edges)} for {n} vertices"
            )
        parent = _search(self.graph, min(self.graph.vertices), self.edges)
        if len(parent) != n:
            comps = _components(self.graph, self.edges)
            raise ValueError(f"spanning tree does not connect all vertices: {quote(comps)}")
        object.__setattr__(self, "parent", parent)

    def path(self, v: str, w: str) -> tuple[tuple[str, int], ...]:
        """The unique tree path v → w as (edge, direction) pairs.

        Direction +1 means the edge is crossed from d0 to d1.  The path climbs
        from v and from w toward the root and drops the part the climbs share.
        """
        up, down = [], []
        for x, climb in ((v, up), (w, down)):
            if x not in self.parent:
                raise ValueError(f"{quote(x)} is not a vertex of the spanning tree")
            while (e := self.parent[x]) is not None:
                climb.append((e, 1 if self.graph.d0[e] == x else -1))
                x = self.graph.other_end(e, x)
        while up and down and up[-1] == down[-1]:
            up.pop()
            down.pop()
        return tuple(up + [(e, -direction) for e, direction in reversed(down)])


def _search(g: FiniteGraph, root: str, edges=None) -> dict[str, str | None]:
    """Breadth-first search over ``edges`` (all when None), levels in vertex-id order.

    Maps each vertex reached to the edge that first reached it (the root to None).
    """
    parent: dict[str, str | None] = {root: None}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for e in g.incident(v):
                if edges is not None and e not in edges:
                    continue
                w = g.other_end(e, v)
                if w not in parent:
                    parent[w] = e
                    nxt.append(w)
        frontier = sorted(nxt)
    return parent


def _components(g: FiniteGraph, edges=None) -> list[list[str]]:
    """Connected components, each sorted; only ``edges`` count when given."""
    remaining = set(g.vertices)
    comps = []
    while remaining:
        seen = _search(g, min(remaining), edges)
        comps.append(sorted(seen))
        remaining.difference_update(seen)
    return comps


def spanning_tree(g: FiniteGraph) -> SpanningTree:
    """Breadth-first spanning tree rooted at the least vertex id, ties by edge id."""
    comps = _components(g)
    if len(comps) != 1:
        raise Disconnected(comps)
    return SpanningTree(g, frozenset(_search(g, min(g.vertices)).values()) - {None})


@dataclass(frozen=True)
class SignClassification:
    """Signs of the vertices relative to a base vertex and its exit edge."""

    base_edge: str
    vertex_signs: dict[str, str]


def classify(t: SpanningTree, v: str, w: str) -> SignClassification:
    """Classify vertices relative to v and the first edge toward w.

    A vertex τ is positive when the tree path [v, τ] passes through the base
    edge e (the unique edge of [v, w] at v), that is when it leaves v by e;
    v itself is neutral; the rest are negative.
    """
    if v == w:
        raise SameVertex(f"classification needs two distinct vertices, got {v!r} twice")
    first = t.path(v, w)[0]
    vertex_signs = {
        tau: NEUTRAL if tau == v else POSITIVE if t.path(v, tau)[0] == first else NEGATIVE
        for tau in t.graph.vertices
    }
    return SignClassification(first[0], vertex_signs)

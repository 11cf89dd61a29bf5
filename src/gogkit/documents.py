"""JSON documents describing graphs of groups.

A document carries the graph, one group spec per vertex and edge, inclusion
image arrays, and optional spanning tree and basepoint.  Group specs are the
shorthands understood by :func:`gogkit.finite_group.make_group`, or
``{"gog": {...}}`` for a vertex group presented by a nested document (whose
inclusion images are then word strings instead of element indices), nested at
most ``GOG_NESTING`` levels deep.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import Disconnected, DocumentError, expect, json_path, json_value, member, quote
from .finite_group import FiniteGroup, _shorthand_group, make_group
from .gog import (
    CompositeVertexGroup,
    GraphOfGroups,
    NormalForm,
    inclusion_problems,
    nf,
)
from .graph_core import FiniteGraph, SpanningTree

# Vertex groups nest at most this many {"gog": …} levels; the fixtures nest one.
GOG_NESTING = 16


@dataclass
class GogDocument:
    """A parsed document: the constructed graph of groups, named ``gog.name``."""

    gog: GraphOfGroups


def _table_group_from_spec(spec, path: tuple) -> FiniteGroup:
    try:
        return make_group(spec)
    except ValueError as exc:
        raise DocumentError(f"{json_path(path)}: {exc}") from None


def _images_from_spec(vg, entry: dict, key: str, path: tuple) -> tuple:
    """The handles entry[key] lists: word strings reduced in a nested group, else
    element indices, whose range ``inclusion_problems`` checks."""
    images, path = member(entry, key, list, path), path + (key,)
    if isinstance(vg, CompositeVertexGroup):
        return tuple(nf(vg.sub, expect(h, str, path + (i,))) for i, h in enumerate(images))
    return tuple(expect(h, int, path + (i,)) for i, h in enumerate(images))


def parse_document(data) -> GogDocument:
    """Build a graph of groups from document data (a dict or JSON string).

    Every shape error names its JSON path, and the edge inclusions must pass
    ``inclusion_problems``: DocumentError otherwise.
    """
    return _parse(json_value(data), ())


def _parse(data, path: tuple) -> GogDocument:
    """parse_document on data found at ``path``: the root, a nested vertex
    group or a part of a transcript."""
    expect(data, dict, path)
    at = path + ("graph",)
    graph_data = member(data, "graph", dict, path)
    vertex_groups: dict[str, object] = {}
    for i, entry in enumerate(member(graph_data, "vertices", list, at)):
        where = at + ("vertices", i)
        vid = member(expect(entry, dict, where), "id", str, where)
        if vid in vertex_groups:
            raise DocumentError(f"duplicate vertex id {quote(vid)}")
        spec = member(entry, "group", object, where)
        if isinstance(spec, dict) and "gog" in spec:
            if path.count("gog") >= GOG_NESTING:
                raise DocumentError(f"vertex groups nest deeper than {GOG_NESTING} levels")
            sub = _parse(spec["gog"], where + ("group", "gog")).gog
            vertex_groups[vid] = CompositeVertexGroup(sub)
        else:
            vertex_groups[vid] = _table_group_from_spec(spec, where + ("group",))

    d0: dict[str, str] = {}
    d1: dict[str, str] = {}
    edge_groups: dict[str, FiniteGroup] = {}
    inclusions: dict[str, tuple] = {}
    for i, entry in enumerate(member(graph_data, "edges", list, at)):
        where = at + ("edges", i)
        eid = member(expect(entry, dict, where), "id", str, where)
        if eid in d0:
            raise DocumentError(f"duplicate edge id {quote(eid)}")
        d0[eid], d1[eid] = member(entry, "from", str, where), member(entry, "to", str, where)
        spec = member(entry, "group", object, where)
        if isinstance(spec, dict) and "gog" in spec:
            raise DocumentError(f"edge {eid!r}: edge groups must be finite tables")
        edge_groups[eid] = _table_group_from_spec(spec, where + ("group",))
        inclusions[eid] = (
            _images_from_spec(vertex_groups.get(d0[eid]), entry, "d0_images", where),
            _images_from_spec(vertex_groups.get(d1[eid]), entry, "d1_images", where),
        )

    tree = None
    if "spanning_tree" in data:
        chosen = member(data, "spanning_tree", list, path)
        tree = frozenset(expect(e, str, path + ("spanning_tree", i)) for i, e in enumerate(chosen))
        if len(tree) != len(chosen):
            raise DocumentError("spanning_tree lists an edge twice")
    name = expect(data.get("name", ""), str, path + ("name",))
    try:
        graph = FiniteGraph(tuple(vertex_groups), tuple(d0), d0, d1)
        gog = GraphOfGroups(
            graph, vertex_groups, edge_groups, inclusions,
            tree=None if tree is None else SpanningTree(graph, tree),
            basepoint=data.get("basepoint"), name=name,
        )
    except (ValueError, Disconnected) as exc:
        raise DocumentError(str(exc)) from None
    for problem in inclusion_problems(gog):
        raise DocumentError(f"{json_path(path)}: {problem}" if path else problem)
    return GogDocument(gog)


_SHORTHAND_RE = re.compile(r"^([CDS])(\d+)$")
_SHORTHAND_KIND = {"C": "cyclic", "D": "dihedral", "S": "symmetric"}


def _group_spec(group: FiniteGroup):
    """The shorthand when the group's name gives one with its table, else the table."""
    m = _SHORTHAND_RE.match(group.name or "")
    if m:
        kind, n = _SHORTHAND_KIND[m.group(1)], int(m.group(2))
        try:
            if _shorthand_group(kind, n).table == group.table:
                return f"{kind} {n}"
        except ValueError:
            pass  # no such group, as C0, or one over the order cap
    spec = {"table": [list(row) for row in group.table]}
    if group.labels is not None:
        spec["labels"] = list(group.labels)
    if group.name:
        spec["name"] = group.name
    return spec


def document_data(g: GraphOfGroups) -> dict:
    """Serialize a graph of groups back to document data, named ``g.name``."""
    vertices = []
    for vid in g.graph.vertices:
        vg = g.vertex_groups[vid]
        if isinstance(vg, CompositeVertexGroup):
            spec = {"gog": document_data(vg.sub)}
        else:
            spec = _group_spec(vg.group)
        vertices.append({"id": vid, "group": spec})
    edges = []
    for eid in g.graph.edges:
        entry = {
            "id": eid,
            "from": g.graph.d0[eid],
            "to": g.graph.d1[eid],
            "group": _group_spec(g.edge_groups[eid]),
        }
        for key, side in (("d0_images", 0), ("d1_images", 1)):
            images = []
            for h in g.inclusions[eid][side]:
                images.append(h.text() if isinstance(h, NormalForm) else h)
            entry[key] = images
        edges.append(entry)
    return {
        "name": g.name,
        "graph": {"vertices": vertices, "edges": edges},
        "spanning_tree": sorted(g.tree.edges),
        "basepoint": g.basepoint,
    }


def document_to_json(g: GraphOfGroups) -> str:
    return json.dumps(document_data(g), indent=2) + "\n"


def load_document(path: str) -> GogDocument:
    """Read and parse a *.gog.json file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return parse_document(text)


def save_document(g: GraphOfGroups, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_to_json(g))

"""JSON documents describing graphs of groups.

A document carries the graph, one group spec per vertex and edge, inclusion
image arrays, and optional spanning tree and basepoint.  Group specs are the
shorthands understood by :func:`gogkit.finite_group.make_group`, or
``{"gog": {...}}`` for a vertex group presented by a nested document (whose
inclusion images are then word strings instead of element indices).
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import Disconnected, DocumentError
from .finite_group import FiniteGroup, make_group
from .gog import (
    CompositeVertexGroup,
    GraphOfGroups,
    NormalForm,
    TableVertexGroup,
    nf,
)
from .graph_core import FiniteGraph, SpanningTree
from .graph_core import spanning_tree as build_spanning_tree


@dataclass
class GogDocument:
    """A parsed document: its name, raw data, and the constructed graph of groups."""

    name: str
    data: dict
    gog: GraphOfGroups


def _vertex_group_from_spec(spec) -> object:
    if isinstance(spec, dict) and "gog" in spec:
        return CompositeVertexGroup(parse_document(spec["gog"]).gog)
    return TableVertexGroup(_table_group_from_spec(spec))


def _table_group_from_spec(spec) -> FiniteGroup:
    try:
        return make_group(spec)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def _images_from_spec(vg, images, where: str):
    out = []
    for item in images:
        if isinstance(vg, CompositeVertexGroup):
            if not isinstance(item, str):
                raise DocumentError(
                    f"{where}: images into a nested group must be word strings"
                )
            out.append(nf(vg.sub, item))
        else:
            if not isinstance(item, int):
                raise DocumentError(f"{where}: images must be element indices")
            if not 0 <= item < vg.group.order:
                raise DocumentError(f"{where}: element index {item} out of range")
            out.append(item)
    return tuple(out)


def parse_document(data) -> GogDocument:
    """Build a graph of groups from document data (a dict or JSON string)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    if "graph" not in data:
        raise DocumentError("document is missing the 'graph' section")
    graph_data = data["graph"]
    if not isinstance(graph_data, dict):
        raise DocumentError("the 'graph' section must be an object")
    for key in ("vertices", "edges"):
        if key not in graph_data:
            raise DocumentError(f"graph section is missing {key!r}")
        if not isinstance(graph_data[key], list):
            raise DocumentError(f"graph {key!r} must be a list")

    vertex_groups: dict[str, object] = {}
    vertex_ids: list[str] = []
    for entry in graph_data["vertices"]:
        if not isinstance(entry, dict) or "id" not in entry or "group" not in entry:
            raise DocumentError("each vertex needs 'id' and 'group'")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise DocumentError(f"vertex id {vid!r} must be a string")
        if vid in vertex_groups:
            raise DocumentError(f"duplicate vertex id {vid!r}")
        vertex_ids.append(vid)
        vertex_groups[vid] = _vertex_group_from_spec(entry["group"])

    edge_ids: list[str] = []
    d0: dict[str, str] = {}
    d1: dict[str, str] = {}
    edge_groups: dict[str, FiniteGroup] = {}
    raw_images: dict[str, tuple] = {}
    for entry in graph_data["edges"]:
        for key in ("id", "from", "to", "group", "d0_images", "d1_images"):
            if not isinstance(entry, dict) or key not in entry:
                raise DocumentError(f"each edge needs {key!r}")
        eid = entry["id"]
        if not all(isinstance(entry[key], str) for key in ("id", "from", "to")):
            raise DocumentError(f"edge {eid!r}: 'id', 'from' and 'to' must be strings")
        if eid in d0:
            raise DocumentError(f"duplicate edge id {eid!r}")
        if entry["from"] not in vertex_groups or entry["to"] not in vertex_groups:
            raise DocumentError(f"edge {eid!r} references an unknown vertex")
        if not all(isinstance(entry[key], list) for key in ("d0_images", "d1_images")):
            raise DocumentError(f"edge {eid!r}: image arrays must be lists")
        edge_ids.append(eid)
        d0[eid] = entry["from"]
        d1[eid] = entry["to"]
        if isinstance(entry["group"], dict) and "gog" in entry["group"]:
            raise DocumentError(f"edge {eid!r}: edge groups must be finite tables")
        edge_groups[eid] = _table_group_from_spec(entry["group"])
        raw_images[eid] = (entry["d0_images"], entry["d1_images"])

    try:
        graph = FiniteGraph(tuple(vertex_ids), tuple(edge_ids), d0, d1)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    inclusions = {}
    for eid in edge_ids:
        raw0, raw1 = raw_images[eid]
        n = edge_groups[eid].order
        if len(raw0) != n or len(raw1) != n:
            raise DocumentError(f"edge {eid!r}: image arrays must have length {n}")
        inclusions[eid] = (
            _images_from_spec(vertex_groups[d0[eid]], raw0, f"edge {eid!r} d0_images"),
            _images_from_spec(vertex_groups[d1[eid]], raw1, f"edge {eid!r} d1_images"),
        )

    if "spanning_tree" in data:
        chosen = data["spanning_tree"]
        if (
            not isinstance(chosen, list)
            or not all(isinstance(e, str) and e in d0 for e in chosen)
            or len(set(chosen)) != len(chosen)
        ):
            raise DocumentError("spanning_tree must list edge ids, each once")
        try:
            tree = SpanningTree(graph, frozenset(chosen))
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
    else:
        try:
            tree = build_spanning_tree(graph)
        except Disconnected as exc:
            raise DocumentError(str(exc)) from None

    basepoint = data.get("basepoint")
    if basepoint is not None and basepoint not in vertex_ids:
        raise DocumentError(f"basepoint {basepoint!r} is not a vertex")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise DocumentError(f"document 'name' must be a string, got {name!r}")
    gog = GraphOfGroups(
        graph, vertex_groups, edge_groups, inclusions, tree=tree,
        basepoint=basepoint, name=name,
    )
    return GogDocument(name=name, data=data, gog=gog)


_SHORTHAND_RE = re.compile(r"^([CDS])(\d+)$")
_SHORTHAND_KIND = {"C": "cyclic", "D": "dihedral", "S": "symmetric"}


def _group_spec(group: FiniteGroup):
    m = _SHORTHAND_RE.match(group.name or "")
    if m:
        n = int(m.group(2))
        return f"{_SHORTHAND_KIND[m.group(1)]} {n}"
    spec = {"table": [list(row) for row in group.table]}
    if group.labels is not None:
        spec["labels"] = list(group.labels)
    if group.name:
        spec["name"] = group.name
    return spec


def document_data(g: GraphOfGroups, name: str | None = None) -> dict:
    """Serialize a graph of groups back to document data."""
    vertices = []
    for vid in g.graph.vertices:
        vg = g.vertex_groups[vid]
        if isinstance(vg, CompositeVertexGroup):
            spec = {"gog": document_data(vg.sub, name=vg.sub.name)}
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
        "name": name if name is not None else g.name,
        "graph": {"vertices": vertices, "edges": edges},
        "spanning_tree": sorted(g.tree.edges),
        "basepoint": g.basepoint,
    }


def document_to_json(g: GraphOfGroups, name: str | None = None) -> str:
    return json.dumps(document_data(g, name=name), indent=2) + "\n"


def load_document(path: str) -> GogDocument:
    """Read and parse a *.gog.json file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return parse_document(text)


def save_document(g: GraphOfGroups, path: str, name: str | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_to_json(g, name=name))

"""Document parsing, serialization round trips, and schema error messages."""
import json
import re

import pytest

from gogkit.documents import (
    GOG_NESTING,
    document_data,
    load_document,
    parse_document,
    save_document,
)
from gogkit.errors import DocumentError
from gogkit.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from gogkit.gog import ball, nf


def base_doc() -> dict:
    return json.loads(fixture_text("c4c6"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_is_stable(name):
    g = load_fixture(name)
    data = document_data(g)
    again = parse_document(data).gog
    assert document_data(again) == data


def test_round_trip_preserves_word_problem():
    g = load_fixture("c4c6")
    again = parse_document(document_data(g)).gog
    assert [x.text() for x in ball(g, 2)] == [x.text() for x in ball(again, 2)]


def test_composite_round_trip_keeps_word_images():
    data = document_data(load_fixture("expand_demo"))
    (vertex,) = [v for v in data["graph"]["vertices"] if v["id"] == "m"]
    assert "gog" in vertex["group"]
    (edge,) = data["graph"]["edges"]
    assert edge["d1_images"] == ["1", "u:g1"]
    again = parse_document(data).gog
    assert nf(again, "m:{u:g1}").text() == "z:g1"


KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_a_shorthand_name_is_written_only_with_its_table():
    klein = base_doc()
    klein["graph"]["vertices"][0]["group"] = {"table": KLEIN, "name": "C4"}
    klein["graph"]["edges"][0]["d0_images"] = [0, 1]
    trivial = {"graph": {"vertices": [{"id": "v", "group": {"table": [[0]], "name": "C0"}}],
                         "edges": []}}
    for data in (klein, trivial):
        g = parse_document(data).gog
        written = document_data(g)
        assert written["graph"]["vertices"][0]["group"] == data["graph"]["vertices"][0]["group"]
        again = parse_document(written).gog
        for vid in g.graph.vertices:
            assert again.vertex_groups[vid].group.table == g.vertex_groups[vid].group.table
        for eid in g.graph.edges:
            assert again.edge_groups[eid].table == g.edge_groups[eid].table
    assert document_data(load_fixture("c4c6"))["graph"]["vertices"][0]["group"] == "cyclic 4"


def test_parse_rejects_invalid_json():
    with pytest.raises(DocumentError, match="invalid JSON"):
        parse_document("{nope")


def test_parse_rejects_non_object():
    with pytest.raises(DocumentError, match=re.escape("the top level must be an object, got [1, 2]")):
        parse_document("[1, 2]")


def test_missing_graph_section():
    with pytest.raises(DocumentError, match="^graph is missing$"):
        parse_document({"name": "x"})


def test_missing_edges_key():
    doc = base_doc()
    del doc["graph"]["edges"]
    with pytest.raises(DocumentError, match="^graph.edges is missing$"):
        parse_document(doc)


def test_vertex_needs_id_and_group():
    doc = base_doc()
    del doc["graph"]["vertices"][0]["group"]
    with pytest.raises(DocumentError, match=re.escape("graph.vertices[0].group is missing")):
        parse_document(doc)


def test_duplicate_vertex_id():
    doc = base_doc()
    doc["graph"]["vertices"].append({"id": "v", "group": "cyclic 2"})
    with pytest.raises(DocumentError, match="duplicate vertex id 'v'"):
        parse_document(doc)


def test_duplicate_edge_id():
    doc = base_doc()
    doc["graph"]["edges"].append(dict(doc["graph"]["edges"][0]))
    with pytest.raises(DocumentError, match="duplicate edge id 'e'"):
        parse_document(doc)


def test_edge_with_unknown_endpoint():
    doc = base_doc()
    doc["graph"]["edges"][0]["to"] = "zz"
    with pytest.raises(DocumentError, match="edge 'e' has an endpoint outside the vertex set"):
        parse_document(doc)


def test_edge_missing_images():
    doc = base_doc()
    del doc["graph"]["edges"][0]["d1_images"]
    with pytest.raises(DocumentError, match=re.escape("graph.edges[0].d1_images is missing")):
        parse_document(doc)


def test_edge_group_cannot_be_nested():
    doc = base_doc()
    doc["graph"]["edges"][0]["group"] = {"gog": base_doc()}
    with pytest.raises(DocumentError, match="edge groups must be finite tables"):
        parse_document(doc)


def test_unknown_group_spec_is_a_document_error():
    doc = base_doc()
    doc["graph"]["vertices"][0]["group"] = "waffle 3"
    with pytest.raises(DocumentError):
        parse_document(doc)


def test_an_inclusion_that_is_not_a_homomorphism_is_refused():
    # At the top level the line is the bare problem; a nested one names its path.
    bad = base_doc()
    bad["graph"]["edges"][0]["d0_images"] = [0, 1]
    nested = {"graph": {"vertices": [{"id": "m", "group": {"gog": bad}}], "edges": []}}
    problem = "edge 'e' side 0: not a homomorphism on pair (1,1)"
    for data, prefix in ((bad, ""), (nested, "graph.vertices[0].group.gog: ")):
        with pytest.raises(DocumentError, match=f"^{re.escape(prefix + problem)}$"):
            parse_document(data)


def test_a_nested_inclusion_that_is_not_a_homomorphism_is_refused():
    # 1 ↦ u, 2 ↦ w in C2 ∗ C2: the image of 1 + 1 = 2 is w, not u·u = 1.
    doc = json.loads(fixture_text("expand_demo"))
    doc["graph"]["vertices"][0]["group"] = "cyclic 4"
    edge = doc["graph"]["edges"][0]
    edge.update(group="cyclic 4", d0_images=[0, 1, 2, 3],
                d1_images=["1", "u:g1", "w:g1", "u:g1 * w:g1"])
    problem = "edge 'e0' side 1: not a homomorphism on pair (1,1)"
    with pytest.raises(DocumentError, match=f"^{re.escape(problem)}$"):
        parse_document(doc)


def test_an_empty_cyclic_group_is_a_document_error_naming_its_path():
    doc = base_doc()
    doc["graph"]["vertices"][1]["group"] = "cyclic 0"
    message = "graph.vertices[1].group: cyclic parameter must be >= 1"
    with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
        parse_document(doc)


def test_image_array_length_checked():
    doc = base_doc()
    doc["graph"]["edges"][0]["d0_images"] = [0]
    with pytest.raises(DocumentError, match="must have length 2"):
        parse_document(doc)


def test_image_index_range_checked():
    doc = base_doc()
    doc["graph"]["edges"][0]["d1_images"] = [0, 9]
    with pytest.raises(DocumentError, match="edge 'e' side 1: image 9 not in group at 'w'"):
        parse_document(doc)


def test_table_images_must_be_indices():
    doc = base_doc()
    doc["graph"]["edges"][0]["d1_images"] = [0, "w:g3"]
    message = "graph.edges[0].d1_images[1] must be an integer, got 'w:g3'"
    with pytest.raises(DocumentError, match=re.escape(message)):
        parse_document(doc)


def test_composite_images_must_be_words():
    doc = json.loads(fixture_text("expand_demo"))
    doc["graph"]["edges"][0]["d1_images"] = [0, 1]
    message = "graph.edges[0].d1_images[0] must be a string, got 0"
    with pytest.raises(DocumentError, match=re.escape(message)):
        parse_document(doc)


def test_spanning_tree_must_list_edge_ids():
    doc = base_doc()
    doc["spanning_tree"] = ["zz"]
    message = "spanning tree edges ['zz'] are not edges of the graph"
    with pytest.raises(DocumentError, match=re.escape(message)):
        parse_document(doc)


def test_spanning_tree_size_checked():
    doc = json.loads(fixture_text("c4c2c4"))
    doc["spanning_tree"] = ["e1"]
    with pytest.raises(DocumentError, match="wrong number of edges"):
        parse_document(doc)


def test_spanning_tree_must_connect():
    doc = json.loads(fixture_text("c4c2c4"))
    extra = dict(doc["graph"]["edges"][0])
    extra["id"] = "e1b"
    doc["graph"]["edges"].append(extra)
    doc["spanning_tree"] = ["e1", "e1b"]
    with pytest.raises(DocumentError, match="does not connect all vertices"):
        parse_document(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["graph"]["edges"][0].update(d0_images=5),
         re.escape("graph.edges[0].d0_images must be a list, got 5")),
        (lambda d: d["graph"].update(vertices=5), "graph.vertices must be a list, got 5"),
        (lambda d: d.update(graph=5), "graph must be an object, got 5"),
        (lambda d: d["graph"]["vertices"].__setitem__(0, 5),
         re.escape("graph.vertices[0] must be an object, got 5")),
        (lambda d: d["graph"]["vertices"][0].update(id=["v"]),
         re.escape("graph.vertices[0].id must be a string, got ['v']")),
        (lambda d: d["graph"]["edges"][0].update({"from": ["v"]}),
         re.escape("graph.edges[0].from must be a string, got ['v']")),
        (lambda d: d.update(spanning_tree=[["e"]]),
         re.escape("spanning_tree[0] must be a string, got ['e']")),
        (lambda d: d.update(basepoint=["v"]), re.escape("basepoint ['v'] is not a vertex")),
        (lambda d: d["graph"]["vertices"][0].update(group={"table": 5}),
         re.escape("graph.vertices[0].group: group spec 'table' must be a list of lists")),
        (lambda d: d["graph"]["edges"][0].update(group={"product": 5}),
         re.escape("graph.edges[0].group: group spec 'product' must be a list of specs")),
        (
            lambda d: d["graph"]["edges"][0].update(group={"table": [[0, 1], [1, 0]], "labels": 5}),
            re.escape("graph.edges[0].group: group spec 'labels' must be a list of one string per element"),
        ),
        (
            lambda d: d["graph"]["edges"][0].update(group={"table": [[0]], "labels": ["a", "b"]}),
            re.escape("graph.edges[0].group: group spec 'labels' must be a list of one string per element"),
        ),
        (
            lambda d: d["graph"]["vertices"][0].update(group={"table": [[0]], "name": 5}),
            re.escape("graph.vertices[0].group: group spec 'name' must be a string, got 5"),
        ),
        (lambda d: d.update(name=5), "^name must be a string, got 5$"),
        (lambda d: d["graph"]["edges"][0].update(d0_images=[False, 2]),
         re.escape("graph.edges[0].d0_images[0] must be an integer, got False")),
        (lambda d: d["graph"]["edges"][0].update(group={"table": [[False, True], [True, False]]}),
         re.escape("graph.edges[0].group: group spec 'table' entries must be integers")),
        (lambda d: d["graph"]["edges"][0].update(group={"table": [[0.0, 1.0], [1.0, 0.0]]}),
         re.escape("graph.edges[0].group: group spec 'table' entries must be integers")),
    ],
    ids=[
        "images", "vertices", "graph", "vertex", "vertex-id", "edge-end", "tree", "basepoint",
        "table-spec", "product-spec", "labels-not-list", "labels-wrong-length", "group-name",
        "document-name", "image-bool", "table-bool", "table-float",
    ],
)
def test_wrongly_typed_fields_raise_document_error(mutate, message):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(DocumentError, match=message):
        parse_document(doc)


@pytest.mark.parametrize("tree", [None, []], ids=["built-tree", "given-tree"])
def test_graph_with_no_vertices_raises_document_error(tree):
    doc = base_doc()
    doc["graph"].update(vertices=[], edges=[])
    doc.pop("spanning_tree")
    if tree is not None:
        doc["spanning_tree"] = tree
    with pytest.raises(DocumentError, match="graph has no vertices"):
        parse_document(doc)


def test_basepoint_must_exist():
    doc = base_doc()
    doc["basepoint"] = "zz"
    with pytest.raises(DocumentError, match="basepoint 'zz' is not a vertex"):
        parse_document(doc)


def test_vertex_groups_nest_at_most_the_cap():
    # The fixtures, and every other document the tests load, nest one level at most.
    doc = {"graph": {"vertices": [{"id": "v", "group": "cyclic 2"}], "edges": []}}
    for _ in range(GOG_NESTING):
        doc = {"graph": {"vertices": [{"id": "v", "group": {"gog": doc}}], "edges": []}}
    g = parse_document(doc).gog
    for _ in range(GOG_NESTING):
        g = g.vertex_groups["v"].sub
    assert g.vertex_groups["v"].group.order == 2
    deeper = {"graph": {"vertices": [{"id": "v", "group": {"gog": doc}}], "edges": []}}
    with pytest.raises(DocumentError, match=f"nest deeper than {GOG_NESTING} levels$"):
        parse_document(deeper)


def test_save_and_load_files(tmp_path):
    path = tmp_path / "copy.gog.json"
    save_document(load_fixture("c6hnn"), str(path))
    doc = load_document(str(path))
    assert doc.gog.name == "c6hnn"
    assert sorted(doc.gog.graph.edges) == ["t"]


def test_load_missing_file():
    with pytest.raises(DocumentError, match="cannot read"):
        load_document("/no/such/file.gog.json")

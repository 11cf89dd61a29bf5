"""End-to-end command tests: output text and the 0/1/2/3 exit-code contract."""
import json

import pytest

from gogkit import cli, finite_group
from gogkit.fixtures import fixture_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_fixture_ok(capsys):
    code, out, _ = run(capsys, "validate", "c4c6")
    assert code == 0
    assert out.startswith("ok")


def test_validate_rejects_non_homomorphic_inclusion(capsys, tmp_path):
    doc = json.loads(fixture_text("c4c6"))
    doc["graph"]["edges"][0]["d1_images"] = [0, 2]
    bad = tmp_path / "bad.gog.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "not a homomorphism" in out + err
    assert "(1,1)" in out + err


@pytest.mark.parametrize("command", [["eq", "--w1", "v:g2", "--w2", "1"], ["validate"]],
                         ids=["eq", "validate"])
def test_every_command_refuses_an_inclusion_that_is_not_a_homomorphism(capsys, tmp_path, command):
    # The involution of C2 goes to a, of order 4: the document presents a group
    # with a² = 1, where v:g2 = 1.
    doc = json.loads(fixture_text("c4c6"))
    doc["graph"]["edges"][0]["d0_images"] = [0, 1]
    bad = tmp_path / "bad.gog.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out, err) == (2, "", "error: edge 'e' side 0: not a homomorphism on pair (1,1)\n")


@pytest.mark.parametrize("command, mutate, error", [
    (["nf", "--word", "w:g1 * u:g1"],
     lambda d: d["graph"]["edges"][0].update(d0_images=[0, True]),
     "graph.edges[0].d0_images[1] must be an integer, got True"),
    (["ball", "--radius", "1"],
     lambda d: d["graph"]["vertices"][1].update(group={"table": [[False, True], [True, False]]}),
     "graph.vertices[1].group: group spec 'table' entries must be integers"),
    (["validate"],
     lambda d: d["graph"]["vertices"][1].update(group={"table": [[0.0, 1.0], [1.0, 0.0]]}),
     "graph.vertices[1].group: group spec 'table' entries must be integers"),
], ids=["nf-bool-image", "ball-bool-table", "validate-float-table"])
def test_commands_refuse_handles_that_are_not_json_integers(
    capsys, tmp_path, command, mutate, error
):
    # c4c2c4's middle vertex m is C2, so a two-element table fits its inclusions.
    doc = json.loads(fixture_text("c4c2c4"))
    mutate(doc)
    bad = tmp_path / "bad.gog.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], str(bad), *command[1:])
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_validate_unknown_reference(capsys):
    code, _, err = run(capsys, "validate", "no_such_fixture")
    assert code == 2
    assert "error:" in err


def test_validate_wrongly_typed_document_exits_2(capsys, tmp_path):
    doc = json.loads(fixture_text("c4c6"))
    doc["graph"]["edges"][0]["d0_images"] = 5
    bad = tmp_path / "bad.gog.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err == "error: graph.edges[0].d0_images must be a list, got 5\n"


def test_validate_malformed_group_spec_exits_2(capsys, tmp_path):
    doc = json.loads(fixture_text("c4c6"))
    doc["graph"]["vertices"][0]["group"] = {"table": 5}
    bad = tmp_path / "bad.gog.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err == "error: graph.vertices[0].group: group spec 'table' must be a list of lists\n"


@pytest.mark.parametrize("command, options", [
    (["validate"], []),
    (["surgery", "reverse"], ["--edge", "e", "--out", "x.gog.json"]),
], ids=["validate", "surgery-reverse"])
def test_a_group_name_that_is_not_a_string_exits_2(capsys, tmp_path, monkeypatch, command, options):
    doc = json.loads(fixture_text("c4c6"))
    c4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    doc["graph"]["vertices"][0]["group"] = {"table": c4, "name": 5}
    bad = tmp_path / "bad.gog.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command, str(bad), *options)
    assert (code, out, err) == (2, "", (
        "error: graph.vertices[0].group: group spec 'name' must be a string, got 5\n"
    ))


def test_validate_refuses_a_group_over_the_order_cap(capsys, tmp_path, monkeypatch):
    def refuse(n):
        raise AssertionError("the table was built")

    monkeypatch.setattr(finite_group, "_cyclic", refuse)
    doc = {
        "name": "big",
        "graph": {"vertices": [{"id": "v", "group": "cyclic 30000"}], "edges": []},
        "spanning_tree": [],
        "basepoint": "v",
    }
    bad = tmp_path / "big.gog.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "'cyclic 30000' has more than 720 elements" in err


def test_nf_identity_example(capsys):
    code, out, _ = run(capsys, "nf", "c4c6", "--word", "v:g2 * w:g3")
    assert code == 0
    assert out.strip() == "1"


def test_nf_malformed_word(capsys):
    code, _, err = run(capsys, "nf", "c4c6", "--word", "v:g9")
    assert code == 2
    assert "error:" in err


def test_eq_reports_both_outcomes(capsys):
    code, out, _ = run(capsys, "eq", "c4c6", "--w1", "v:g2", "--w2", "w:g3")
    assert code == 0 and out.strip() == "equal: v:g2"
    code, out, _ = run(capsys, "eq", "c4c6", "--w1", "v:g1", "--w2", "w:g3")
    assert code == 0 and out.strip() == "different: v:g1 vs v:g2"


def test_ball_counts_and_lists(capsys):
    code, out, _ = run(capsys, "ball", "c4c6", "--radius", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "16 elements (radius 2)"
    assert lines[1] == "1"
    assert len(lines) == 17


def test_deriv_build_eval_round_trip(capsys, tmp_path):
    path = tmp_path / "f.deriv.json"
    code, out, _ = run(
        capsys, "deriv", "dunwoody", "c4c6",
        "--base", "v", "--target", "w", "--mod", "5", "--out", str(path),
    )
    assert code == 0
    assert f"wrote {path}" in out
    code, out, _ = run(
        capsys, "deriv", "eval", "c4c6", "--deriv", str(path), "--word", "w:g1"
    )
    assert code == 0
    assert out.strip() == "component 0: 4·[1] + 4·[v:g2] + 1·[w:g1] + 1·[w:g1 * v:g2]"


def test_deriv_eval_rejects_unglued_derivation(capsys, tmp_path):
    path = tmp_path / "bad.deriv.json"
    path.write_text(json.dumps(
        {"mod": 5, "components": [{"values": {"v:g2": [{"word": "1", "coeff": 1}]}}]}
    ))
    code, _, err = run(capsys, "deriv", "eval", "c4c6", "--deriv", str(path), "--word", "w:g1")
    assert code == 2
    assert "gluing condition fails on edge 'e'" in err


@pytest.mark.parametrize("data, error", [
    ({"mod": 5, "components": "x"},
     "components must be a list, got 'x'"),
    ({"mod": 5, "components": [{"values": {"v:g1": 7}}]},
     "components[0].values['v:g1'] must be a list, got 7"),
    ({"mod": 5, "components": [{"values": {"v:g1": [{"word": "1"}]}}]},
     "components[0].values['v:g1'][0].coeff is missing"),
    ({"mod": 5, "components": [{"values": {"v:g1": [{"word": "1", "coeff": True}]}}]},
     "components[0].values['v:g1'][0].coeff must be an integer, got True"),
], ids=["components-not-list", "value-not-list", "term-without-coeff", "coeff-bool"])
def test_deriv_eval_rejects_malformed_files(capsys, tmp_path, data, error):
    path = tmp_path / "bad.deriv.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "deriv", "eval", "c6hnn", "--deriv", str(path), "--word", "v:g1")
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("command", [
    ["deriv", "eval", "c4c6", "--deriv", "FILE", "--word", "w:g1"],
    ["quotient", "refine", "c4c6", "--subgraph", "v", "--given", "FILE"],
    ["validate", "FILE"],
], ids=["deriv-eval", "quotient-refine", "validate"])
def test_commands_name_files_that_are_not_json(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, out, err = run(capsys, *(str(path) if arg == "FILE" else arg for arg in command))
    assert (code, out, err) == (2, "", "error: invalid JSON: Expecting value: line 1 column 1 (char 0)\n")


def nested_document(levels: int) -> str:
    """A one-vertex document whose vertex group nests ``levels`` documents deep."""
    text = '"cyclic 2"'
    for _ in range(levels):
        text = '{"gog": {"graph": {"vertices": [{"id": "v", "group": %s}], "edges": []}}}' % text
    return '{"graph": {"vertices": [{"id": "v", "group": %s}], "edges": []}}' % text


@pytest.mark.parametrize("text", ["[" * 1000, nested_document(200)],
                         ids=["1000-brackets", "200-documents"])
@pytest.mark.parametrize("command", [
    ["deriv", "eval", "c4c6", "--deriv", "FILE", "--word", "w:g1"],
    ["quotient", "refine", "c4c6", "--subgraph", "v", "--given", "FILE"],
    ["validate", "FILE"],
], ids=["deriv-eval", "quotient-refine", "validate"])
def test_commands_refuse_json_nested_too_deeply(capsys, tmp_path, command, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, *(str(path) if arg == "FILE" else arg for arg in command))
    assert (code, out, err) == (2, "", "error: invalid JSON: nested too deeply\n")


@pytest.mark.parametrize("value", [
    "[" * 600 + "]" * 600, json.dumps(list(range(3000))), json.dumps("x" * 5000),
], ids=["600-levels", "3000-items", "5000-chars"])
def test_error_lines_quote_a_bad_value_briefly(capsys, tmp_path, value):
    # A 600-level list was once quoted whole: an error line longer than the file.
    path = tmp_path / "bad.gog.json"
    path.write_text('{"graph": %s}' % value)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: graph must be an object, got ")
    assert err.count("\n") == 1 and len(err) < 260


def _with_long_values(case: str) -> dict:
    """A document whose one fault quotes a value of tens of thousands of characters."""
    doc = json.loads(fixture_text("expand_demo" if case in ("braces", "vertex") else "c4c6"))
    vertices, edges = doc["graph"]["vertices"], doc["graph"]["edges"]
    if case == "vertex id":
        vertices[:] = [{"id": "v" * 50_000, "group": "cyclic 2"}] * 2
    elif case == "edge id":
        edges[:] = [dict(edges[0], id="e" * 50_000)] * 2
    elif case == "braces":
        edges[0]["d1_images"][1] = "{" * 140_000
    elif case == "vertex":
        edges[0]["d1_images"][1] = "q" * 50_000 + ":g1"
    elif case == "shorthand":
        vertices[0]["group"] = "x" * 60_000
    elif case == "kind":
        vertices[0]["group"] = "x" * 60_000 + " 3"
    elif case == "spec":
        vertices[0]["group"] = {"cyclic": list(range(20_000))}
    elif case == "name":
        vertices[0]["group"] = {"table": [[0]], "name": list(range(20_000))}
    elif case == "basepoint":
        doc["basepoint"] = "b" * 50_000
    elif case == "inclusion":
        edges[0].update(id="e" * 50_000, d1_images=[0, 2])
        doc["spanning_tree"] = ["e" * 50_000]
    elif case == "tree edges":
        doc["spanning_tree"] = ["x" * 50_000]
    return doc


@pytest.mark.parametrize("case, start", [
    ("vertex id", "duplicate vertex id 'vvv"),
    ("edge id", "duplicate edge id 'eee"),
    ("braces", "unbalanced braces in '{{{"),
    ("vertex", "unknown vertex 'qqq"),
    ("shorthand", "graph.vertices[0].group: unrecognized group shorthand: 'xxx"),
    ("kind", "graph.vertices[0].group: unrecognized group shorthand: xxx"),
    ("spec", "graph.vertices[0].group: unrecognized group spec: {'cyclic': [0, 1, 2,"),
    ("name", "graph.vertices[0].group: group spec 'name' must be a string, got [0, 1,"),
    ("basepoint", "basepoint 'bbb"),
    ("inclusion", "edge 'eee"),
    ("tree edges", "spanning tree edges ['xxx"),
])
def test_error_lines_outside_expect_quote_a_long_value_briefly(capsys, tmp_path, case, start):
    # Each was once quoted whole: 50 to 140 KB on one error line.  The unknown
    # vertex line quotes two values, the vertex id and its syllable.
    path = tmp_path / "long.gog.json"
    path.write_text(json.dumps(_with_long_values(case)))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + start)
    assert err.count("\n") == 1 and len(err.encode()) < (600 if case == "vertex" else 400)


def test_quotient_refine_rejects_a_given_file_without_target(capsys, tmp_path):
    path = tmp_path / "given.quot.json"
    path.write_text(json.dumps({"vertex_images": {"v": [0, 1, 2, 3]}, "letter_images": {}}))
    code, out, err = run(
        capsys, "quotient", "refine", "c4c6", "--subgraph", "v", "--given", str(path)
    )
    assert (code, out, err) == (2, "", "error: target is missing\n")


def test_deriv_unknown_base_vertex_exits_2(capsys):
    code, out, err = run(
        capsys, "deriv", "dunwoody", "c4c6", "--base", "zz", "--target", "w", "--mod", "5"
    )
    assert code == 2
    assert out == ""
    assert "'zz'" in err


def test_kernel_scan_clean(capsys):
    code, out, _ = run(
        capsys, "deriv", "kernel-scan", "c4c6", "--kind", "access",
        "--base", "v", "--mod", "5", "--subgroup", "v", "--radius", "6",
    )
    assert code == 0
    assert out.strip() == "0 mismatches / 100 elements"


def test_kernel_scan_flags_wrong_designation(capsys):
    code, out, _ = run(
        capsys, "deriv", "kernel-scan", "c4c6", "--kind", "access",
        "--base", "v", "--mod", "5", "--subgroup", "w", "--radius", "3",
    )
    assert code == 1
    assert out.splitlines()[0] == "6 mismatches / 28 elements"
    assert "killed but outside the designated subgroup" in out


def test_kernel_scan_says_how_many_mismatches_it_left_out(capsys):
    argv = ["deriv", "kernel-scan", "c4c6", "--kind", "access", "--base", "v", "--mod", "5",
            "--subgroup", "w", "--radius", "2"]
    code, out, _ = run(capsys, *argv)
    json_code, json_out, _ = run(capsys, *argv, "--json")
    report = json.loads(json_out)
    assert code == json_code == 1
    assert report["mismatches"] == 6
    assert len(report["problems"]) == 6
    assert report["problems"][-1] == "… and 1 more mismatch not listed"
    assert out.splitlines() == ["6 mismatches / 16 elements", *report["problems"]]


@pytest.mark.parametrize("mod", ["0", "1", "-3"])
@pytest.mark.parametrize("command", [
    ["deriv", "access", "c4c6", "--base", "v"],
    ["deriv", "kernel-scan", "c4c6", "--kind", "access", "--base", "v", "--subgroup", "v",
     "--radius", "2"],
], ids=["access", "kernel-scan"])
def test_access_derivation_refuses_a_modulus_below_2(capsys, command, mod):
    code, out, err = run(capsys, *command, "--mod", mod)
    assert (code, out, err) == (2, "", "error: modulus must be at least 2\n")


def test_kernel_scan_json_matches_the_text(capsys):
    argv = ["deriv", "kernel-scan", "c4c6", "--kind", "access", "--base", "v", "--mod", "5",
            "--subgroup", "w", "--radius", "3"]
    code, out, _ = run(capsys, *argv)
    json_code, json_out, _ = run(capsys, *argv, "--json")
    report = json.loads(json_out)
    assert code == json_code == 1
    assert report["ok"] is False
    assert out.splitlines() == [
        f"{report['mismatches']} mismatches / {report['elements']} elements", *report["problems"]
    ]
    assert (report["mismatches"], report["elements"]) == (6, 28)
    code, out, _ = run(capsys, *argv[:-3], "v", "--radius", "2", "--json")
    assert (code, json.loads(out)) == (0, {"elements": 16, "mismatches": 0, "problems": [], "ok": True})


@pytest.mark.parametrize("gog, radius", [("c4c6", 2), ("expand_demo", 0), ("c6hnn", 1)])
def test_ball_json_lists_the_text_lines(capsys, gog, radius):
    code, out, err = run(capsys, "ball", gog, "--radius", str(radius))
    json_code, json_out, json_err = run(capsys, "ball", gog, "--radius", str(radius), "--json")
    assert (code, err) == (json_code, json_err)
    if code:
        assert json_out == out == ""
        return
    report = json.loads(json_out)
    assert report == {"radius": radius, "count": len(report["elements"]), "elements": report["elements"]}
    assert out.splitlines() == [f"{report['count']} elements (radius {radius})", *report["elements"]]


def test_tree_ball_counts(capsys):
    code, out, _ = run(capsys, "tree", "ball", "c4c6", "--radius", "2")
    assert code == 0
    assert out.splitlines() == ["7 vertices, 6 edges (radius 2)", "tree: True"]


def test_tree_ball_dot(capsys):
    code, out, _ = run(capsys, "tree", "ball", "c4c6", "--radius", "1", "--dot")
    assert code == 0
    assert out.startswith("graph structure_tree {")
    assert 'n0 -- n2 [label="v:g1·G(e)"];' in out


def test_tree_fix_finds_deep_vertices_without_a_radius(capsys):
    deep = "w:g5 * v:g3 * w:g5 * v:g1 * w:g1 * v:g1 * w:g1"
    code, out, _ = run(capsys, "tree", "fix", "c4c6", "--elements", deep)
    assert code == 0
    assert out == "fixed vertex at v, coset rep w:g2 * v:g1 * w:g2\n"


@pytest.mark.parametrize("argv", [
    ["tree", "fix", "c4c6", "--elements", "v:g1"],
    ["tree", "conj", "c4c6", "--elements", "v:g1"],
    ["surgery", "expand", "expand_demo", "--vertex", "m"],
])
def test_fixed_vertex_commands_have_no_radius(argv):
    with pytest.raises(SystemExit):
        cli.main(argv + ["--radius", "8"])


def test_tree_fix_rejects_infinite_subgroups(capsys):
    for op in ("fix", "conj"):
        code, out, err = run(capsys, "tree", op, "c4c6", "--elements", "v:g1 * w:g1")
        assert code == 2
        assert out == ""
        assert err == "error: v:g1 * w:g1 has infinite order: it fixes no tree vertex\n"


def test_tree_conj_finds_vertex_representative(capsys):
    code, out, _ = run(
        capsys, "tree", "conj", "c4c6", "--elements", "w:g1 * v:g2 * w:g5"
    )
    assert code == 0
    assert out.strip() == "conjugator 1 into vertex v"


def test_quotient_separate_finds_c12(capsys, tmp_path):
    path = tmp_path / "q.quot.json"
    code, out, _ = run(
        capsys, "quotient", "separate", "c4c6",
        "--elements", "v:g1", "--out", str(path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "target C12 (order 12)"
    assert lines[1] == "  v: [0, 3, 6, 9]"
    assert lines[2] == "  w: [0, 2, 4, 6, 8, 10]"
    data = json.loads(path.read_text())
    assert data["vertex_images"]["v"] == [0, 3, 6, 9]


@pytest.mark.parametrize("document", ["c4c6", "c30"])
def test_quotient_degree_past_the_cap_exits_2_before_any_search(capsys, tmp_path, monkeypatch, document):
    # c4c6 finds C12 before any symmetric group; no target separates C30's
    # generator, so before the refusal it walked all 27 default targets.
    from gogkit import quotients

    if document == "c30":
        document = str(tmp_path / "c30.gog.json")
        with open(document, "w") as fh:
            json.dump({"graph": {"vertices": [{"id": "v", "group": "cyclic 30"}], "edges": []}}, fh)
    monkeypatch.setattr(quotients, "_iter_quotients", None)
    code, out, err = run(capsys, "quotient", "separate", document, "--elements", "v:g1", "--degree", "7")
    assert (code, out, err) == (2, "", "error: group 'symmetric 7' has more than 720 elements\n")


def test_quotient_degree_is_passed_through_even_when_zero(capsys):
    # --degree 0 leaves no symmetric group: the 23 cyclic targets, as targets=0 does.
    code, out, err = run(capsys, "quotient", "separate", "c4c6",
                         "--elements", "v:g1 * w:g1 * v:g3 * w:g5", "--degree", "0")
    assert (code, out) == (3, "")
    assert err == ("exhausted: no quotient in the candidate pool achieves goal 'separate' "
                   "(23 targets, 8 quotients tried)\n")


def test_quotient_separate_rejects_identity(capsys):
    code, _, err = run(capsys, "quotient", "separate", "c4c6", "--elements", "1")
    assert code == 2
    assert "identity" in err


def test_quotient_embed_and_refine(capsys, tmp_path):
    code, out, _ = run(
        capsys, "quotient", "embed", "c4c6", "--vertex", "v", "--subgroup", "0,2"
    )
    assert code == 0
    assert out.splitlines()[0] == "target C4 (order 4)"
    given = tmp_path / "given.quot.json"
    run(capsys, "quotient", "separate", "c4c6", "--elements", "v:g1", "--out", str(given))
    code, out, _ = run(
        capsys, "quotient", "refine", "c4c6", "--subgraph", "v", "--given", str(given)
    )
    assert code == 0
    assert out.splitlines()[0] == "target C4 (order 4)"


@pytest.mark.parametrize(
    "given, message",
    [
        ({"target": "cyclic 4", "vertex_images": {"v": [0, 1, 2, 99]}, "letter_images": {}},
         "do not define a homomorphism"),
        ({"target": {"product": 5}, "vertex_images": {"v": [0, 1, 2, 3]}, "letter_images": {}},
         "'product' must be a list"),
        ({"target": "cyclic 4", "vertex_images": {"v": 5}, "letter_images": {}},
         "error: vertex_images.v must be a list, got 5\n"),
        ({"target": "cyclic 4", "vertex_images": [[0, 1, 2, 3]], "letter_images": {}},
         "error: vertex_images must be an object, got [[0, 1, 2, 3]]\n"),
    ],
    ids=["image-out-of-range", "target-spec", "image-not-list", "images-not-object"],
)
def test_quotient_refine_rejects_bad_given_file(capsys, tmp_path, given, message):
    path = tmp_path / "given.quot.json"
    path.write_text(json.dumps(given))
    code, _, err = run(
        capsys, "quotient", "refine", "c4c6", "--subgraph", "v", "--given", str(path)
    )
    assert code == 2
    assert message in err


def test_surgery_collapse_writes_document_and_transcript(capsys, tmp_path):
    out_doc = tmp_path / "coll.gog.json"
    transcript = tmp_path / "coll.transcript.json"
    code, out, _ = run(
        capsys, "surgery", "collapse", "c4c2c4", "--edge", "e1",
        "--out", str(out_doc), "--transcript", str(transcript),
    )
    assert code == 0
    assert out.splitlines()[0] == "collapse: 2 vertices, 1 edges, basepoint u"
    assert "ok" in out
    code, out, _ = run(capsys, "validate", str(out_doc))
    assert code == 0
    record = json.loads(transcript.read_text())
    assert record["op"] == "collapse"
    assert set(record) >= {"input_sha256", "source", "output", "psi", "phi"}


def test_surgery_reverse_and_expand(capsys, tmp_path):
    code, out, _ = run(capsys, "surgery", "reverse", "c4c6", "--edge", "e")
    assert code == 0
    assert "ok" in out
    out_doc = tmp_path / "expanded.gog.json"
    code, out, _ = run(
        capsys, "surgery", "expand", "expand_demo", "--vertex", "m", "--out", str(out_doc)
    )
    assert code == 0
    code, _, _ = run(capsys, "validate", str(out_doc))
    assert code == 0


def test_surgery_attach_success_and_exhaustion(capsys):
    code, out, _ = run(capsys, "surgery", "attach", "c4c6", "--vertex", "v", "--chi", "0,2")
    assert code == 0
    assert "ok" in out
    code, out, _ = run(capsys, "surgery", "attach", "c4c6", "--vertex", "v", "--chi", "0")
    assert code == 3
    assert "no conjugator table" in out


def test_surgery_attach_has_no_radius():
    with pytest.raises(SystemExit):
        cli.main(["surgery", "attach", "c4c6", "--vertex", "v", "--chi", "0,2", "--radius", "3"])


def test_surgery_amalgamate_reports_factors(capsys):
    code, out, _ = run(capsys, "surgery", "amalgamate", "c4c6", "--subgraph", "v")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "amalgam over edge e"
    assert "delta: vertices ['w']" in lines[1]
    assert "chi:   [0, 3] at w" in lines[2]


@pytest.mark.parametrize("argv, message", [
    (["quotient", "embed", "c4c6", "--vertex", "zz", "--subgroup", "0,2"], "unknown vertex 'zz'"),
    (["surgery", "attach", "c4c6", "--vertex", "zz", "--chi", "0,2"], "unknown vertex 'zz'"),
    (["deriv", "kernel-scan", "c4c6", "--kind", "access", "--base", "v", "--mod", "5",
      "--subgroup", "zz", "--radius", "2"], "unknown vertex 'zz'"),
    (["quotient", "embed", "expand_demo", "--vertex", "m", "--subgroup", "0"],
     "vertex group at 'm' is not a finite table"),
    (["surgery", "attach", "expand_demo", "--vertex", "m", "--chi", "0"],
     "vertex group at 'm' is not a finite table"),
])
def test_vertex_options_name_a_bad_vertex(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, option", [("quotient embed", "--subgroup"), ("surgery attach", "--chi")])
@pytest.mark.parametrize("handles, message", [
    ("0,9", "element index 9 out of range at 'v'"),
    ("0,1", "handles [0, 1] are not a subgroup at 'v'; they generate [0, 1, 2, 3]"),
])
def test_subgroup_handles_are_checked(capsys, command, option, handles, message):
    code, out, err = run(capsys, *command.split(), "c4c6", "--vertex", "v", option, handles)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, start", [
    (["quotient", "embed", "c4c6", "--subgroup", "0,2", "--vertex"], "unknown vertex 'zzz"),
    (["surgery", "attach", "c4c6", "--chi", "0,2", "--vertex"], "unknown vertex 'zzz"),
    (["surgery", "expand", "c4c6", "--vertex"], "unknown vertex 'zzz"),
    (["deriv", "kernel-scan", "c4c6", "--kind", "access", "--base", "v", "--mod", "5",
      "--radius", "2", "--subgroup"], "unknown vertex 'zzz"),
    (["surgery", "reverse", "c4c6", "--edge"], "unknown edge 'zzz"),
    (["surgery", "collapse", "c4c6", "--edge"], "unknown edge 'zzz"),
], ids=["quotient-embed", "surgery-attach", "surgery-expand", "kernel-scan", "surgery-reverse",
        "surgery-collapse"])
def test_id_options_quote_a_long_unknown_id_briefly(capsys, argv, start):
    code, out, err = run(capsys, *argv, "z" * 50_000)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + start)
    assert err.count("\n") == 1 and len(err.encode()) < 400


def test_surgery_unknown_edge(capsys):
    code, _, err = run(capsys, "surgery", "collapse", "c4c6", "--edge", "zz")
    assert code == 2
    assert "error:" in err


def test_verify_fixture_subset(capsys):
    code, out, _ = run(capsys, "verify", "all", "--fixture", "c2c2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "10/10 checks passed"
    assert any(line.startswith("PASS c07-relative-malnormality") for line in lines)


def test_verify_json_reports_what_the_text_reports(capsys):
    code, text, _ = run(capsys, "verify", "all", "--fixture", "c2c2")
    json_code, out, _ = run(capsys, "verify", "all", "--fixture", "c2c2", "--json")
    report = json.loads(out)
    assert json_code == code == 0
    assert (report["passed"], report["total"]) == (10, 10)
    lines = []
    for check in report["checks"]:
        assert set(check) == {"name", "ok", "counts", "problems", "seconds"}
        assert isinstance(check["seconds"], float) and check["seconds"] >= 0
        extra = ", ".join(f"{k}={v}" for k, v in check["counts"].items())
        lines.append(f"{'PASS' if check['ok'] else 'FAIL'} {check['name']}" + (f" ({extra})" if extra else ""))
    assert lines == text.splitlines()[:-1]


def test_verify_json_exits_1_on_a_failed_check(capsys, monkeypatch):
    from gogkit.acceptance import CheckResult

    failed = [CheckResult("c00-demo", False, {"pairs": 2}, ["a problem"], 0.5)]
    monkeypatch.setattr("gogkit.acceptance.run_checks", lambda only=None: failed)
    code, out, _ = run(capsys, "verify", "all", "--json")
    assert code == 1
    assert json.loads(out) == {
        "checks": [{"name": "c00-demo", "ok": False, "counts": {"pairs": 2},
                    "problems": ["a problem"], "seconds": 0.5}],
        "passed": 0,
        "total": 1,
    }
    code, out, _ = run(capsys, "verify", "all")
    assert (code, out) == (1, "FAIL c00-demo (pairs=2)\n  a problem\n0/1 checks passed\n")


def test_verify_refuses_a_fixture_that_is_not_bundled(capsys):
    # A typo must not read as ten skipped checks and a full pass.
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "all", "--fixture", "zz"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --fixture: invalid choice: 'zz'" in captured.err

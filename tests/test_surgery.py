"""Tests for surgery operations and their machine-checked isomorphism data."""
import hashlib
import json
from functools import partial

import pytest

from _oracles import c08_witnesses, translate_concatenated
from gogkit.documents import document_data, parse_document
from gogkit.errors import (
    BadAttachment,
    MalformedWord,
    MixedOwners,
    NotCollapsible,
    NotFinite,
    TableInvalid,
    WrongShape,
)
from gogkit.finite_group import Subgroup, make_group
from gogkit.fixtures import load_fixture
from gogkit.gog import (
    LETTER,
    VERTEX,
    GraphOfGroups,
    Subgraph,
    Word,
    ball,
    nf,
    parse_word,
    presentation,
    validate,
)
from gogkit.graph_core import FiniteGraph
from gogkit.structure_tree import tree_vertex
from gogkit.surgery import (
    GogIsoWitness,
    apply_phi,
    apply_psi,
    attach_amalgam_vertex,
    collapse_to_amalgam,
    collapse_tree_edge,
    compose_witness,
    expand_vertex,
    find_delta_conjugators,
    replay_transcript,
    reverse_edge,
    translate,
    validate_witness,
    witness_ball_report,
    witness_transcript,
)


def ball_sizes(g, radii=(1, 2, 3)):
    return [len(ball(g, r)) for r in radii]


# ---------------------------------------------------------------------------
# Edge reversal


def test_reverse_edge_swaps_endpoints_and_inclusions(c4c6):
    rev, w = reverse_edge(c4c6, "e")
    assert rev.graph.d0["e"] == "w" and rev.graph.d1["e"] == "v"
    assert rev.inclusions["e"] == (c4c6.inclusions["e"][1], c4c6.inclusions["e"][0])
    assert validate(rev).ok
    assert validate_witness(w).ok


def test_reverse_edge_witness_inverts_letter(c6hnn):
    rev, w = reverse_edge(c6hnn, "t")
    assert apply_psi(w, nf(c6hnn, "t(t)")).text() == "t(t)^-1"
    assert validate_witness(w).ok
    assert ball_sizes(rev) == ball_sizes(c6hnn)


def test_reverse_twice_composes_to_identity(c4c6):
    rev, w1 = reverse_edge(c4c6, "e")
    back, w2 = reverse_edge(rev, "e")
    w = compose_witness(w1, w2)
    assert validate_witness(w).ok
    for text in ("v:g1", "w:g1", "v:g1 * w:g2"):
        assert apply_psi(w, nf(c4c6, text)).text() == text


def test_reverse_unknown_edge(c4c6):
    with pytest.raises(ValueError, match="unknown edge"):
        reverse_edge(c4c6, "zz")


def test_compose_witness_requires_shared_middle(c4c6, c6hnn):
    _, w1 = reverse_edge(c4c6, "e")
    _, w2 = reverse_edge(c6hnn, "t")
    with pytest.raises(MixedOwners):
        compose_witness(w1, w2)


# ---------------------------------------------------------------------------
# Collapsing tree edges


def test_collapse_merges_the_redundant_vertex(c4c2c4):
    # e1's image fills the middle C2, so the middle vertex folds into u.
    out, w = collapse_tree_edge(c4c2c4, "e1")
    assert sorted(out.graph.vertices) == ["u", "w"]
    assert out.graph.d0["e2"] == "u" and out.graph.d1["e2"] == "w"
    assert out.inclusions["e2"] == ((0, 2), (0, 2))
    assert out.basepoint == "u"  # basepoint was the collapsed vertex
    assert validate(out).ok
    assert validate_witness(w).ok
    assert ball_sizes(out) == ball_sizes(c4c2c4) == [6, 10, 14]
    assert witness_ball_report(w).ok


def test_collapse_prefers_the_terminal_side(c4c2c4):
    # e2 runs m → w; only the m side is onto, so w is kept.
    out, w = collapse_tree_edge(c4c2c4, "e2")
    assert sorted(out.graph.vertices) == ["u", "w"]
    assert out.basepoint == "w"
    assert out.inclusions["e1"] == ((0, 2), (0, 2))
    assert validate_witness(w).ok


def test_collapsed_elements_translate(c4c2c4):
    out, w = collapse_tree_edge(c4c2c4, "e1")
    # The middle generator m:g1 equals u:g2 across the collapsed edge.
    assert apply_psi(w, nf(c4c2c4, "m:g1")).text() == "u:g2"
    assert apply_phi(w, nf(out, "u:g2")).text() == "m:g1"


def test_amalgam_over_proper_subgroups_does_not_collapse(c4c2c4, c2c2):
    out, _ = collapse_tree_edge(c4c2c4, "e1")
    with pytest.raises(NotCollapsible, match="onto its endpoint group"):
        collapse_tree_edge(out, "e2")
    with pytest.raises(NotCollapsible):
        collapse_tree_edge(c2c2, "e")


def test_collapse_rejects_non_tree_edges(c6hnn):
    with pytest.raises(NotCollapsible, match="not in the spanning tree"):
        collapse_tree_edge(c6hnn, "t")


# ---------------------------------------------------------------------------
# Vertex expansion


def test_expand_replaces_the_nested_vertex(expand_demo):
    out, w = expand_vertex(expand_demo, "m")
    assert sorted(out.graph.vertices) == ["m.u", "m.w", "z"]
    assert sorted(out.graph.edges) == ["e0", "m.e"]
    assert sorted(out.tree.edges) == ["e0", "m.e"]
    # e0's far end lands on the nested vertex containing its image.
    assert out.graph.d1["e0"] == "m.u"
    assert out.inclusions["e0"] == ((0, 1), (0, 1))
    assert out.basepoint == "z"
    assert validate(out).ok
    assert validate_witness(w).ok
    assert ball_sizes(out) == [3, 5, 7]


def test_expand_witness_unfolds_nested_elements(expand_demo):
    out, w = expand_vertex(expand_demo, "m")
    # e0 glues z's C2 to the nested u, so the image normalizes to z:g1.
    assert apply_psi(w, nf(expand_demo, "m:{u:g1}")).text() == "z:g1"
    assert apply_psi(w, nf(expand_demo, "m:{w:g1}")).text() == "m.w:g1"
    assert apply_phi(w, nf(out, "m.w:g1")).text() == "m:{w:g1}"
    report = witness_ball_report(w)
    assert report.ok
    assert report.counts["psi_skipped"] == 1  # nested source has no finite tables
    assert report.counts["phi_ball"] == 7


def test_expand_requires_a_nested_vertex_group(c4c6):
    with pytest.raises(ValueError, match="not a nested graph of groups"):
        expand_vertex(c4c6, "v")


def test_expand_rejects_bad_attachments(expand_demo, monkeypatch):
    # w:g1·u:g1·w:g1 fixes the nested tree vertex w:g1·G(u), so the tree edge
    # e0 would need the conjugator w:g1.
    data = document_data(expand_demo)
    data["graph"]["edges"][0]["d1_images"] = ["1", "w:g1 * u:g1 * w:g1"]
    with pytest.raises(BadAttachment, match="'e0' needs an identity conjugator"):
        expand_vertex(parse_document(data).gog, "m")
    # The fixed vertex always holds the image; the guard refuses one that does not.
    monkeypatch.setattr("gogkit.surgery.fixed_vertex", lambda sub, images: tree_vertex(sub, "w"))
    with pytest.raises(BadAttachment, match="'e0' does not conjugate into the vertex group at 'w'"):
        expand_vertex(expand_demo, "m")


def test_expand_refuses_an_id_the_graph_already_has(expand_demo):
    # The nested vertex u would become m.u, which the outer graph already has.
    data = document_data(expand_demo)
    data["graph"]["vertices"].append({"id": "m.u", "group": "cyclic 3"})
    data["graph"]["edges"].append({"id": "x", "from": "z", "to": "m.u", "group": "cyclic 1",
                                   "d0_images": [0], "d1_images": [0]})
    data["spanning_tree"].append("x")
    with pytest.raises(ValueError, match="^duplicate vertex id 'm.u'$"):
        expand_vertex(parse_document(data).gog, "m")
    data["graph"]["vertices"][-1]["id"] = "y"
    data["graph"]["edges"][-1].update(id="m.e", to="y")
    data["spanning_tree"][-1] = "m.e"
    with pytest.raises(ValueError, match="^duplicate edge id 'm.e'$"):
        expand_vertex(parse_document(data).gog, "m")


def test_expand_keeps_a_vertex_whose_id_looks_nested(expand_demo):
    # m.x is an ordinary vertex of the outer graph, not a vertex of m's decomposition.
    graph = FiniteGraph(
        ("z", "m", "m.x"), ("e0", "ex"), {"e0": "z", "ex": "m.x"}, {"e0": "m", "ex": "z"}
    )
    g = GraphOfGroups(
        graph,
        {"z": expand_demo.vertex_groups["z"], "m": expand_demo.vertex_groups["m"],
         "m.x": make_group("cyclic 3")},
        {"e0": expand_demo.edge_groups["e0"], "ex": make_group("cyclic 1")},
        {"e0": expand_demo.inclusions["e0"], "ex": ((0,), (0,))},
        basepoint="z",
    )
    out, w = expand_vertex(g, "m")
    assert sorted(out.graph.vertices) == ["m.u", "m.w", "m.x", "z"]
    assert w.phi[("v", "m.x", 1)] == Word((("v", "m.x", 1),))
    assert apply_phi(w, nf(out, "m.w:g1")).text() == "m:{w:g1}"
    assert validate_witness(w).ok
    assert replay_transcript(witness_transcript("expand", w)).ok


def test_expand_rejects_loops_at_the_vertex(expand_demo):
    sub = expand_demo.vertex_groups["m"]
    graph = FiniteGraph(("m",), ("l",), {"l": "m"}, {"l": "m"})
    trivial = make_group("cyclic 1")
    g = GraphOfGroups(
        graph,
        {"m": sub},
        {"l": trivial},
        {"l": ((sub.identity(),), (sub.identity(),))},
        basepoint="m",
    )
    with pytest.raises(BadAttachment, match="loop"):
        expand_vertex(g, "m")


# ---------------------------------------------------------------------------
# Conjugator tables


def test_find_delta_identity_suffices_in_abelian_vertex(c4c6):
    chi = Subgroup(c4c6.vertex_groups["v"].group, (0, 2))
    table = find_delta_conjugators(c4c6, "v", chi)
    assert table is not None and table.delta == {"e": 0}


def test_find_delta_order_obstruction(c4c6, c6hnn):
    trivial = Subgroup(c4c6.vertex_groups["v"].group, (0,))
    assert find_delta_conjugators(c4c6, "v", trivial) is None
    # The loop's C2 image cannot fit inside the C3 subgroup.
    c3 = Subgroup(c6hnn.vertex_groups["v"].group, (0, 2, 4))
    assert find_delta_conjugators(c6hnn, "v", c3) is None


def _s3_hnn():
    """An HNN layer over S3 whose loop images need a genuine conjugator."""
    s3 = make_group("symmetric 3")
    graph = FiniteGraph(("p",), ("l",), {"l": "p"}, {"l": "p"})
    c2 = make_group("cyclic 2")
    g = GraphOfGroups(
        graph, {"p": s3}, {"l": c2}, {"l": ((0, 1), (0, 1))}, basepoint="p"
    )
    return g, s3


def test_find_delta_nontrivial_conjugator():
    g, s3 = _s3_hnn()
    chi = Subgroup(s3, (0, 2))
    table = find_delta_conjugators(g, "p", chi)
    assert table is not None
    d = table.delta["l"]
    assert d != 0 and s3.conjugate(1, d) == 2


def test_find_delta_requires_matching_subgroup(c4c6):
    other = make_group("cyclic 6")
    with pytest.raises(ValueError, match="subgroup of the vertex group"):
        find_delta_conjugators(c4c6, "v", Subgroup(other, (0, 2, 4)))


def test_conjugator_tables_name_an_unknown_vertex(c4c6):
    chi = Subgroup(c4c6.vertex_groups["v"].group, (0, 2))
    table = find_delta_conjugators(c4c6, "v", chi)
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        find_delta_conjugators(c4c6, "zz", chi)
    with pytest.raises(ValueError, match="unknown vertex 'zz'"):
        attach_amalgam_vertex(c4c6, "zz", chi, table)


# ---------------------------------------------------------------------------
# Amalgam attachment


def test_attach_splits_off_the_vertex_group(c4c6):
    chi = Subgroup(c4c6.vertex_groups["v"].group, (0, 2))
    table = find_delta_conjugators(c4c6, "v", chi)
    out, w = attach_amalgam_vertex(c4c6, "v", chi, table)
    assert sorted(out.graph.vertices) == ["v", "v.delta", "w"]
    assert sorted(out.tree.edges) == ["e", "v.chi"]
    assert out.vertex_groups["v"].group.order == 2
    assert out.vertex_groups["v.delta"].group.order == 4
    assert out.edge_groups["v.chi"].order == 2
    # The original edge now lands in χ-local indices.
    assert out.inclusions["e"] == ((0, 1), (0, 3))
    assert validate(out).ok
    assert validate_witness(w).ok
    assert ball_sizes(out) == ball_sizes(c4c6) == [8, 16, 28]


def test_attach_witness_moves_vertex_elements(c4c6):
    chi = Subgroup(c4c6.vertex_groups["v"].group, (0, 2))
    table = find_delta_conjugators(c4c6, "v", chi)
    out, w = attach_amalgam_vertex(c4c6, "v", chi, table)
    assert apply_psi(w, nf(c4c6, "v:g1")).text() == "v.delta:g1"
    assert apply_phi(w, nf(out, "v:g1")).text() == "v:g2"  # χ-local 1 is a²


def test_attach_then_collapse_reproduces_the_amalgam(c4c6):
    chi = Subgroup(c4c6.vertex_groups["v"].group, (0, 2))
    table = find_delta_conjugators(c4c6, "v", chi)
    att, w1 = attach_amalgam_vertex(c4c6, "v", chi, table)
    # v's group shrank to χ, so the original edge image fills it.
    out, w2 = collapse_tree_edge(att, "e")
    assert sorted(out.graph.vertices) == ["v.delta", "w"]
    # χ's copy of a² rides across the collapse and lands on b³.
    assert out.graph.d0["v.chi"] == "w" and out.graph.d1["v.chi"] == "v.delta"
    assert out.inclusions["v.chi"] == ((0, 3), (0, 2))
    w = compose_witness(w1, w2)
    assert validate_witness(w).ok
    assert witness_ball_report(w).ok
    assert ball_sizes(out) == ball_sizes(c4c6)


def test_attach_handles_loops(c6hnn):
    chi = Subgroup(c6hnn.vertex_groups["v"].group, (0, 3))
    table = find_delta_conjugators(c6hnn, "v", chi)
    att, w1 = attach_amalgam_vertex(c6hnn, "v", chi, table)
    assert att.graph.d0["t"] == "v" and att.graph.d1["t"] == "v"
    assert validate_witness(w1).ok
    out, w2 = collapse_tree_edge(att, "v.chi")
    assert sorted(out.graph.vertices) == ["v.delta"]
    assert out.inclusions["t"] == ((0, 3), (0, 3))
    w = compose_witness(w1, w2)
    assert validate_witness(w).ok
    assert ball_sizes(out) == ball_sizes(c6hnn) == [8, 28, 80]


def test_attach_loop_with_nontrivial_conjugator():
    g, s3 = _s3_hnn()
    chi = Subgroup(s3, (0, 2))
    table = find_delta_conjugators(g, "p", chi)
    out, w = attach_amalgam_vertex(g, "p", chi, table)
    assert out.inclusions["l"] == ((0, 1), (0, 1))
    assert validate_witness(w).ok
    assert witness_ball_report(w, 2).ok
    assert ball_sizes(out, (1, 2)) == ball_sizes(g, (1, 2)) == [8, 28]


def test_attach_requires_outgoing_edges(c4c6):
    rev, _ = reverse_edge(c4c6, "e")
    chi = Subgroup(rev.vertex_groups["v"].group, (0, 2))
    table = find_delta_conjugators(rev, "v", chi)
    with pytest.raises(ValueError, match="apply reverse_edge first"):
        attach_amalgam_vertex(rev, "v", chi, table)


def test_attach_rejects_superfluous_edges(c4c6):
    chi = Subgroup(c4c6.vertex_groups["v"].group, (0, 2))
    table = find_delta_conjugators(c4c6, "v", chi)
    att, _ = attach_amalgam_vertex(c4c6, "v", chi, table)
    chi2 = Subgroup(att.vertex_groups["v"].group, (0, 1))
    table2 = find_delta_conjugators(att, "v", chi2)
    with pytest.raises(ValueError, match="collapse it first"):
        attach_amalgam_vertex(att, "v", chi2, table2)


def test_attach_validates_the_table(c4c6):
    chi = Subgroup(c4c6.vertex_groups["v"].group, (0, 2))
    table = find_delta_conjugators(c4c6, "v", chi)
    rev, _ = reverse_edge(c4c6, "e")
    with pytest.raises(TableInvalid, match="different attachment"):
        attach_amalgam_vertex(rev, "v", chi, table)
    table2 = find_delta_conjugators(c4c6, "v", chi)
    del table2.delta["e"]
    with pytest.raises(TableInvalid, match="no conjugator"):
        attach_amalgam_vertex(c4c6, "v", chi, table2)
    table3 = find_delta_conjugators(c4c6, "v", chi)
    table3.delta["e"] = 99
    with pytest.raises(TableInvalid, match="not an element"):
        attach_amalgam_vertex(c4c6, "v", chi, table3)


def test_attach_refuses_an_id_the_graph_already_has(c4c6):
    data = document_data(c4c6)
    del data["spanning_tree"]
    data["graph"]["vertices"].append({"id": "v.delta", "group": "cyclic 3"})
    data["graph"]["edges"].append({"id": "x", "from": "w", "to": "v.delta", "group": "cyclic 1",
                                   "d0_images": [0], "d1_images": [0]})
    for message in ("^duplicate vertex id 'v.delta'$", "^duplicate edge id 'v.chi'$"):
        g = parse_document(data).gog
        chi = Subgroup(g.vertex_groups["v"].group, (0, 2))
        with pytest.raises(ValueError, match=message):
            attach_amalgam_vertex(g, "v", chi, find_delta_conjugators(g, "v", chi))
        data["graph"]["vertices"][-1]["id"] = "y"
        data["graph"]["edges"][-1].update(id="v.chi", to="y")


def test_attach_rejects_a_conjugator_that_misses_chi():
    g, s3 = _s3_hnn()
    chi = Subgroup(s3, (0, 2))
    table = find_delta_conjugators(g, "p", chi)
    table.delta["l"] = 0  # identity no longer moves ⟨1⟩ into ⟨2⟩
    with pytest.raises(TableInvalid, match="does not move"):
        attach_amalgam_vertex(g, "p", chi, table)


# ---------------------------------------------------------------------------
# Reading off an amalgam


def test_collapse_to_amalgam_reads_the_two_factors(c4c6):
    desc = collapse_to_amalgam(c4c6, Subgraph.of({"v"}))
    assert desc.edge == "e" and desc.delta_vertex == "w"
    assert desc.chi.elements == (0, 3)
    assert desc.in_delta(nf(c4c6, "w:g2"))
    assert desc.in_lambda(nf(c4c6, "v:g1"))
    mixed = nf(c4c6, "v:g1 * w:g2")
    assert not desc.in_delta(mixed) and not desc.in_lambda(mixed)
    # χ sits inside both factors under the edge identification.
    assert desc.in_delta(nf(c4c6, "v:g2")) and desc.in_lambda(nf(c4c6, "w:g3"))
    # Both factors read x's syllables without a handle check, so x must be c4c6's.
    foreign = nf(load_fixture("c4c6"), "w:g2")
    for member in (desc.in_delta, desc.in_lambda):
        with pytest.raises(MixedOwners):
            member(foreign)


def test_collapse_to_amalgam_multi_vertex_factor(expand_demo):
    out, _ = expand_vertex(expand_demo, "m")
    desc = collapse_to_amalgam(out, Subgraph.of({"z"}))
    assert desc.edge == "e0" and desc.delta_vertex == "m.u"
    assert desc.delta_vertices == {"m.u", "m.w"}
    assert desc.in_delta(nf(out, "m.w:g1"))
    assert desc.in_delta(nf(out, "m.u:g1 * m.w:g1"))
    # e0 is onto the z side, so Λ = χ and the whole of Λ sits inside Δ.
    assert desc.in_delta(nf(out, "z:g1"))
    assert not desc.in_lambda(nf(out, "m.w:g1"))


def test_collapse_to_amalgam_one_vertex_factor_keeps_its_loops():
    # Δ = {v} with the loop t: the loop letter is in Δ, u's element is not.
    graph = FiniteGraph(("u", "v"), ("e", "t"), {"e": "u", "t": "v"}, {"e": "v", "t": "v"})
    c2 = make_group("cyclic 2")
    g = GraphOfGroups(
        graph,
        {"u": c2, "v": make_group("cyclic 6")},
        {"e": make_group("cyclic 1"), "t": c2},
        {"e": ((0,), (0,)), "t": ((0, 3), (0, 3))},
        basepoint="u",
    )
    desc = collapse_to_amalgam(g, Subgraph.of({"u"}))
    assert desc.delta_vertices == {"v"} and desc.delta_edges == {"t"}
    assert desc.in_delta(nf(g, "t(t)"))
    assert desc.in_delta(nf(g, "v:g1 * t(t)"))
    assert not desc.in_delta(nf(g, "u:g1"))
    assert not desc.in_delta(nf(g, "t(t) * u:g1"))


def test_collapse_to_amalgam_shape_errors(c4c6, c4c2c4, c6hnn):
    with pytest.raises(WrongShape, match="covers every vertex"):
        collapse_to_amalgam(c4c6, Subgraph.of({"v", "w"}, {"e"}))
    with pytest.raises(WrongShape, match="exactly one edge"):
        collapse_to_amalgam(c4c2c4, Subgraph.of({"m"}))
    with pytest.raises(WrongShape, match="covers every vertex"):
        collapse_to_amalgam(c6hnn, Subgraph.of({"v"}))


def test_collapse_to_amalgam_needs_a_table_delta_endpoint(expand_demo):
    with pytest.raises(NotFinite, match="vertex group at 'm' is not a finite table"):
        collapse_to_amalgam(expand_demo, Subgraph.of({"z"}))


def test_collapse_to_amalgam_three_vertex_chain(c4c2c4):
    desc = collapse_to_amalgam(c4c2c4, Subgraph.of({"m", "u"}, {"e1"}))
    assert desc.edge == "e2" and desc.delta_vertex == "w"
    assert desc.chi.elements == (0, 2)
    assert desc.in_lambda(nf(c4c2c4, "u:g1"))
    assert not desc.in_lambda(nf(c4c2c4, "w:g1"))


# ---------------------------------------------------------------------------
# Transcripts


def test_transcript_replays(c4c6):
    chi = Subgroup(c4c6.vertex_groups["v"].group, (0, 2))
    table = find_delta_conjugators(c4c6, "v", chi)
    _, w = attach_amalgam_vertex(c4c6, "v", chi, table)
    data = witness_transcript("attach", w)
    assert data["op"] == "attach"
    report = replay_transcript(json.dumps(data))
    assert report.ok and report.counts["replayed"] == 1


def test_transcript_replays_expansions(expand_demo):
    _, w = expand_vertex(expand_demo, "m")
    report = replay_transcript(witness_transcript("expand", w))
    assert report.ok


def test_transcript_detects_tampering(c4c6):
    rev, w = reverse_edge(c4c6, "e")
    data = witness_transcript("reverse", w)
    data["psi"]["v:g1"] = "v:g2"
    assert not replay_transcript(data).ok
    fresh = witness_transcript("reverse", w)
    fresh["input_sha256"] = "0" * 64
    report = replay_transcript(fresh)
    assert not report.ok
    assert "hash" in report.problems[0]


@pytest.mark.parametrize("tamper, problem", [
    (lambda psi: psi.pop("v:g1"), "ψ has no image for source generator 'v:g1'"),
    (lambda psi: psi.update({"v:g0": "v:g0"}), "ψ maps ('v', 'v', 0), which is not a source generator"),
], ids=["missing", "extra"])
def test_replay_reports_malformed_witness_maps(c4c6, tamper, problem):
    _, w = reverse_edge(c4c6, "e")
    data = witness_transcript("reverse", w)
    tamper(data["psi"])
    report = replay_transcript(data)
    assert not report.ok
    assert report.problems == [problem]
    assert report.counts == {
        "source_relators": 3, "target_relators": 3, "generators": 18, "replayed": 1
    }


def test_validate_witness_skips_translation_of_incomplete_maps(c4c6):
    # Without φ's entry for t(e), translating a target relator would need it.
    _, w = reverse_edge(c4c6, "e")
    phi = {gen: word for gen, word in w.phi.items() if gen != ("t", "e", 1)}
    report = validate_witness(GogIsoWitness(w.source, w.target, w.psi, phi))
    assert report.problems == ["φ has no image for target generator 't(e)'"]


def _relator_lines(report):
    return [line for line in report.problems if " relator " in line]


def test_validate_witness_reports_a_surviving_source_relator(c4c6):
    # ψ(v:g2) = v:g1 no longer kills ∂1(1)⁻¹·t⁻¹·∂0(1)·t, with ∂0(1) = v:g2.
    out, w = reverse_edge(c4c6, "e")
    psi = {**w.psi, (VERTEX, "v", 2): parse_word(out, "v:g1")}
    report = validate_witness(GogIsoWitness(w.source, w.target, psi, w.phi))
    assert not report.ok
    assert _relator_lines(report) == ["ψ sends source relator (edge 'e', k=1) to 'v:g3'"]
    # v:g2 and w:g3 have one normal form; each generator line names its generator.
    assert [line for line in report.problems if line.startswith("φ∘ψ")][:2] == [
        "φ∘ψ moves source generator 'v:g2' to 'v:g1'",
        "φ∘ψ moves source generator 'w:g3' to 'v:g1'",
    ]


def test_validate_witness_reports_every_surviving_relator(c4c6, c4c2c4):
    out, w = reverse_edge(c4c6, "e")
    psi = {**w.psi, (VERTEX, "v", 2): parse_word(out, "v:g1")}
    phi = {**w.phi, (VERTEX, "w", 3): parse_word(c4c6, "w:g1")}
    report = validate_witness(GogIsoWitness(w.source, w.target, psi, phi))
    assert _relator_lines(report) == [
        "ψ sends source relator (edge 'e', k=1) to 'v:g3'",
        "φ sends target relator (edge 'e', k=1) to 'w:g1 * v:g2'",
    ]
    # Two relators of one map survive: both are reported, not only the first.
    out, w = reverse_edge(c4c2c4, "e1")
    psi = {**w.psi, (VERTEX, "m", 1): parse_word(out, "u:g1")}
    report = validate_witness(GogIsoWitness(w.source, w.target, psi, w.phi))
    assert _relator_lines(report) == [
        "ψ sends source relator (edge 'e1', k=1) to 'u:g1 * m:g1'",
        "ψ sends source relator (edge 'e2', k=1) to 'u:g1 * m:g1'",
    ]
    # A tree letter's relator is the letter itself.
    psi = {**w.psi, (LETTER, "e2", 1): parse_word(out, "u:g1")}
    report = validate_witness(GogIsoWitness(w.source, w.target, psi, w.phi))
    assert _relator_lines(report) == ["ψ sends source relator (tree letter t(e2)) to 'u:g1'"]


def _pop(key):
    return lambda data: data.pop(key)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def tamper(data):
        for part in path:
            data = data[part]
        data[key] = value
    return tamper


@pytest.mark.parametrize("tamper, problem", [
    (_pop("psi"), "psi is missing"),
    (_pop("source"), "source is missing"),
    (lambda data: data.update(psi=list(data["psi"].items())),
     "psi must be an object, got [('t(e)', 't(e)^-1'), ('v:g1', 'v:g1'), ('v:g2', 'v:g2'), "
     "('v:g3', 'v:g3'), ('w:g1', 'w:g1'), ('w:g2', 'w:g2'), ('w:g3', 'w:g3'), "
     "('w:g4', 'w:g4'), ('w:g5', 'w:g5')]"),
    (_set("phi", 7), "phi must be an object, got 7"),
    (_set("psi", "v:g1", 5), "ψ entry 'v:g1': psi['v:g1'] must be a string, got 5"),
    (_set("psi", "v:g1", "v:g99"), "ψ entry 'v:g1': element index 99 out of range at 'v'"),
    (_set("psi", "v:g1", "v:g1 * *"), "ψ entry 'v:g1': empty syllable in 'v:g1 * *'"),
    (_set("phi", "w:g1 * w:g1", "w:g2"), "φ key 'w:g1 * w:g1' is not a single generator"),
    (_set("output", "graph", None), "output.graph must be an object, got None"),
    (lambda data: data["source"]["graph"]["edges"][0].update(d0_images=[0, 1]),
     "source: edge 'e' side 0: not a homomorphism on pair (1,1)"),
    (lambda data: data["output"]["graph"]["edges"][0].update(d1_images=[0, 1]),
     "output: edge 'e' side 1: not a homomorphism on pair (1,1)"),
], ids=[
    "no-psi", "no-source", "psi-list", "phi-int", "image-int", "image-range", "image-syntax",
    "key-word", "bad-output", "source-inclusion", "output-inclusion",
])
def test_replay_reports_malformed_transcripts(c4c6, tamper, problem):
    _, w = reverse_edge(c4c6, "e")
    data = witness_transcript("reverse", w)
    tamper(data)
    report = replay_transcript(data)
    assert not report.ok
    assert report.problems == [problem]


@pytest.mark.parametrize("data, problem", [
    pytest.param(
        "{", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
        id="invalid-json",
    ),
    pytest.param("[]", "the top level must be an object, got []", id="list"),
    pytest.param(None, "the top level must be an object, got None", id="null"),
])
def test_replay_reports_transcripts_that_are_not_objects(data, problem):
    assert replay_transcript(data).problems == [problem]


# ---------------------------------------------------------------------------
# Frozen transcripts: SHA-256 of json.dumps(witness_transcript(op, w), sort_keys=True)

FROZEN_TRANSCRIPTS = {
    "reverse c4c6 e": "e7f66470fe6235bb629de51215fe973612281495d188c6d6a021e7b87ee5b1c8",
    "reverse c6hnn t": "1412845eccec6631197f37365c224d785a3751783bb4ed8db276b967a58f486f",
    "reverse c4c2c4 e1": "e084d24e3db05b67d0fab5d790bc72b63bf9ea2be3c27bc6a208f08f811619a7",
    "reverse c4c2c4 e2": "ef832ba99e3f895c53fab96dec7fe2690d2a24dc2c13a3006901c85b7c4cc4f4",
    "reverse c2c2 e": "f07b915f5b2b684ccb432f48776b13e7c125174680a7e56f27b8729ca8cb1fc9",
    "collapse c4c2c4 e1": "4218a2cf07b1bc7a0921cdf1f8eeabe371bef83b633988a68e3ffe696a0a9175",
    "collapse c4c2c4 e2": "b2d63232478836b39328bb891d83f19a1b7ab92cd436e0adfa225b8214646dbe",
    "expand expand_demo m": "92b629f2aea2b61d277374546d1b398418ebca016b84fa37bd08acc4e3233e23",
    "attach c4c6": "7a9cf56cca118ffdce51d68fcc1382c244b9de4f6ca43254c1b0cb1e84b25c9b",
    "attach c4c6 collapse e": "9097d3931c125baa5a691eaf3389664dfa4344d8482f98aa08d9db200503225c",
    "attach c4c6 composite": "41a262ef7500042455ceaff648fd6cd4317f11da010d10c61cd820aa609baa8b",
    "attach c6hnn": "b1b7daaede8ee0032cbe509ccca7c6a4158f74148e1b08128c19d5f9158b3219",
    "attach c6hnn collapse v.chi": "751330668e4a895e72513edfa2466fa1760b2404c78e98eaf105b6821582ff4c",
    "attach c6hnn composite": "55022d098e09a9949e83e5d271568781aadf8b7130854c6286db7825d1233097",
    "attach s3hnn": "1075e3a42c5b2e46fe80e1991e510bd4f2506d34312094ef3f3bcef594c3ec94",
}


def _attach(g, v, elements):
    chi = Subgroup(g.vertex_groups[v].group, elements)
    return attach_amalgam_vertex(g, v, chi, find_delta_conjugators(g, v, chi))


def _frozen_cases():
    """(label, op, witness) for every transcript in FROZEN_TRANSCRIPTS."""
    for name in ("c4c6", "c6hnn", "c4c2c4", "c2c2"):
        g = load_fixture(name)
        for e in g.graph.edges:
            yield f"reverse {name} {e}", "reverse", reverse_edge(g, e)[1]
    for e in ("e1", "e2"):
        yield f"collapse c4c2c4 {e}", "collapse", collapse_tree_edge(load_fixture("c4c2c4"), e)[1]
    yield "expand expand_demo m", "expand", expand_vertex(load_fixture("expand_demo"), "m")[1]
    for name, chi, e in (("c4c6", (0, 2), "e"), ("c6hnn", (0, 3), "v.chi")):
        att, w1 = _attach(load_fixture(name), "v", chi)
        _, w2 = collapse_tree_edge(att, e)
        yield f"attach {name}", "attach", w1
        yield f"attach {name} collapse {e}", "collapse", w2
        yield f"attach {name} composite", "attach+collapse", compose_witness(w1, w2)
    g, _ = _s3_hnn()
    yield "attach s3hnn", "attach", _attach(g, "p", (0, 2))[1]


def test_transcripts_match_their_frozen_digests():
    digests = {
        label: hashlib.sha256(
            json.dumps(witness_transcript(op, w), sort_keys=True).encode()
        ).hexdigest()
        for label, op, w in _frozen_cases()
    }
    assert digests == FROZEN_TRANSCRIPTS


@pytest.mark.parametrize("elements, message", [
    ((0, 9), "element index 9 out of range at 'v'"),
    ((0, 1), "handles [0, 1] are not a subgroup at 'v'; they generate [0, 1, 2, 3]"),
], ids=["out-of-range", "not-closed"])
def test_chi_is_checked_as_a_subgroup_of_the_vertex_group(c4c6, elements, message):
    group = c4c6.vertex_groups["v"].group
    table = find_delta_conjugators(c4c6, "v", Subgroup(group, (0, 2)))
    for call in (
        lambda chi: find_delta_conjugators(c4c6, "v", chi),
        lambda chi: attach_amalgam_vertex(c4c6, "v", chi, table),
    ):
        with pytest.raises(ValueError) as info:
            call(Subgroup(group, elements))
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# Per-call image tables against translating every concatenation afresh

C08_WITNESSES = [pytest.param(w, id=label) for label, w in c08_witnesses()]


def _reports(w, radius):
    validated = validate_witness(w)
    balls = witness_ball_report(w, radius)
    return (validated.ok, validated.problems, validated.counts), (balls.ok, balls.problems, balls.counts)


def _spoiled(w):
    """The witness with ψ of its first generator replaced by ψ of its last."""
    gens = presentation(w.source).generators
    return GogIsoWitness(w.source, w.target, {**w.psi, gens[0]: w.psi[gens[-1]]}, w.phi)


@pytest.mark.parametrize("w", C08_WITNESSES)
@pytest.mark.parametrize("radius", (2, 3))
def test_witness_reports_match_the_concatenated_translation(w, radius, monkeypatch):
    spoiled = _spoiled(w)
    assert validate_witness(w).ok and not validate_witness(spoiled).ok
    for witness in (w, spoiled):
        new = _reports(witness, radius)
        with monkeypatch.context() as m:
            m.setattr("gogkit.surgery._translator",
                      lambda *maps: partial(translate_concatenated, *maps))
            assert _reports(witness, radius) == new


@pytest.mark.parametrize("w", C08_WITNESSES)
def test_translate_matches_the_concatenated_translation(w):
    for mapping, g_from, g_to in ((w.psi, w.source, w.target), (w.phi, w.target, w.source)):
        words = list(presentation(g_from).relators)
        if g_from.all_tables():
            words += [Word(x.syllables) for x in ball(g_from, 2)]
        for word in words:
            assert translate(mapping, g_from, g_to, word) == translate_concatenated(
                mapping, g_from, g_to, word
            )


def _malformed_texts(*args):
    texts = []
    for run in (translate, translate_concatenated):
        with pytest.raises(MalformedWord) as exc:
            run(*args)
        texts.append(str(exc.value))
    return texts


def test_a_malformed_image_raises_at_the_same_syllable(c4c6):
    out, w = reverse_edge(c4c6, "e")
    psi = {**w.psi, (VERTEX, "w", 2): Word(((VERTEX, "v", 1), (VERTEX, "v", 99)))}
    word = parse_word(c4c6, "v:g1 * w:g1 * w:g2 * v:g1 * w:g2")
    assert _malformed_texts(psi, c4c6, out, word) == ["bad element handle 99 at vertex 'v'"] * 2
    # Two bad images: the first one in the word is named, as before.
    psi[(VERTEX, "w", 1)] = Word((("t", "zz", 1),))
    first, second = _malformed_texts(psi, c4c6, out, word)
    assert first == second and "('t', 'zz', 1)" in first


def test_witness_maps_are_read_afresh_on_every_call(c4c6):
    out, w = reverse_edge(c4c6, "e")
    assert validate_witness(w).ok and witness_ball_report(w, 2).ok
    w.psi[(VERTEX, "v", 2)] = parse_word(out, "v:g1")
    assert not validate_witness(w).ok
    assert apply_psi(w, nf(c4c6, "v:g2")).text() == "v:g1"

"""Command-line interface over documents, derivations, trees, quotients, surgery.

Exit codes: 0 success, 1 a property violation was found, 2 invalid input,
3 a search was exhausted or inconclusive.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .derivation import (
    accessibility_derivation,
    derivation_data,
    derivation_from_data,
    dunwoody_derivation,
    evaluate,
    kernel_scan,
)
from .documents import load_document, save_document
from .errors import Exhausted, GogkitError
from .finite_group import Subgroup
from .fixtures import FIXTURE_NAMES, load_fixture
from .gog import Subgraph, ball, nf, table_group, table_subgroup, validate
from .quotients import (
    quotient_data,
    quotient_from_data,
    search_quotient,
    subgraph_gog,
)
from .structure_tree import ball_to_dot, fixed_vertex, tree_ball
from .surgery import (
    attach_amalgam_vertex,
    collapse_to_amalgam,
    collapse_tree_edge,
    expand_vertex,
    find_delta_conjugators,
    reverse_edge,
    validate_witness,
    witness_transcript,
)

OK, VIOLATION, INVALID, EXHAUSTED = 0, 1, 2, 3


def _load(ref: str):
    """A graph of groups from a document path or a bundled fixture name."""
    if ref in FIXTURE_NAMES:
        return load_fixture(ref)
    if os.path.exists(ref):
        return load_document(ref).gog
    raise ValueError(f"{ref!r} is neither a file nor one of {FIXTURE_NAMES}")


def _words(g, text: str):
    return [nf(g, part) for part in text.split(";") if part.strip()]


def _subgraph(g, text: str) -> Subgraph:
    """Parse 'v1,v2' or 'v1,v2:e1,e2' into a designated subgraph."""
    vertex_part, _, edge_part = text.partition(":")
    vertices = {v.strip() for v in vertex_part.split(",") if v.strip()}
    edges = {e.strip() for e in edge_part.split(",") if e.strip()}
    return Subgraph.of(vertices, edges)


def _subgroup(g, vid: str, text: str) -> Subgroup:
    """The subgroup of the table group at ``vid`` whose handles ``text`` lists
    ('0,2'), checked by ``table_subgroup``."""
    handles = {int(part) for part in text.split(",") if part.strip()}
    return table_subgroup(g, vid, Subgroup(table_group(g, vid), tuple(handles)))


def _print_quotient(q):
    print(f"target {q.target.name or 'table'} (order {q.target.order})")
    for vid in sorted(q.vertex_images):
        print(f"  {vid}: {list(q.vertex_images[vid])}")
    for eid in sorted(q.letter_images):
        print(f"  t({eid}) -> {q.letter_images[eid]}")


def _write_json(path: str, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _finish_surgery(args, out, witness) -> int:
    report = validate_witness(witness)
    print(report.summary())
    if args.out:
        save_document(out, args.out)
        print(f"wrote {args.out}")
    if args.transcript:
        _write_json(args.transcript, witness_transcript(args.op, witness))
    return OK if report.ok else VIOLATION


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_validate(args) -> int:
    g = _load(args.gog)
    report = validate(g)
    print(report.summary())
    return OK if report.ok else INVALID


def cmd_nf(args) -> int:
    g = _load(args.gog)
    print(nf(g, args.word).text())
    return OK


def cmd_eq(args) -> int:
    g = _load(args.gog)
    a, b = nf(g, args.w1), nf(g, args.w2)
    if a == b:
        print(f"equal: {a.text()}")
    else:
        print(f"different: {a.text()} vs {b.text()}")
    return OK


def cmd_ball(args) -> int:
    g = _load(args.gog)
    elements = [x.text() for x in ball(g, args.radius)]
    if args.json:
        print(json.dumps({"radius": args.radius, "count": len(elements), "elements": elements},
                         indent=2))
        return OK
    print(f"{len(elements)} elements (radius {args.radius})")
    for text in elements:
        print(text)
    return OK


def _build_derivation(args, g):
    """The derivation of a ``deriv`` command: read from --deriv, else built by --kind."""
    if getattr(args, "deriv", None):
        with open(args.deriv, encoding="utf-8") as fh:
            return derivation_from_data(g, fh.read())
    if args.base is None or args.mod is None:
        raise ValueError("kernel-scan needs --deriv, or --base/--mod to build one")
    if args.kind == "access":
        return accessibility_derivation(g, args.base, args.mod)
    if args.target is None:
        raise ValueError("a dunwoody derivation needs --target")
    return dunwoody_derivation(g, args.base, args.target, args.mod)


def cmd_deriv_build(args) -> int:
    d = _build_derivation(args, _load(args.gog))
    data = derivation_data(d)
    print(f"derivation mod {d.mod}, {len(d.components)} component(s)")
    if args.out:
        _write_json(args.out, data)
    else:
        print(json.dumps(data, indent=2, sort_keys=True))
    return OK


def cmd_deriv_eval(args) -> int:
    g = _load(args.gog)
    d = _build_derivation(args, g)
    values = evaluate(d, nf(g, args.word))
    for i, v in enumerate(values):
        print(f"component {i}: {v.text()}")
    return OK


def cmd_deriv_kernel_scan(args) -> int:
    g = _load(args.gog)
    d = _build_derivation(args, g)
    designation = args.subgroup if "," not in args.subgroup and ":" not in args.subgroup else _subgraph(g, args.subgroup)
    report = kernel_scan(d, designation, args.radius)
    if args.json:
        print(json.dumps({"elements": report.counts["elements"],
                          "mismatches": report.counts["mismatches"],
                          "problems": report.problems, "ok": report.ok}, indent=2))
    else:
        print(f"{report.counts['mismatches']} mismatches / {report.counts['elements']} elements")
        for line in report.problems:
            print(line)
    return OK if report.ok else VIOLATION


def cmd_tree_ball(args) -> int:
    g = _load(args.gog)
    tb = tree_ball(g, args.radius)
    if args.dot:
        print(ball_to_dot(tb), end="")
        return OK
    print(f"{len(tb.vertices)} vertices, {len(tb.edges)} edges (radius {args.radius})")
    print(f"tree: {tb.is_tree()}")
    return OK if tb.is_tree() else VIOLATION


def cmd_tree_fix(args) -> int:
    """``tree fix`` and ``tree conj``: the fixed vertex, read as a coset or a conjugator."""
    g = _load(args.gog)
    tv = fixed_vertex(g, _words(g, args.elements))
    if args.op == "fix":
        print(f"fixed vertex at {tv.vertex_id}, coset rep {tv.rep.text()}")
    else:
        print(f"conjugator {tv.rep.text()} into vertex {tv.vertex_id}")
    return OK


def cmd_quotient(args) -> int:
    g = _load(args.gog)
    kwargs = {"targets": args.degree if args.degree else None}
    if args.op == "separate":
        if not args.elements:
            raise ValueError("separate needs --elements")
        kwargs["elements"] = _words(g, args.elements)
    elif args.op == "embed":
        if not args.vertex or not args.subgroup:
            raise ValueError("embed needs --vertex and --subgroup")
        kwargs["vertex"] = args.vertex
        kwargs["subgroup"] = _subgroup(g, args.vertex, args.subgroup)
    else:
        if not args.subgraph or not args.given:
            raise ValueError("refine needs --subgraph and --given")
        sub = _subgraph(g, args.subgraph)
        restriction = subgraph_gog(g, sub)
        with open(args.given, encoding="utf-8") as fh:
            kwargs["subgraph"] = sub
            kwargs["given"] = quotient_from_data(restriction, fh.read())
    q = search_quotient(g, args.op, **kwargs)
    _print_quotient(q)
    if args.out:
        _write_json(args.out, quotient_data(q))
    return OK


def cmd_surgery(args) -> int:
    g = _load(args.gog)
    if args.op == "reverse":
        out, witness = reverse_edge(g, args.edge)
    elif args.op == "collapse":
        out, witness = collapse_tree_edge(g, args.edge)
    elif args.op == "expand":
        out, witness = expand_vertex(g, args.vertex)
    elif args.op == "attach":
        chi = _subgroup(g, args.vertex, args.chi)
        table = find_delta_conjugators(g, args.vertex, chi)
        if table is None:
            print(f"no conjugator table within the vertex group at {args.vertex}")
            return EXHAUSTED
        out, witness = attach_amalgam_vertex(g, args.vertex, chi, table)
    else:  # amalgamate: read the two-factor shape off the graph
        desc = collapse_to_amalgam(g, _subgraph(g, args.subgraph))
        print(f"amalgam over edge {desc.edge}")
        print(f"  delta: vertices {sorted(desc.delta_vertices)}")
        print(f"  chi:   {list(desc.chi.elements)} at {desc.delta_vertex}")
        print(f"  lambda: vertices {sorted(desc.lambda_subgraph.vertices)}")
        return OK
    print(
        f"{args.op}: {len(out.graph.vertices)} vertices, "
        f"{len(out.graph.edges)} edges, basepoint {out.basepoint}"
    )
    return _finish_surgery(args, out, witness)


def cmd_verify(args) -> int:
    from .acceptance import run_checks

    results = run_checks(args.fixture)
    failed = sum(not res.ok for res in results)
    if args.json:
        checks = [
            {"name": r.name, "ok": r.ok, "counts": dict(sorted(r.counts.items())),
             "problems": r.problems, "seconds": round(r.seconds, 6)}
            for r in results
        ]
        report = {"checks": checks, "passed": len(results) - failed, "total": len(results)}
        print(json.dumps(report, indent=2))
        return OK if failed == 0 else VIOLATION
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        extra = ", ".join(f"{k}={v}" for k, v in sorted(res.counts.items()))
        print(f"{status} {res.name}" + (f" ({extra})" if extra else ""))
        for line in res.problems:
            print(f"  {line}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return OK if failed == 0 else VIOLATION


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gogkit",
        description="Graphs of finite groups: normal forms, derivations, "
        "structure trees, finite quotients, decomposition surgery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all structural invariants of a document")
    p.add_argument("gog", help="document path or bundled fixture name")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("nf", help="normal form of a word")
    p.add_argument("gog")
    p.add_argument("--word", required=True)
    p.set_defaults(handler=cmd_nf)

    p = sub.add_parser("eq", help="decide equality of two words")
    p.add_argument("gog")
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.set_defaults(handler=cmd_eq)

    p = sub.add_parser("ball", help="enumerate normal forms up to a syllable radius")
    p.add_argument("gog")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--json", action="store_true",
                   help="print one JSON object with the radius, count and elements in ball order")
    p.set_defaults(handler=cmd_ball)

    p = sub.add_parser("deriv", help="build, evaluate, and scan derivations")
    dsub = p.add_subparsers(dest="op", required=True)
    for op in ("dunwoody", "access"):
        d = dsub.add_parser(op)
        d.add_argument("gog")
        d.add_argument("--base", required=True, help="vertex whose group is retracted onto")
        if op == "dunwoody":
            d.add_argument("--target", required=True, help="vertex the edge-sum values live at")
        d.add_argument("--mod", type=int, required=True)
        d.add_argument("--out", help="write the derivation as JSON")
        d.set_defaults(handler=cmd_deriv_build, kind=op)
    d = dsub.add_parser("eval")
    d.add_argument("gog")
    d.add_argument("--deriv", required=True, help="derivation JSON file")
    d.add_argument("--word", required=True)
    d.set_defaults(handler=cmd_deriv_eval)
    d = dsub.add_parser("kernel-scan")
    d.add_argument("gog")
    d.add_argument("--subgroup", required=True, help="vertex id, or 'v1,v2:e1,e2' subgraph")
    d.add_argument("--radius", type=int, required=True)
    d.add_argument("--deriv", help="derivation JSON file (otherwise built here)")
    d.add_argument("--kind", choices=("dunwoody", "access"), default="dunwoody")
    d.add_argument("--base")
    d.add_argument("--target")
    d.add_argument("--mod", type=int)
    d.add_argument("--json", action="store_true",
                   help="print one JSON object with the elements, mismatches, problems and verdict")
    d.set_defaults(handler=cmd_deriv_kernel_scan)

    p = sub.add_parser("tree", help="explore the coset tree")
    tsub = p.add_subparsers(dest="op", required=True)
    t = tsub.add_parser("ball")
    t.add_argument("gog")
    t.add_argument("--radius", type=int, required=True)
    t.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    t.set_defaults(handler=cmd_tree_ball)
    for op in ("fix", "conj"):
        t = tsub.add_parser(op)
        t.add_argument("gog")
        t.add_argument("--elements", required=True, help="words separated by ';'")
        t.set_defaults(handler=cmd_tree_fix)

    p = sub.add_parser("quotient", help="search finite quotients with a stated goal")
    qsub = p.add_subparsers(dest="op", required=True)
    for op in ("separate", "embed", "refine"):
        q = qsub.add_parser(op)
        q.add_argument("gog")
        q.add_argument("--elements", help="words separated by ';' (separate)")
        q.add_argument("--vertex", help="vertex id (embed)")
        q.add_argument("--subgroup", help="handles like '0,2' (embed)")
        q.add_argument("--subgraph", help="'v1,v2:e1,e2' (refine)")
        q.add_argument("--given", help="quotient JSON of the restriction (refine)")
        q.add_argument("--degree", type=int, help="extend targets to symmetric groups of this degree")
        q.add_argument("--out", help="write the found quotient as JSON")
        q.set_defaults(handler=cmd_quotient)

    p = sub.add_parser("surgery", help="rewrite the graph of groups with witnesses")
    ssub = p.add_subparsers(dest="op", required=True)
    for op in ("reverse", "collapse", "expand", "attach", "amalgamate"):
        s = ssub.add_parser(op)
        s.add_argument("gog")
        if op in ("reverse", "collapse"):
            s.add_argument("--edge", required=True)
        if op in ("expand", "attach"):
            s.add_argument("--vertex", required=True)
        if op == "attach":
            s.add_argument("--chi", required=True, help="subgroup handles like '0,2'")
        if op == "amalgamate":
            s.add_argument("--subgraph", required=True, help="'v1,v2:e1,e2' for the Λ factor")
        else:
            s.add_argument("--out", help="write the rewritten document")
            s.add_argument("--transcript", help="write a replayable witness transcript")
        s.set_defaults(handler=cmd_surgery)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("what", choices=("all",))
    p.add_argument("--fixture", choices=FIXTURE_NAMES, help="restrict checks to one bundled fixture")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object with each check's counts, problems and seconds")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exhausted as ex:
        print(f"exhausted: {ex}", file=sys.stderr)
        return EXHAUSTED
    except (GogkitError, ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())

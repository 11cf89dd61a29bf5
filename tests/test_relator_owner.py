"""Only ``gog`` reads a presentation's relators; every other module asks ``gog.residues``.

A ``.relators`` read elsewhere is allowed only as the argument of ``len(...)``,
where a report counts the relators it checked.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gogkit").glob("*.py"))


def relator_reads(source: str) -> list[int]:
    """Lines that read a ``.relators`` attribute other than as ``len``'s argument."""
    tree = ast.parse(source)
    counted = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "len" and len(node.args) == 1
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "relators" and id(node) not in counted
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "gog.py"], ids=lambda p: p.name)
def test_only_gog_reads_relators(path):
    assert relator_reads(path.read_text(encoding="utf-8")) == []


def test_the_scan_flags_relator_reads():
    assert {p.name for p in SOURCES} >= {"acceptance.py", "derivation.py", "quotients.py", "surgery.py"}
    source = (
        "n = len(presentation(g).relators)\n"
        "for r in presentation(g).relators:\n"
        "    pass\n"
        "rels = pres.relators\n"
        "m = len(pres.relators[1:])\n"
    )
    assert relator_reads(source) == [2, 4, 5]

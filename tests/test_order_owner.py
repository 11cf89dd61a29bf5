"""Only ``gog`` spells out the order of normal forms; every other module asks ``NormalForm.sort_key``.

The order (syllable count, then word text) fixes ball order, tree-ball order
and nested transversals, so a second spelling of it could drift from the first.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gogkit").glob("*.py"))


def _is_syllable_count(node) -> bool:
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len"
        and len(node.args) == 1 and isinstance(node.args[0], ast.Attribute)
        and node.args[0].attr == "syllables"
    )


def _is_text_call(node) -> bool:
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "text" and not node.args
    )


def order_keys(source: str) -> list[int]:
    """Lines that build a tuple holding both ``len(….syllables)`` and ``….text()``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Tuple)
        and any(map(_is_syllable_count, node.elts)) and any(map(_is_text_call, node.elts))
    )


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "gog.py"], ids=lambda p: p.name)
def test_only_gog_spells_out_the_order(path):
    assert order_keys(path.read_text(encoding="utf-8")) == []


def test_gog_spells_it_out_once():
    gog = next(p for p in SOURCES if p.name == "gog.py")
    assert len(order_keys(gog.read_text(encoding="utf-8"))) == 1


def test_the_scan_flags_order_keys():
    assert {p.name for p in SOURCES} >= {"group_ring.py", "structure_tree.py"}
    source = (
        "sorted(xs, key=lambda x: (len(x.syllables), x.text()))\n"
        "key = (e.edge_id, len(e.rep.syllables), e.rep.text())\n"
        "sorted(xs, key=NormalForm.sort_key)\n"
        "pair = (len(x.syllables), x.owner)\n"
        "return len(self.syllables), self.text()\n"
    )
    assert order_keys(source) == [1, 2, 5]

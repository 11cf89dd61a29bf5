"""Only ``gog`` decides that an argument belongs to a graph of groups.

Three gates in ``gog`` own the decision: ``_owned`` (a normal form of g),
``_vertex_group`` (a vertex id) and ``_edge_ends`` (an edge id).  Every other
module calls them, so each refusal reads one way wherever it is raised, and
an id is quoted through ``errors.quote``.  Outside ``gog``, ``MixedOwners``
is raised only for pairs that hold no graph argument: two ring vectors
(``group_ring._check_pair``) and two witnesses (``surgery.compose_witness``).
``parse_word`` names an unknown id of a word token in its own
``MalformedWord`` texts.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gogkit").glob("*.py"))
MIXED_OWNER_RAISES = {
    "gog.py": ["_owned"],
    "group_ring.py": ["_check_pair"],
    "surgery.py": ["compose_witness"],
}
GATE_TEXTS = ("unknown vertex", "unknown edge", "normal form belongs to a different graph of groups")


def _nodes(source: str) -> list[tuple]:
    """(innermost enclosing function name or None, node) for every node."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            out.append((inner, child))
            visit(child, inner)

    visit(ast.parse(source), None)
    return out


def _is_mixed_owners(exc) -> bool:
    target = exc.func if isinstance(exc, ast.Call) else exc
    return (isinstance(target, ast.Name) and target.id == "MixedOwners") or (
        isinstance(target, ast.Attribute) and target.attr == "MixedOwners")


def mixed_owner_raises(source: str) -> list[str]:
    """The function around each ``raise MixedOwners…``, in source order."""
    return [where for where, node in _nodes(source)
            if isinstance(node, ast.Raise) and node.exc is not None and _is_mixed_owners(node.exc)]


def gate_texts(source: str, text: str) -> list[tuple]:
    """(function, line) of each string constant that begins with ``text``,
    f-string parts included."""
    return [(where, node.lineno) for where, node in _nodes(source)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith(text)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_mixed_owners_is_raised_by_the_owner_gate_and_for_other_pairs_only(path):
    source = path.read_text(encoding="utf-8")
    assert mixed_owner_raises(source) == MIXED_OWNER_RAISES.get(path.name, [])


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "gog.py"], ids=lambda p: p.name)
def test_only_gog_names_an_unknown_vertex_or_edge(path):
    source = path.read_text(encoding="utf-8")
    assert [found for text in GATE_TEXTS for found in gate_texts(source, text)] == []


@pytest.mark.parametrize("text, gate", zip(GATE_TEXTS, ("_vertex_group", "_edge_ends", "_owned")))
def test_gog_spells_each_gate_text_once(text, gate):
    gog = next(p for p in SOURCES if p.name == "gog.py")
    found = gate_texts(gog.read_text(encoding="utf-8"), text)
    assert [where for where, _ in found if where != "parse_word"] == [gate]


def test_the_scan_flags_spelled_out_gates():
    assert {p.name for p in SOURCES} >= {"gog.py", *MIXED_OWNER_RAISES, "structure_tree.py"}
    source = (
        "def _check_rep(g, x):\n"
        "    if x.owner is not g:\n"
        "        raise MixedOwners('representative belongs to a different graph of groups')\n"
        "    return x.syllables\n"
        "class AmalgamDescription:\n"
        "    def in_delta(self, x):\n"
        "        raise errors.MixedOwners\n"
        "def reverse_edge(g, e):\n"
        "    if e not in g.graph.edges:\n"
        "        raise ValueError(f'unknown edge {e!r}')\n"
        "    raise MixedOwnersError('other')\n"
    )
    assert mixed_owner_raises(source) == ["_check_rep", "in_delta"]
    assert gate_texts(source, "unknown edge") == [("reverse_edge", 10)]

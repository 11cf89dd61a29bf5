"""Every name a gogkit module imports is used in that module, and every
private helper it defines is read somewhere in the package."""
import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gogkit").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements (other than __future__) that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_sees_every_module():
    assert {p.name for p in SOURCES} >= {"gog.py", "surgery.py", "quotients.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_flags_an_unused_import():
    assert unused_imports("import json\nfrom os import path, sep\nprint(sep)\n") == [
        "json (line 1)",
        "path (line 2)",
    ]
    assert unused_imports("from __future__ import annotations\nimport re\nre.compile('x')\n") == []


def _reads(node) -> Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Private functions and classes, at module level or methods of a
    module-level class, that no module reads outside their own body."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        defs = list(tree.body)
        defs += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") and not name.endswith("__"):
                if reads[name] == _reads(node)[name]:
                    dead.append(f"{module}:{node.lineno} {name}")
    return dead


def test_every_private_helper_has_a_reader():
    assert dead_helpers({p.name: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def test_the_scan_flags_a_helper_nothing_reads():
    a = (
        "def _unit(g, s):\n    return _unit(g, s[1:]) if s else g\n"
        "def _used():\n    pass\n"
        "class K:\n    def _method(self):\n        return self._other()\n"
        "    def _other(self):\n        pass\n    def __len__(self):\n        return 0\n"
    )
    b = "from a import _used\n_used()\n"
    assert dead_helpers({"a.py": a, "b.py": b}) == ["a.py:1 _unit", "a.py:6 _method"]

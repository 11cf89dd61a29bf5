"""Every name a gogkit module imports is used in that module."""
import ast
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

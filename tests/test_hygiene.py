"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "fungrasp").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a name listed in
    __all__ counts as read, and so does `from __future__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def stale_exports(source: str) -> list[str]:
    """Names a module lists in __all__ but neither defines nor imports
    at its top level."""
    defined, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            defined |= names
            if "__all__" in names:
                exported = [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return sorted(name for name in exported if name not in defined)


def test_unused_import_scan_catches_one():
    assert unused_imports("import os\nimport json\nfrom a import b, c as d\nprint(json, d)\n") == [
        "b (line 3)", "os (line 1)",
    ]
    assert unused_imports("from __future__ import annotations\nfrom x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_stale_export_scan_catches_one():
    source = "from a import b\nX = 1\ndef f(): pass\nclass C: pass\n__all__ = ['b', 'X', 'f', 'C', 'gone']\n"
    assert stale_exports(source) == ["gone"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_stale_exports(path):
    assert stale_exports(path.read_text()) == []

"""Every name that a module of src/skalab or tests/ imports is used in that
module.

An AST scan: a name bound by an import counts as used when the module
refers to it as a name anywhere (an attribute chain ``a.b`` refers to
``a``).  ``__init__.py`` is skipped, since its imports re-export, and so are
``from __future__`` imports, which bind nothing.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skalab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, bound name) of every import whose name the module never uses."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math, os.path\nfrom itertools import product as p, islice\n\nos.sep\nislice\n"
    assert unused_imports(source) == [(2, "math"), (3, "p")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TESTS, ids=[p.name for p in TESTS])
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []

"""No module of src/skalab imports an underscore name from another skalab
module.

A leading underscore marks a name as its module's own: a helper that a
second module needs is public (``gf2.spread``, which the graph lattice and
``reconcile``'s joint decode share), and one that only its module calls is
private (``gf2._spread_fold``, which only ``gf2``'s own reductions
build).  An AST scan of every ``from`` import, relative or of ``skalab``;
``from __future__`` and the standard library are not skalab modules.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "skalab"
MODULES = sorted(SRC.glob("*.py"))


def private_imports(source: str) -> list:
    """(line, module, name) of every underscore name that source imports
    from a skalab module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").partition(".")[0] == "skalab"):
            out += [(node.lineno, node.module, a.name) for a in node.names if a.name.startswith("_")]
    return out


def test_scan_finds_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from itertools import _private\n"
        "from .gf2 import BitVec, _spread_fold\n"
        "from skalab.sources import _helper as helper\n"
        "from . import _module\n"
    )
    assert private_imports(source) == [(3, "gf2", "_spread_fold"), (4, "skalab.sources", "_helper"), (5, None, "_module")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []

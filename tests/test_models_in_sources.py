"""No module of src/skalab but sources.py names a model class.

Every other module reaches a model through ``parse_model_spec``,
``make_model`` and the model's own methods, so adding a model touches one
file.  An AST scan: a module names a model class when it imports one from
sources (or imports ``*`` from it) or reads one as an attribute, as in
``sources.LinePoint``.
"""

import ast
from pathlib import Path

import pytest

from skalab.sources import MODELS

SRC = Path(__file__).resolve().parents[1] / "src" / "skalab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "sources.py")
MODEL_CLASSES = {cls.__name__ for cls in MODELS.values()}


def model_class_uses(source: str) -> list:
    """(line, name) of every model class import or attribute in the module."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "sources":
            uses += [(node.lineno, a.name) for a in node.names if a.name in MODEL_CLASSES | {"*"}]
        elif isinstance(node, ast.Attribute) and node.attr in MODEL_CLASSES:
            uses.append((node.lineno, node.attr))
    return uses


def test_scan_finds_model_class_uses():
    source = (
        "from .sources import LinePoint, parse_model_spec\n"
        "from skalab.sources import *\n"
        "from .gf2 import BitVec\n"
        "m = sources.Triple(4)\n"
    )
    assert sorted(model_class_uses(source)) == [(1, "LinePoint"), (2, "*"), (4, "Triple")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_sources_names_a_model_class(path):
    assert model_class_uses(path.read_text()) == []

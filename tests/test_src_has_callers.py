"""Every public function, class and method in src/skalab has a caller.

A definition counts as called when src/ refers to it outside its own
definition, or when bench/ refers to it (a name, an attribute, or an
identifier inside a string other than a docstring, such as a call site the
tracer wraps) and bench/ defines no function or method of that name, which
the reference may mean instead (``Speedometer.scale`` is not a caller of a
src ``scale``).  In src/ a function or class is referred to by a name or an
attribute, and a method only by an attribute (``x.name``): a local variable
of the same name is not a call.  Imports and ``__all__`` entries only
re-export a name, and tests do not count: code that only tests reach
belongs in tests/.  Names are matched without their class, so a method
counts as called when any attribute of its name is.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skalab"
BENCH = ROOT / "bench"

# Deliberate definitions without a caller in src/ or bench/, one reason each.
ALLOWED = {
    "Transcript.parse": "reads back a dumped transcript: a party's key is recomputable from stored bytes",
}


def _public_definitions(tree):
    """(qualified name, node) of every public module-level function and
    class and of every public method of such a class."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, defs) and not m.name.startswith("_"):
                        yield f"{node.name}.{m.name}", m


def _references(tree, with_strings=False):
    """(name, line, is an attribute) of every Name and Attribute, and
    with_strings of every identifier inside a string constant other than a
    docstring, which is prose rather than a call site."""
    holders = ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
    docstrings = {ast.get_docstring(node, clean=False) for node in ast.walk(tree) if isinstance(node, holders)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value not in docstrings:
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno, False


def _uncalled():
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    src_refs = {path: list(_references(tree)) for path, tree in modules.items()}
    bench_trees = [ast.parse(path.read_text()) for path in BENCH.rglob("*.py")]
    functions = ast.FunctionDef, ast.AsyncFunctionDef
    bench_defs = {node.name for tree in bench_trees for node in ast.walk(tree) if isinstance(node, functions)}
    bench_refs = {name for tree in bench_trees for name, _, _ in _references(tree, True)} - bench_defs
    missing = {}
    for path, tree in modules.items():
        for qualname, node in _public_definitions(tree):
            if node.name in bench_refs:
                continue
            method = "." in qualname
            called = any(
                name == node.name
                and (attribute or not method)
                and not (other == path and node.lineno <= line <= node.end_lineno)
                for other, refs in src_refs.items()
                for name, line, attribute in refs
            )
            if not called:
                missing[qualname] = f"{path.name}:{node.lineno}"
    return missing


def test_every_public_definition_has_a_caller():
    missing = [f"{where} {name}" for name, where in _uncalled().items() if name not in ALLOWED]
    assert not missing, "defined in src/skalab but called only from tests (or not at all): " + ", ".join(missing)


def test_allowlist_is_not_stale():
    stale = sorted(set(ALLOWED) - set(_uncalled()))
    assert not stale, f"allowed but called: {stale}"

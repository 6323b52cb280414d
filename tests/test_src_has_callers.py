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
belongs in tests/.  An attribute whose receiver is a src class that
defines the name (``ClassName.name``, or ``self.name`` in that class's
methods) calls that class's method only; through any other receiver it
calls every method of its name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skalab"
BENCH = ROOT / "bench"

# Deliberate definitions without a caller in src/ or bench/, one reason each.
ALLOWED = {}


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


def _self_receivers(tree):
    """{id of Attribute node: class name} for every ``self.name`` in the
    methods of the module's classes, self being a method's first parameter
    unless it is a staticmethod."""
    out = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for m in cls.body:
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in getattr(m, "decorator_list", ()))
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and m.args.args and not static:
                first = m.args.args[0].arg
                for node in ast.walk(m):
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == first:
                        out[id(node)] = cls.name
    return out


def _references(tree, with_strings=False, methods=None):
    """(name, line, is an attribute, receiving class) of every Name and
    Attribute, and with_strings of every identifier inside a string
    constant other than a docstring, which is prose rather than a call
    site.  The receiving class is the class of methods (class name: names
    it defines) that an attribute is looked up on and that defines its
    name, else None."""
    methods = methods or {}
    holders = ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
    docstrings = {ast.get_docstring(node, clean=False) for node in ast.walk(tree) if isinstance(node, holders)}
    selves = _self_receivers(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False, None
        elif isinstance(node, ast.Attribute):
            receiver = selves.get(id(node)) or (node.value.id if isinstance(node.value, ast.Name) else None)
            yield node.attr, node.lineno, True, receiver if node.attr in methods.get(receiver, ()) else None
        elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value not in docstrings:
            for word in re.findall(r"\w+", node.value):
                yield word, node.lineno, False, None


def _uncalled(modules, bench_trees):
    """{qualified name: "file:line"} of the public definitions in modules
    (path: parsed src module) that neither src nor bench_trees call."""
    methods = {
        node.name: {m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    src_refs = {path: list(_references(tree, methods=methods)) for path, tree in modules.items()}
    functions = ast.FunctionDef, ast.AsyncFunctionDef
    bench_defs = {node.name for tree in bench_trees for node in ast.walk(tree) if isinstance(node, functions)}
    bench_refs = {name for tree in bench_trees for name, _, _, _ in _references(tree, True)} - bench_defs
    missing = {}
    for path, tree in modules.items():
        for qualname, node in _public_definitions(tree):
            if node.name in bench_refs:
                continue
            owner = qualname.rpartition(".")[0] or None
            called = any(
                name == node.name
                and (attribute or not owner)
                and receiver in (None, owner)
                and not (other == path and node.lineno <= line <= node.end_lineno)
                for other, refs in src_refs.items()
                for name, line, attribute, receiver in refs
            )
            if not called:
                missing[qualname] = f"{path.name}:{node.lineno}"
    return missing


def _repo_uncalled():
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    return _uncalled(modules, [ast.parse(path.read_text()) for path in BENCH.rglob("*.py")])


def test_a_reference_through_a_known_class_calls_only_its_method():
    source = (
        "class A:\n"
        "    def run(self):\n"
        "        return self.step(), A.check()\n"
        "    def step(self):\n"
        "        return 1\n"
        "    def check(self):\n"
        "        return 2\n"
        "class B:\n"
        "    def step(self):\n"
        "        return 3\n"
        "    def check(self):\n"
        "        return 4\n"
        "    def other(self):\n"
        "        return 5\n"
        "def main(x):\n"
        "    return A().run(), x.other(), B\n"
        "main(None)\n"
    )
    # B.step and B.check share their names only with calls through A; A().run
    # and x.other go through receivers of unknown type, so they match by name.
    assert _uncalled({Path("m.py"): ast.parse(source)}, []) == {"B.step": "m.py:9", "B.check": "m.py:11"}


def test_every_public_definition_has_a_caller():
    missing = [f"{where} {name}" for name, where in _repo_uncalled().items() if name not in ALLOWED]
    assert not missing, "defined in src/skalab but called only from tests (or not at all): " + ", ".join(missing)


def test_allowlist_is_not_stale():
    stale = sorted(set(ALLOWED) - set(_repo_uncalled()))
    assert not stale, f"allowed but called: {stale}"

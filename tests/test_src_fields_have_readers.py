"""Every field of a record type that src/skalab defines has a reader.

A record type is a dataclass or a named tuple (a class built on
``namedtuple(...)``, or a module-level ``Name = namedtuple(...)``).  A
field counts as read when src/ or bench/ refers to it as an attribute
(``x.name``, or ``getattr(x, "name", ...)`` as the benchmark's tracer
reads a decode's count), or when its class, or a src class it derives
from, reads all its fields at once (``vars(self)`` or ``fields(self)``, as
``AuditReport.records`` and ``Model.params`` do).  A field that nothing
reads is state that every construction still pays for; tests do not count
as readers, as in ``test_src_has_callers``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skalab"
BENCH = ROOT / "bench"

# Deliberate fields without a reader in src/ or bench/, one reason each.
ALLOWED = {
    "TranscriptAudit.rectangle_violations": "the exact audit's stated reason for a failed rectangle check, for whoever reads the result",
}

_WHOLE_READERS = {"vars", "fields"}


def _is_namedtuple_call(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "namedtuple"


def _namedtuple_fields(call) -> list:
    spec = call.args[1]
    return spec.value.replace(",", " ").split() if isinstance(spec, ast.Constant) else []


def _is_dataclass(cls) -> bool:
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _reads_all_fields(cls) -> bool:
    """Whether a method of cls passes self to vars() or fields()."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _WHOLE_READERS
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "self"
        for node in ast.walk(cls)
    )


def record_fields(trees):
    """{(class name, field name): "file:line"} of every field of every record
    type in trees (path: parsed module) whose class, and every src class it
    derives from, reads no field set at once."""
    classes = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}

    def whole(name, seen=()):
        cls = classes.get(name)
        if cls is None or name in seen:
            return False
        bases = [b.id for b in cls.bases if isinstance(b, ast.Name)]
        return _reads_all_fields(cls) or any(whole(b, (*seen, name)) for b in bases)

    out = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and _is_namedtuple_call(node.value):
                for name in _namedtuple_fields(node.value):
                    out[node.targets[0].id, name] = f"{path.name}:{node.lineno}"
            if not isinstance(node, ast.ClassDef) or whole(node.name):
                continue
            for base in node.bases:
                if _is_namedtuple_call(base):
                    for name in _namedtuple_fields(base):
                        out[node.name, name] = f"{path.name}:{node.lineno}"
            if _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        out[node.name, item.target.id] = f"{path.name}:{item.lineno}"
    return out


def _attributes(trees) -> set:
    """Every attribute name read as ``x.name`` or ``getattr(x, "name", ...)``."""
    out = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr" and len(node.args) > 1:
            if isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str):
                out.add(node.args[1].value)
    return out


def unread(src, bench) -> dict:
    """{"Class.field": "file:line"} of the record fields in src that no
    attribute in src or bench reads."""
    read = _attributes([*src.values(), *bench])
    return {f"{cls}.{name}": where for (cls, name), where in record_fields(src).items() if name not in read}


def _repo_unread():
    src = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    return unread(src, [ast.parse(path.read_text()) for path in BENCH.rglob("*.py")])


def test_fields_count_as_read_by_attribute_or_by_a_whole_record_reader():
    source = (
        "from collections import namedtuple\n"
        "from dataclasses import dataclass, fields\n"
        "Pair = namedtuple('Pair', 'left right')\n"
        "class Row(namedtuple('Row', 'a b')):\n"
        "    pass\n"
        "@dataclass(frozen=True)\n"
        "class Plan:\n"
        "    size: int\n"
        "    spare: int\n"
        "class Base:\n"
        "    def params(self):\n"
        "        return [f.name for f in fields(self)]\n"
        "@dataclass\n"
        "class Model(Base):\n"
        "    n: int\n"
        "def use(p, r, q):\n"
        "    return p.size, r.a, q.left\n"
    )
    # Model's n is read through Base.params; fields read only from bench count.
    bench = ast.parse("def run(r, q):\n    return r.b, getattr(q, 'right', 0)\n")
    got = unread({Path("m.py"): ast.parse(source)}, [bench])
    assert got == {"Plan.spare": "m.py:9"}


def test_every_record_field_has_a_reader():
    missing = [f"{where} {name}" for name, where in _repo_unread().items() if name not in ALLOWED]
    assert not missing, "record fields that nothing in src/skalab or bench reads: " + ", ".join(missing)


def test_field_allowlist_is_not_stale():
    stale = sorted(set(ALLOWED) - set(_repo_unread()))
    assert not stale, f"allowed but read: {stale}"

"""Only the plan knows a protocol by name.

``protocols._plan`` lays out every public seed and hash of a session as
plain data, and every later step (broadcast, reconciliation, the key chain)
reads that layout.  An AST scan of ``protocols.py`` fails if any function
other than the config check and the plan reads a ``.protocol`` attribute,
names ``LIGHT``, ``TWO_PHASE`` or ``OMNISCIENCE``, or spells a protocol
name as a string.  The module-level constants and ``PROTOCOLS`` are not in
a function, so they are exempt.
"""

import ast
from pathlib import Path

PROTOCOLS_PY = Path(__file__).resolve().parents[1] / "src" / "skalab" / "protocols.py"
ALLOWED = {"SessionConfig.__post_init__", "session_plan", "_plan"}
NAMES = {"LIGHT", "TWO_PHASE", "OMNISCIENCE"}
SPELLED = {"light", "two_phase", "omniscience"}


def _functions(tree):
    """(qualified name, node) of every function and method, outermost first."""
    stack = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            stack += [(child, name + ".") for child in node.body]


def protocol_dispatch(source: str) -> list:
    """(function, line, what) of every protocol read outside ALLOWED."""
    out = []
    for name, fn in _functions(ast.parse(source)):
        if name in ALLOWED:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "protocol":
                out.append((name, node.lineno, ".protocol"))
            elif isinstance(node, ast.Name) and node.id in NAMES:
                out.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Constant) and node.value in SPELLED:
                out.append((name, node.lineno, repr(node.value)))
    return out


def test_scan_finds_protocol_dispatch():
    source = (
        "LIGHT = 'light'\n"
        "PROTOCOLS = (LIGHT,)\n"
        "def _plan(protocol):\n"
        "    return protocol == LIGHT\n"
        "def execute(plan):\n"
        "    return plan.protocol\n"
        "class Runner:\n"
        "    def run(self, p):\n"
        "        return p == OMNISCIENCE or p == 'two_phase'\n"
    )
    assert sorted(protocol_dispatch(source)) == [
        ("Runner.run", 9, "'two_phase'"),
        ("Runner.run", 9, "OMNISCIENCE"),
        ("execute", 6, ".protocol"),
    ]


def test_only_the_plan_reads_the_protocol():
    assert protocol_dispatch(PROTOCOLS_PY.read_text()) == []

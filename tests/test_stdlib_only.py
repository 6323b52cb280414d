"""skalab runs on the Python standard library alone."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys

BLOCKED = ("numpy", "mpmath")


class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, Blocker())
sys.path.insert(0, SRC)

import skalab, skalab.audit, skalab.cli, skalab.runner
from fractions import Fraction
from skalab.audit import conditional_uniformity, exact_small_n_audit
from skalab.protocols import SessionConfig
from skalab.sources import parse_model_spec

mc = conditional_uniformity(SessionConfig(parse_model_spec("identical:n=4"), "light", Fraction(1, 4), 1), 300)
exact = exact_small_n_audit(SessionConfig(parse_model_spec("line-point:n=2"), "light", Fraction(1, 4), 1))
assert not mc.inconclusive and exact.audit.residual_i.sign() >= 0
assert not [m for m in sys.modules if m.partition(".")[0] in BLOCKED]
print("ok")
"""


def test_skalab_imports_and_audits_without_numpy_or_mpmath():
    child = subprocess.run(
        [sys.executable, "-I", "-c", f"SRC = {str(SRC)!r}\n{CHILD}"],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "ok\n"

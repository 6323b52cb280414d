"""The benchmark still runs against the program: bench/ imports session
entry points by name (run_session, party_key_from_transcript,
session_streams, trial_rows), so a refactor that drops one fails here.
The audit workload's correctness check runs the exact audits' rectangle
and residual checks, so it covers the decode memo and the uniform joint
distribution too.  Each workload's determinism digest (a SHA-256 over the
checked passes' CSV rows, transcripts and audit records, the same for any
run length) is pinned, so a change to the program that alters any of
those bytes at seed 1 fails here.

The bench's setup_s times its import probe in a fresh interpreter, so the
probe's imports must stay free of work that only the CLI or a session
needs."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench" / "run.py"

# Run after the bench's import probe, in the same fresh interpreter.
PROBE_CHECKS = """
assert "argparse" not in sys.modules and "skalab.cli" not in sys.modules, "the probe loads the CLI"
filled = [
    f"{name}.{attr}"
    for name, module in list(sys.modules.items())
    if name == "skalab" or name.startswith("skalab.")
    for attr, value in vars(module).items()
    if callable(getattr(value, "cache_info", None)) and value.cache_info().currsize
]
assert not filled, f"importing fills caches: {filled}"
"""


SEED1_DIGESTS = {
    "pair-affine": "33bbc71b1f6d11f095b7765ee9cfc76071b7bfc88c91a8a508831bbb5b5eba7f",
    "pair-hamming": "8a3f952c7849bff0f5a9b6a0a32dc001be1458c42b7dfbee1e2ef93cb6b5d0da",
    "triple-omni": "ebc23b12c7de8ff5aa39cdf4d7f46b09166c7a39bdc094d27657bffa801c57f8",
    "audit": "1cd90dc4e9979f03c4397508ff0f57389b131c55f782384ab4e6f9c0f54db317",
}


@pytest.mark.parametrize("workload", list(SEED1_DIGESTS))
def test_bench_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    digests = [line.split()[-1] for line in proc.stdout.splitlines() if line.strip().startswith("determinism digest ")]
    assert digests == [SEED1_DIGESTS[workload]]


def test_import_probe_loads_no_cli_and_fills_no_cache():
    tree = ast.parse(BENCH.read_text())
    (probe,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "IMPORT_PROBE"
    ]
    assert "import skalab.audit, skalab.runner" in probe
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe + "\n" + PROBE_CHECKS, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    float(proc.stdout)  # the probe's one line: the seconds the imports took


@pytest.mark.parametrize(
    "span",
    ["hashext.hash", "gf2.solve", "reconcile.decode", "reconcile.multi_decode", "sources.sample", "channel.read", "rateregion.lp"],
)
def test_traced_span_has_a_live_call_site(span):
    # The tracer skips a call site that the program no longer has, and every
    # metric fed by it then reads zero; the per-layer hashing, solve,
    # decode, sampling, transcript-read and rate-LP figures need at least
    # one entry of each span that still resolves.  The transcript read is a
    # method of a tuple subclass (`Transcript.one`), and the LP is reached
    # through the name that `protocols` imports.
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH.parent / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    live = []
    for module_name, attribute, names, _hook in tracing.CALL_SITES:
        if span not in names:
            continue
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if callable(owner):
            live.append(f"{module_name}.{attribute}")
    assert live, f"no call site of {span} resolves"

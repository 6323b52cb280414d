"""The benchmark still runs against the program: bench/ imports session
entry points by name (run_session, party_key_from_transcript,
session_streams, trial_rows), so a refactor that drops one fails here.
The audit workload's correctness check runs the exact audits' rectangle
and residual checks, so it covers the decode memo and the uniform joint
distribution too."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["pair-affine", "pair-hamming", "triple-omni", "audit"])
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

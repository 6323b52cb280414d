"""Golden bytes: SHA-256 pins over the CSV text, transcripts and exact-audit
records of fixed-seed runs.

A refactor of the session code must leave every byte that a fixed seed
produces unchanged; these digests were taken before the session driver was
restructured and must not be regenerated to make a change pass.
"""

import hashlib
from fractions import Fraction

import pytest

from skalab.audit import exact_small_n_audit
from skalab.protocols import Margins, SessionConfig, run_session
from skalab.runner import ExperimentPlan, run_plan
from skalab.sources import parse_model_spec

ACCEPTANCE_OMNI_MARGINS = Margins(k_slack=16, phase1=4, deficiency=2, extractor_eps=Fraction(1, 4))

SESSION_CASES = {
    "light line-point:n=16": ("line-point:n=16", "light", Fraction(1, 256), 301, None, 20),
    "two_phase line-point:n=16": ("line-point:n=16", "two_phase", Fraction(1, 16), 302, None, 20),
    "light hamming:n=31,t=2": ("hamming:n=31,t=2", "light", Fraction(1, 256), 303, None, 10),
    "two_phase hamming:n=31,t=2": ("hamming:n=31,t=2", "two_phase", Fraction(1, 16), 304, None, 10),
    "omniscience triple:n=16": ("triple:n=16", "omniscience", Fraction(1, 64), 305, ACCEPTANCE_OMNI_MARGINS, 6),
}

GOLDEN = {
    "light line-point:n=16": "48121aee5942276069fb5f09588783e3fae973ac5c1a1c963a2f17116a3aca7b",
    "two_phase line-point:n=16": "d9a684633d11ae6069f35dc8c3d4b7b0b17202ad647782cd078972fc2aff0978",
    "light hamming:n=31,t=2": "5ba0db56407ba37ee10c25f5d3aca91ff244bb3646b2d93a07f26fcab5482cc2",
    "two_phase hamming:n=31,t=2": "a2e51a5878781836a4bab81f7c7b469897b219963286f997a382eaded9c0acae",
    "omniscience triple:n=16": "65136e93ca2b0a0f4908370d00e3d45bd945aa675e662167915940c1fc3de598",
    "exact light line-point:n=3": "fd2d58b7c1ffd898886e9ddfac7c3bdad479c7d3346a544d06604ce746f284c5",
}


def session_digest(spec, protocol, eps, seed, margins, trials) -> str:
    config = SessionConfig(parse_model_spec(spec), protocol, eps, seed, margins)
    h = hashlib.sha256()
    h.update(run_plan(ExperimentPlan((config,), trials, seed))["csv"].encode())
    for t in range(trials):
        h.update(run_session(config, t).transcript.dump().encode())
    return h.hexdigest()


def exact_record(result) -> str:
    a = result.audit
    return (
        f"instances={result.instances} key_len={result.key_len} "
        f"agreement_rate={result.agreement_rate!r} h_key_given_view={result.h_key_given_view!r} "
        f"residual_i={a.residual_i!r} residual_j={a.residual_j!r} rectangle_ok={a.rectangle_ok}\n"
    )


@pytest.mark.parametrize("case", sorted(SESSION_CASES))
def test_session_bytes_unchanged(case):
    assert session_digest(*SESSION_CASES[case]) == GOLDEN[case]


def test_exact_audit_record_unchanged():
    config = SessionConfig(parse_model_spec("line-point:n=3"), "light", Fraction(1, 2), 306)
    h = hashlib.sha256()
    for label in range(3):
        h.update(exact_record(exact_small_n_audit(config, public_label=label)).encode())
    assert h.hexdigest() == GOLDEN["exact light line-point:n=3"]

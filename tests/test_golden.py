"""Golden bytes: SHA-256 pins over the CSV text, transcripts and the exact and
Monte-Carlo audit records of fixed-seed runs.

A refactor of the session code or of the GF(2) kernels must leave every
byte that a fixed seed produces unchanged; each digest was taken before the
code it pins was restructured and must not be regenerated to make a change
pass.
"""

import hashlib
from fractions import Fraction

import pytest

from skalab.audit import conditional_uniformity, exact_small_n_audit
from skalab.protocols import Margins, SessionConfig, run_session
from skalab.runner import run_plan
from skalab.sources import parse_model_spec

ACCEPTANCE_OMNI_MARGINS = Margins(k_slack=16, phase1=4, deficiency=2, extractor_eps=Fraction(1, 4))
TINY_OMNI_MARGINS = Margins(k_slack=0, phase1=2, deficiency=0, extractor_eps=Fraction(1, 2))

SESSION_CASES = {
    "light line-point:n=16": ("line-point:n=16", "light", Fraction(1, 256), 301, None, 20),
    "two_phase line-point:n=16": ("line-point:n=16", "two_phase", Fraction(1, 16), 302, None, 20),
    "light hamming:n=31,t=2": ("hamming:n=31,t=2", "light", Fraction(1, 256), 303, None, 10),
    "two_phase hamming:n=31,t=2": ("hamming:n=31,t=2", "two_phase", Fraction(1, 16), 304, None, 10),
    "omniscience triple:n=16": ("triple:n=16", "omniscience", Fraction(1, 64), 305, ACCEPTANCE_OMNI_MARGINS, 6),
    # Wide shapes: Toeplitz seeds longer than 64 and 128 bits.
    "light line-point:n=62": ("line-point:n=62", "light", Fraction(1, 2**32), 307, None, 10),
    "light line-point:n=64": ("line-point:n=64", "light", Fraction(1, 2**32), 308, None, 10),
    "two_phase identical:n=64": ("identical:n=64", "two_phase", Fraction(1, 256), 309, None, 10),
    "light hamming:n=63,t=2": ("hamming:n=63,t=2", "light", Fraction(1, 2**32), 310, None, 4),
}

GOLDEN = {
    "light line-point:n=16": "48121aee5942276069fb5f09588783e3fae973ac5c1a1c963a2f17116a3aca7b",
    "two_phase line-point:n=16": "d9a684633d11ae6069f35dc8c3d4b7b0b17202ad647782cd078972fc2aff0978",
    "light hamming:n=31,t=2": "5ba0db56407ba37ee10c25f5d3aca91ff244bb3646b2d93a07f26fcab5482cc2",
    "two_phase hamming:n=31,t=2": "a2e51a5878781836a4bab81f7c7b469897b219963286f997a382eaded9c0acae",
    "omniscience triple:n=16": "65136e93ca2b0a0f4908370d00e3d45bd945aa675e662167915940c1fc3de598",
    "exact light line-point:n=3": "fd2d58b7c1ffd898886e9ddfac7c3bdad479c7d3346a544d06604ce746f284c5",
    "light line-point:n=62": "c33f53fca87e97e8aa1d4270d81e9f497ee369f8d90679f52ece8b53dad38e68",
    "light line-point:n=64": "9d86ad06a9382a1a4d7439ddf440af95a19e74ebcb45d1cb25b31ea278d92e6e",
    "two_phase identical:n=64": "d54ed3c3a9e07a0b874d31df9de7c5598b3e8e067c55e74d4fa26ff507fee393",
    "light hamming:n=63,t=2": "b54d93e7ba1b5258b1374cb759dab6192764c36cb45674c9e601309473243f9d",
    "exact omniscience triple:n=2": "540e3febf9cafeed749e90b3e9549017fe93943064709dc4693b4a3c82349a22",
    "mc light identical:n=8": "cec4a6d1b74d7531a50b3220bb2b499305297e8ab6d29b7d261bab1e56215820",
    "mc light line-point:n=4": "77f5dbf6e1afd30bb614cdae74fd4f71260104dbe79fac3189e621d7c02176f6",
}

# Monte-Carlo audits with the public seeds fixed across trials: (model, seed).
MC_CASES = {
    "mc light identical:n=8": ("identical:n=8", 312),
    "mc light line-point:n=4": ("line-point:n=4", 313),
}


def session_digest(spec, protocol, eps, seed, margins, trials) -> str:
    config = SessionConfig(parse_model_spec(spec), protocol, eps, seed, margins)
    h = hashlib.sha256()
    h.update(run_plan((config,), trials)["csv"].encode())
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


def test_exact_omniscience_audit_record_unchanged():
    # Enumerates every collinear triple, so it pins Triple.instances.
    config = SessionConfig(parse_model_spec("triple:n=2"), "omniscience", Fraction(1, 2**24), 311, TINY_OMNI_MARGINS)
    record = exact_record(exact_small_n_audit(config, public_label=0))
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN["exact omniscience triple:n=2"]


@pytest.mark.parametrize("case", sorted(MC_CASES))
def test_monte_carlo_audit_record_unchanged(case):
    spec, seed = MC_CASES[case]
    config = SessionConfig(parse_model_spec(spec), "light", Fraction(1, 4), seed)
    record = conditional_uniformity(config, trials=2000).records()
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN[case]

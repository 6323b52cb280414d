"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
output and timings.  Criterion 7's leftover-hash threshold is structurally
unattainable for this protocol family (see the decisions ledger and the
companion test's comments); it is implemented faithfully and marked as an
expected failure rather than weakened.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from codes import dense_matvec, hamming_parity_check, random_linear_code, syndrome_decode
from entropy_checks import (
    check_calculation_identity_a,
    check_calculation_identity_b,
    check_common_information_bound,
    check_half_sum_bound,
    check_z_function_of_each,
    extend_with,
    make_common_information_dist,
    make_identity_b_dist,
    make_shared_component_dist,
    random_joint,
    tv_distance,
)
from profile_tools import key_capacity, random_polymatroid
from skalab.audit import exact_small_n_audit
from skalab.gf2 import BitVec, Gf2Matrix, matvec
from skalab.protocols import (
    Margins,
    SessionConfig,
    run_session,
    session_plan,
)
from skalab.rateregion import co_formula3, co_lp, sw_constraints
from skalab.reconcile import STATUS_UNIQUE
from skalab.rng import SeedStream
from skalab.sources import parse_model_spec, sample


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")


# -----------------------------------------------------------------
# 1. Line-point key via the light protocol
# -----------------------------------------------------------------

def test_criterion_1_light_line_point():
    eps = Fraction(1, 256)
    config = SessionConfig(parse_model_spec("line-point:n=16"), "light", eps, seed=1001)
    plan = session_plan(config)
    assert plan.fp_rows == (24,)  # C(x|y) + log2(1/eps)
    assert plan.target_comm == 24
    start = time.monotonic()
    agreed = 0
    for t in range(2000):
        o = run_session(config, t)
        agreed += o.agreed
        assert o.key_len == 16
    elapsed = time.monotonic() - start
    rate = agreed / 2000
    ok = rate >= 1 - 2**-6 and elapsed < 10
    verdict(
        "1 light line-point(16)",
        ok,
        f"agreement={rate:.4f} (>= {1 - 2**-6:.4f}), key=16, payload=24, {elapsed:.1f}s",
    )
    assert rate >= 1 - 2**-6
    assert elapsed < 10


# -----------------------------------------------------------------
# 2. Two-phase protocol accounting
# -----------------------------------------------------------------

def test_criterion_2_two_phase_accounting():
    eps = Fraction(1, 16)
    config = SessionConfig(parse_model_spec("line-point:n=16"), "two_phase", eps, seed=1002)
    m = config.margins
    expect_key = 16 + m.phase1 - m.deficiency - 8  # I - margins, exact per config
    expect_msg = 16 + m.k_slack + 4  # C(x|y) + margins + check bits
    plan = session_plan(config)
    assert plan.target_key_len == 16
    assert plan.fp_rows == (expect_msg,)
    start = time.monotonic()
    agreed = 0
    for t in range(2000):
        o = run_session(config, t)
        agreed += o.agreed
        assert o.key_len == expect_key
    elapsed = time.monotonic() - start
    rate = agreed / 2000
    ok = rate >= 1 - 3 * float(eps) and elapsed < 30
    verdict(
        "2 two-phase line-point(16)",
        ok,
        f"agreement={rate:.4f}, key={expect_key}=I-margins, msg={expect_msg}<=C(x|y)+margins, {elapsed:.1f}s",
    )
    assert rate >= 1 - 3 * float(eps)
    assert elapsed < 30


# -----------------------------------------------------------------
# 3. Omniscience for the collinear triple
# -----------------------------------------------------------------

def test_criterion_3_omniscience():
    model = parse_model_spec("triple:n=16")
    profile = model.profile()
    total, rates = co_lp(sw_constraints(profile))
    closed = co_formula3(profile)
    assert total == 72 and closed == 72
    assert rates == (24, 24, 24)

    eps = Fraction(1, 64)
    # The paper-shaped default margins exceed the 8-bit key capacity at
    # n=16 (see decisions ledger); the run pins explicit small margins.
    margins = Margins(k_slack=16, phase1=4, deficiency=2, extractor_eps=Fraction(1, 4))
    config = SessionConfig(model, "omniscience", eps, seed=1003, margins=margins)
    plan = session_plan(config)
    assert plan.target_key_len == 8  # 5n - 4.5n = 0.5n
    assert plan.target_comm == 72
    assert plan.fp_rows == (24 + 6,) * 3
    start = time.monotonic()
    agreed = 0
    for t in range(500):
        o = run_session(config, t)
        agreed += o.agreed
        assert o.key_len == 8 + margins.phase1 - margins.deficiency - 4
    elapsed = time.monotonic() - start
    rate = agreed / 500
    ok = rate >= 1 - 5 * float(eps) and elapsed < 120
    verdict(
        "3 omniscience triple(16)",
        ok,
        f"CO=72=closed-form, rates=(24,24,24), agreement={rate:.4f}, "
        f"key target 8 minus margins -> {8 + margins.phase1 - margins.deficiency - 4}, {elapsed:.1f}s",
    )
    assert rate >= 1 - 5 * float(eps)
    assert elapsed < 120


# -----------------------------------------------------------------
# 4. Rate-region oracle equivalence
# -----------------------------------------------------------------

def test_criterion_4_rate_region_oracles():
    start = time.monotonic()
    failures = 0
    for ell in (2, 3, 4):
        for i in range(500):
            p = random_polymatroid(ell, SeedStream("acc4", ell, i))
            total, rates = co_lp(sw_constraints(p))
            if p.c(p.full()) - total != key_capacity(p):
                failures += 1
            if ell == 3 and co_formula3(p) != total:
                failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30
    verdict(
        "4 rate-region oracle equivalence",
        ok,
        f"500 profiles x ell in 2,3,4: {failures} failures, {elapsed:.1f}s",
    )
    assert failures == 0
    assert elapsed < 30


# -----------------------------------------------------------------
# 5. Hamming reconciliation via syndromes
# -----------------------------------------------------------------

def _syndrome_session(code, model, eps, trial, master):
    inst = sample(model, master.child("in", trial))
    x, y = inst.inputs
    s = dense_matvec(code, x)
    res = syndrome_decode(y, s, code, model.t)
    return res.status == STATUS_UNIQUE and res.value == x


def test_criterion_5_hamming_reconciliation():
    eps = Fraction(1, 16)
    # Hamming(31,26) at t=1: a perfect code decodes every single error
    code31 = hamming_parity_check(5)
    model31 = parse_model_spec("hamming:n=31,t=1")
    master = SeedStream("acc5", 31)
    ok31 = sum(_syndrome_session(code31, model31, eps, t, master) for t in range(10_000))

    # The extractor's output m = k - 2 ceil(log2(1/eps)) at k = n - syndrome.
    key31 = 31 - len(code31) - 2 * 4
    assert key31 == 18

    # random linear code at n=24, t=2 with ceil(h(2/24) * 24) + 4 rows
    n, t_err = 24, 2
    d = t_err / n
    rows = math.ceil((d * math.log2(1 / d) + (1 - d) * math.log2(1 / (1 - d))) * n) + 4
    assert rows == 14
    model24 = parse_model_spec("hamming:n=24,t=2")
    master24 = SeedStream("acc5", 24)
    ok24 = 0
    trials24 = 2000
    for t in range(trials24):
        code = random_linear_code(rows, n, master24.child("code", t))
        ok24 += _syndrome_session(code, model24, eps, t, master24)
    key24 = 24 - rows - 2 * 4
    assert key24 == 2

    rate24 = ok24 / trials24
    ok = ok31 == 10_000 and rate24 >= 0.9
    verdict(
        "5 hamming reconciliation",
        ok,
        f"Hamming(31,26) t=1: {ok31}/10000 (perfect), random code n=24 t=2: {rate24:.3f} >= 0.9, "
        f"keys {key31} and {key24} bits",
    )
    assert ok31 == 10_000
    assert rate24 >= 0.9


# -----------------------------------------------------------------
# 6. Extractor guarantee on a bounded source
# -----------------------------------------------------------------

def test_criterion_6_extractor_guarantee():
    eps = Fraction(1, 8)
    m = 12 - 2 * 3  # min-entropy 12 less 2 ceil(log2(1/eps))
    stream = SeedStream("acc6")
    universe = list(range(1 << 16))
    subset = []
    for i in range(1 << 12):  # uniform random 2^12-subset, partial Fisher-Yates
        j = i + stream.randrange(len(universe) - i)
        universe[i], universe[j] = universe[j], universe[i]
        subset.append(universe[i])
    seeds = 25  # 25 seeds x 4096 source points > 1e5 (seed, output) samples
    tv_sum = 0.0
    for _ in range(seeds):
        ext = Gf2Matrix(m, 16, stream.bitvec(16 + m - 1))
        outs = [matvec(ext, BitVec(16, v)) for v in subset]
        tv_sum += tv_distance(outs, m)
    mean_tv = tv_sum / seeds
    bound = float(eps) + 0.02
    ok = mean_tv <= bound
    verdict(
        "6 extractor guarantee",
        ok,
        f"mean TV over {seeds * len(subset)} (seed,output) samples = {mean_tv:.4f} <= {bound:.4f}",
    )
    assert mean_tv <= bound


# -----------------------------------------------------------------
# 7. Exact entropy audits at line-point(3)
# -----------------------------------------------------------------

@lru_cache(maxsize=None)
def _criterion7_audits():
    """The 100 audits, computed once per module for both criterion-7 tests;
    returns (config, results, seconds the audits took)."""
    start = time.monotonic()
    config = SessionConfig(
        parse_model_spec("line-point:n=3"), "light", Fraction(1, 2), seed=1007
    )
    results = [exact_small_n_audit(config, public_label=i) for i in range(100)]
    assert all(r.instances == 512 for r in results)
    return config, results, time.monotonic() - start


def test_criterion_7_exact_entropy_audits():
    config, results, elapsed = _criterion7_audits()
    nonneg = all(r.audit.residual_i.sign() >= 0 for r in results)
    rect = all(r.audit.rectangle_ok for r in results)
    mean_hzt = sum(r.h_key_given_view for r in results) / len(results)
    m = results[0].key_len
    # Structural ceiling: given the q = k + log2(1/eps) fingerprint bits,
    # the key's conditional entropy lives inside the fiber of dimension
    # n - log2(1/eps) = 2 < m = 3; the measured mean must sit just under
    # that ceiling (rank defects cost a fraction of a bit on average).
    fiber = 3 - 1
    ok = nonneg and rect and fiber - 0.8 <= mean_hzt <= fiber and elapsed < 60
    verdict(
        "7 exact entropy audits",
        ok,
        f"I(x:y|T)<=I(x:y) exactly for 100/100 H, rectangle 100/100, "
        f"mean H(Z|T)={mean_hzt:.3f} (fiber ceiling {fiber}, key m={m}), {elapsed:.1f}s",
    )
    assert nonneg and rect
    assert fiber - 0.8 <= mean_hzt <= fiber
    assert elapsed < 60


@pytest.mark.xfail(
    strict=True,
    reason="mean H(Z|T) >= m - 0.25 is structurally unattainable for the "
    "light protocol: the fingerprint's check bits leave a fiber smaller "
    "than the key (deficiency >= ceil(log2(1/eps)) >= 1 bit); see the "
    "decisions ledger",
)
def test_criterion_7_leftover_hash_threshold_as_stated():
    _config, results, _elapsed = _criterion7_audits()
    mean_hzt = sum(r.h_key_given_view for r in results) / len(results)
    m = results[0].key_len
    verdict("7b mean H(Z|T) >= m - 0.25 (as stated)", mean_hzt >= m - 0.25,
            f"measured {mean_hzt:.3f} vs {m - 0.25:.2f}")
    assert mean_hzt >= m - 0.25


# -----------------------------------------------------------------
# 8. Inequality property suite
# -----------------------------------------------------------------

def test_criterion_8_inequality_suite():
    start = time.monotonic()
    violations = 0
    for i in range(200):
        dist = make_common_information_dist(SeedStream("acc8-ci", i))
        if not check_common_information_bound(dist):
            violations += 1
    for i in range(200):
        dist = make_shared_component_dist(SeedStream("acc8-hs", i))
        assert check_z_function_of_each(dist)
        if not check_half_sum_bound(dist):
            violations += 1
    for i in range(200):
        stream = SeedStream("acc8-ida", i)
        base = random_joint(2, stream)
        table = {t: stream.bits(2) for t, _ in base.support}
        if not check_calculation_identity_a(extend_with(base, lambda t: table[t], 2)):
            violations += 1
    for i in range(200):
        if not check_calculation_identity_b(make_identity_b_dist(SeedStream("acc8-idb", i))):
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0
    verdict(
        "8 inequality property suite",
        ok,
        f"4 x 200 random distributions, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0

import math
from fractions import Fraction
from itertools import product

import pytest

import skalab.audit
from skalab import protocols
from skalab.audit import (
    AuditReport,
    Z_PASS,
    conditional_uniformity,
    empirical_tv,
    exact_small_n_audit,
    fixed_seeds,
    stratum_score,
    tv_moments,
    worst_stratum,
)
from skalab.channel import Transcript, TranscriptRecord
from codes import rank, to_dense
from entropy_checks import key_entropy_certificate, light_key_entropy_by_two_solves
from skalab.gf2 import BitVec, Gf2Matrix, matvec, solve_affine
from skalab.protocols import Margins, SessionConfig, SessionDriver, input_stream, session_plan, toeplitz_hashes
from skalab.rng import SeedStream
from skalab.sources import parse_model_spec, sample


def light_config(spec, eps, seed=101):
    return SessionConfig(parse_model_spec(spec), "light", Fraction(eps), seed)


# ---------------------------------------------------------
# conditional uniformity (Monte-Carlo)
# ---------------------------------------------------------

def _seed_with_full_rank_h(spec, eps, n):
    """The TV -> 0 claim for the identical pair needs H2 of full rank; the
    fixed audit seed is scanned until the drawn Toeplitz matrix has it."""
    for seed in range(200):
        config = light_config(spec, eps, seed)
        (h_seed,) = fixed_seeds(config)[1]
        h = Gf2Matrix(n, n, h_seed.payload)
        if rank(to_dense(h), n) == n:
            return config
    raise AssertionError("no full-rank seed found")


def test_identical_pair_key_near_uniform():
    config = _seed_with_full_rank_h("identical:n=8", Fraction(1, 4), 8)
    report = conditional_uniformity(config, trials=5000)
    assert report.agreement_rate == 1.0
    assert not report.inconclusive
    assert report.passed  # full-rank linear image of a uniform input
    assert report.key_len == 8
    # with no reconciliation payload there is a single stratum
    assert report.stratum_count == 1
    assert report.worst_stratum_size == 5000


def test_line_point_light_audit_measures_check_bit_deficiency():
    """Conditioned on the fingerprint, the light key has only
    fiber-dimension = n - ceil(log2(1/eps)) bits of support: the audit
    must report that structural deficiency, not hide it."""
    config = light_config("line-point:n=4", Fraction(1, 2), seed=7)
    report = conditional_uniformity(config, trials=16000)
    assert not report.inconclusive
    assert report.stratum_count <= 2 ** (4 + 1)
    # worst-stratum key support is at most 2^(n-1) of 2^n values
    assert report.est_tv >= 0.5 - 0.05
    assert not report.passed
    assert report.est_min_entropy <= 4 - 1 + 0.2


def test_canary_leaking_key_fails_audit(monkeypatch):
    config = light_config("identical:n=8", Fraction(1, 4))
    run = SessionDriver.run

    def leaky(driver, inputs):
        o = run(driver, inputs)
        return o._replace(transcript=Transcript((*o.transcript, TranscriptRecord(2, 1, "leak", o.keys[0]))))

    monkeypatch.setattr(SessionDriver, "run", leaky)
    report = conditional_uniformity(config, trials=6000)
    assert not report.passed
    assert report.est_tv > 0.9  # within a leak stratum the key is constant
    assert report.est_min_entropy == 0.0


def _tabulate_every_trial(plan, seeds, inputs):
    """Reference tabulation: one plain session (a fresh ``SessionDriver``)
    per trial, so no work is shared between trials; a transcript is keyed
    by itself, as ``_tabulate`` keys it."""
    cells: dict = {}
    counts: dict = {}
    agreed = 0
    for x in inputs:
        o = SessionDriver(plan, seeds).run(x)
        t = o.transcript
        cells[x] = ((t, o.keys[0]), o.agreed)
        counts[(t, o.keys[0])] = counts.get((t, o.keys[0]), 0) + 1
        agreed += o.agreed
    return cells, counts, agreed


@pytest.mark.parametrize(
    "spec, eps", [("identical:n=4", Fraction(1, 4)), ("line-point:n=3", Fraction(1, 2))]
)
def test_memoized_audit_matches_one_session_per_trial(monkeypatch, spec, eps):
    config = light_config(spec, eps, seed=23)
    memoized = conditional_uniformity(config, trials=2000).records()
    monkeypatch.setattr(skalab.audit, "_tabulate", _tabulate_every_trial)
    assert memoized == conditional_uniformity(config, trials=2000).records()


TINY_MARGINS = Margins(k_slack=0, phase1=2, deficiency=0, extractor_eps=Fraction(1, 2))  # the bench's triple:n=2 margins
EXACT_CROSS_CHECKED = [
    SessionConfig(parse_model_spec("line-point:n=3"), "light", Fraction(1, 2), 101),
    SessionConfig(parse_model_spec("hamming:n=6,t=1"), "two_phase", Fraction(1, 2), 3, TINY_MARGINS),
    SessionConfig(parse_model_spec("identical:n=4"), "light", Fraction(1, 4), 101),
    SessionConfig(parse_model_spec("triple:n=2"), "omniscience", Fraction(1, 2**24), 7, TINY_MARGINS),
]


def _exact_fields(res):
    """Every ExactAuditResult field as plain values; a LogExpr is its
    rational part and its log terms."""
    a = res.audit
    residuals = [None if r is None else (r.rat, r.terms) for r in (a.residual_i, a.residual_j)]
    return (*residuals, a.rectangle_ok, a.rectangle_violations, res.h_key_given_view, res.key_len, res.instances, res.agreement_rate)


@pytest.mark.parametrize("config", EXACT_CROSS_CHECKED, ids=lambda c: f"{c.protocol}-{c.model.spec_string()}")
def test_memoized_exact_audit_matches_one_session_per_instance(monkeypatch, config):
    memoized = [_exact_fields(exact_small_n_audit(config, label)) for label in range(2)]
    monkeypatch.setattr(skalab.audit, "_tabulate", _tabulate_every_trial)
    assert memoized == [_exact_fields(exact_small_n_audit(config, label)) for label in range(2)]
    if config.model.spec_string() == "line-point:n=3":
        assert min(agreement for *_rest, agreement in memoized) < 1  # some decode is not unique


def _count_work(monkeypatch) -> dict:
    """Every driver run (its input tuple), fingerprint and key-chain hash
    (the hashed word), recovery (party, own input, fingerprint values) and
    uniquely recovered word that the audit computes."""
    work = {"run": [], "fingerprint": [], "reconcile": [], "recovered": [], "chain": []}
    run, hash_once, recover = SessionDriver.run, protocols.matvec, protocols._reconcile

    def counted_run(driver, inputs):
        work["driver"] = driver
        work["run"].append(inputs)
        return run(driver, inputs)

    def counted_matvec(h, x):
        driver = work["driver"]
        if any(h is fp for fp in driver.fp_hashes):
            work["fingerprint"].append(x.v)
        elif h is driver.chain[0]:
            work["chain"].append(x.v)
        return hash_once(h, x)

    def counted_reconcile(plan, party, own, fps):
        work["reconcile"].append((party, own.v, tuple(fp.value.v for fp in fps)))
        status, known = recover(plan, party, own, fps)
        if known is not None:
            work["recovered"].append(known.v)
        return status, known

    monkeypatch.setattr(SessionDriver, "run", counted_run)
    monkeypatch.setattr(protocols, "matvec", counted_matvec)
    monkeypatch.setattr(protocols, "_reconcile", counted_reconcile)
    return work


def _assert_light_work(work, plan, seeds, tuples):
    """One run per distinct tuple, one fingerprint per distinct sender
    input, and one recovery per distinct (party, own input, fingerprint),
    followed by one key chain when it is unique.  Party 1 recovers its own
    x once it has re-hashed x to its fingerprint, a hit in the hash's
    products; a unique decode of party 2 is a word with x's fingerprint
    among y's candidates, which is x, so the recovered words are the
    distinct x, and the chain's first hash computes each of them once."""
    (fp_hash,), _chain = toeplitz_hashes(plan.hash_layout, tuple(r.payload for r in seeds))
    fp_of = {x.v: matvec(fp_hash, x).v for x, _y in tuples}
    views = {(1, x.v, (fp_of[x.v],)) for x, _y in tuples} | {(2, y.v, (fp_of[x.v],)) for x, y in tuples}
    assert len(work["run"]) == len(set(work["run"])) == len(tuples)
    assert sorted(work["fingerprint"]) == sorted(2 * list(fp_of))  # the fingerprint and party 1's check
    assert work["driver"].fp_hashes[0].products.keys() == fp_of.keys()  # each product computed once
    assert sorted(work["reconcile"]) == sorted(views)
    assert sorted(work["chain"]) == sorted(work["recovered"])  # one chain per unique view
    assert len(work["recovered"]) > len(fp_of)  # some words are recovered by both parties
    assert work["driver"].chain[0].products.keys() == set(work["recovered"]) == fp_of.keys()


def test_monte_carlo_audit_runs_each_distinct_tuple_once(monkeypatch):
    config = light_config("line-point:n=3", Fraction(1, 2), seed=23)
    work = _count_work(monkeypatch)
    conditional_uniformity(config, trials=2000)
    master = SeedStream("skalab", config.seed)
    distinct = {sample(config.model, input_stream(master, t)).inputs for t in range(2000)}
    assert len(distinct) < 2000  # the sample repeats tuples, so the memo is exercised
    _assert_light_work(work, *fixed_seeds(config), distinct)


def test_exact_audit_runs_every_instance_once(monkeypatch):
    config = light_config("line-point:n=2", Fraction(1, 4))
    work = _count_work(monkeypatch)
    exact_small_n_audit(config)
    instances = set(config.model.instances())
    assert len(instances) == config.model.instance_count()
    _assert_light_work(work, *fixed_seeds(config, 0), instances)


def test_inconclusive_when_strata_too_thin():
    config = light_config("line-point:n=8", Fraction(1, 256), seed=3)
    report = conditional_uniformity(config, trials=200)  # q has 16 bits
    assert report.inconclusive and not report.passed


@pytest.mark.parametrize("spec, eps, fingerprint_bits", [("identical:n=8", Fraction(1, 4), 0), ("line-point:n=16", Fraction(1, 256), 24)])
def test_leakage_bits_counts_only_the_fingerprint_rows(spec, eps, fingerprint_bits):
    # The public seeds are broadcast too, but they do not depend on the
    # inputs: identical:n=8 sends no fingerprint bit beside a 15-bit seed.
    config = light_config(spec, eps, seed=1)
    plan = session_plan(config)
    assert conditional_uniformity(config, trials=50).leakage_bits == sum(plan.fp_rows) == fingerprint_bits < plan.comm_bits


def test_report_records_format():
    r = AuditReport(
        trials=10, agreement_rate=1.0, est_tv=0.1, est_min_entropy=3.0,
        leakage_bits=40.0, passed=True,
    )
    text = r.records()
    assert "trials=10" in text and "passed=1" in text


def test_one_biased_large_stratum_fails_beside_a_noisy_small_one():
    """A 2,000-sample stratum at TV 0.10 fails its own threshold; a
    30-sample stratum at TV 0.30 is ordinary noise.  Judging only the
    stratum of largest TV would pass."""
    big = {v: 150 if v < 8 else 100 for v in range(16)}
    small = {v: 3 if v < 8 else 1 for v in range(14)}  # 8 threes, 6 ones, 2 missing
    assert (sum(big.values()), sum(small.values())) == (2000, 30)
    assert math.isclose(empirical_tv(big, 4), 0.10) and math.isclose(empirical_tv(small, 4), 0.30)
    z_small, tv_small, _, _ = stratum_score(small, 4)
    assert tv_small > empirical_tv(big, 4) and z_small <= Z_PASS  # the old rule passes
    index, (z, tv, _mean, _sd) = worst_stratum([small, big], 4)
    assert (index, tv) == (1, empirical_tv(big, 4)) and z > Z_PASS


def test_strata_below_the_minimum_are_not_judged():
    assert worst_stratum([{0: 29}], 4) is None
    index, (z, *_rest) = worst_stratum([{0: 29}, {v: 2 for v in range(16)}], 4)
    assert index == 1 and z < 0  # a perfectly even stratum sits below the mean


def test_wide_key_strata_are_judged_by_their_repeated_values():
    # At 200 draws of a 64-bit key both the TV and its mean round to 1.0;
    # the z-score comes from the count of repeated values instead.
    distinct = {v: 1 for v in range(200)}
    one_repeat = {**{v: 1 for v in range(198)}, 198: 2}
    (z_distinct, tv, mean, _sd), (z_repeat, *_rest) = stratum_score(distinct, 64), stratum_score(one_repeat, 64)
    assert tv == mean == 1.0
    assert -1e-6 < z_distinct < 0 and z_repeat > 1e6


def _tv_moments_by_enumeration(n, key_len):
    """(mean, sd) of the empirical TV over every multinomial outcome."""
    cells = 1 << key_len
    first = second = Fraction(0)
    for head in product(range(n + 1), repeat=cells - 1):
        if sum(head) > n:
            continue
        counts = (*head, n - sum(head))
        weight = Fraction(math.factorial(n), cells**n)
        for x in counts:
            weight /= math.factorial(x)
        tv = sum(abs(x - Fraction(n, cells)) for x in counts) / (2 * n)
        first += weight * tv
        second += weight * tv * tv
    return float(first), math.sqrt(second - first * first)


@pytest.mark.parametrize(
    "n, key_len",
    [(2, 1), (3, 1), (20, 1), (3, 2), (4, 2), (9, 2), (5, 3), (8, 3), (11, 3), (30, 2)],
)
def test_tv_moments_equal_enumeration(n, key_len):
    mean, sd = tv_moments(n, key_len)
    want_mean, want_sd = _tv_moments_by_enumeration(n, key_len)
    assert abs(mean - want_mean) < 1e-12 and abs(sd - want_sd) < 1e-12


@pytest.mark.parametrize(
    "n, key_len, sampled_mean, sampled_sd",
    # 200 numpy multinomial draws of the former sampled baseline
    [(2000, 4, 0.0338725, 0.006398436820818035), (5000, 8, 0.09027209375, 0.004341394544702594)],
)
def test_tv_moments_agree_with_sampled_baseline(n, key_len, sampled_mean, sampled_sd):
    mean, sd = tv_moments(n, key_len)
    assert abs(mean - sampled_mean) < 3 * sd / math.sqrt(200)
    assert abs(sd - sampled_sd) < 3 * sd / math.sqrt(2 * 199)


@pytest.mark.parametrize("key_len", [32, 64, 128])
@pytest.mark.parametrize("n", [30, 5000])
def test_tv_moments_wide_keys(n, key_len):
    mean, sd = tv_moments(n, key_len)
    assert 0 < mean <= 1 and 0 < sd < 1e-6 and math.isfinite(sd)


# ---------------------------------------------------------
# exact small-n audits
# ---------------------------------------------------------

def test_exact_audit_line_point_2_light():
    eps = Fraction(1, 4)
    config = light_config("line-point:n=2", eps)
    rates = []
    for label in range(12):
        res = exact_small_n_audit(config, public_label=label)
        assert res.instances == 64
        assert res.audit.rectangle_ok  # one-way message: a function of x alone
        assert res.audit.residual_i.sign() >= 0
        assert 0 <= res.h_key_given_view <= res.key_len
        rates.append(res.agreement_rate)
    # union bound 1 - (2^n - 1) 2^-(k+log2(1/eps)) holds on average over H;
    # per fixed H the rate is quantized by the bad slope directions
    assert sum(rates) / len(rates) >= 1 - 3 * float(eps) / 4 - 0.1


def test_exact_audit_residuals_over_many_hashes():
    config = light_config("line-point:n=2", Fraction(1, 2))
    for draw in range(20):
        res = exact_small_n_audit(config, public_label=draw)
        assert res.audit.rectangle_ok
        assert res.audit.residual_i.sign() >= 0


def test_exact_audit_two_phase_small():
    from skalab.protocols import Margins

    # default margins devour a 3-bit key; pin small explicit ones
    margins = Margins(k_slack=1, phase1=2, deficiency=0, extractor_eps=Fraction(1, 2))
    config = SessionConfig(
        parse_model_spec("identical:n=3"), "two_phase", Fraction(1, 4), 5, margins
    )
    res = exact_small_n_audit(config)
    assert res.audit.rectangle_ok
    assert res.audit.residual_i.sign() >= 0


def test_exact_audit_omniscience_triple_n2():
    # three-party transcripts: parallelepiped preimages and both residuals
    from skalab.protocols import Margins

    margins = Margins(k_slack=0, phase1=2, deficiency=0, extractor_eps=Fraction(1, 2))
    config = SessionConfig(
        parse_model_spec("triple:n=2"), "omniscience", Fraction(1, 4), 19, margins
    )
    res = exact_small_n_audit(config)
    assert res.instances == 16 * 24
    assert res.audit.rectangle_ok
    assert res.audit.residual_i.sign() >= 0
    assert res.audit.residual_j is not None
    assert res.audit.residual_j.sign() >= 0
    assert res.agreement_rate > 0.8


def test_exact_audit_without_any_key_raises_runtime_error():
    # At eps = 1/4 a triple:n=2 fingerprint has 5 rows over 4 input bits;
    # for these public seeds no instance yields party 1 a key.
    margins = Margins(k_slack=0, phase1=2, deficiency=0, extractor_eps=Fraction(1, 2))
    config = SessionConfig(
        parse_model_spec("triple:n=2"), "omniscience", Fraction(1, 4), 11108275085490996064, margins
    )
    with pytest.raises(RuntimeError, match="no instance produced a key"):
        exact_small_n_audit(config, public_label=3)


def test_exact_audit_space_cap():
    config = light_config("line-point:n=8", Fraction(1, 2))
    with pytest.raises(ValueError):
        exact_small_n_audit(config)  # 2^24 instances is past the cap


# ---------------------------------------------------------
# the exact audit's H(Z|T) against its linear-algebra certificate
# ---------------------------------------------------------

CERTIFIED = [
    ("light", "line-point:n=3", Fraction(1, 2), None),
    ("light", "line-point:n=4", Fraction(1, 4), None),
    ("light", "identical:n=8", Fraction(1, 4), None),
    ("light", "hamming:n=6,t=1", Fraction(1, 4), None),
    *(
        ("two_phase", spec, Fraction(1, 2), Margins(k_slack=0, phase1=phase1, deficiency=0, extractor_eps=Fraction(1, 2)))
        for spec in ("identical:n=10", "line-point:n=4", "hamming:n=8,t=1")
        for phase1 in (0, 2)
    ),
]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "protocol, spec, eps, margins",
    CERTIFIED,
    ids=[f"{p}-{s}" + (f"-phase1={m.phase1}" if m else "") for p, s, _e, m in CERTIFIED],
)
def test_exact_audit_key_entropy_equals_its_certificate(protocol, spec, eps, margins, seed):
    # The enumerated H(Z|T) and rank K(ker A) are two computations of one
    # quantity; where both read below key_len the key falls short of the
    # secrecy it is sized for, which this test does not judge.
    config = SessionConfig(parse_model_spec(spec), protocol, eps, seed, margins)
    for public_label in range(3):
        certificate = key_entropy_certificate(config, public_label)
        audited = exact_small_n_audit(config, public_label)
        assert certificate <= audited.key_len
        assert abs(audited.h_key_given_view - certificate) < 1e-9, (public_label, certificate, audited.h_key_given_view)


def test_exact_key_entropy_is_the_correctly_rounded_exact_sum():
    # H(Z|T) = H(T, Z) - H(T) is the rational 5/56 here, so the exact sums
    # give its correctly rounded float; a float sum term by term need not.
    margins = Margins(k_slack=0, phase1=2, deficiency=0, extractor_eps=Fraction(1, 2))
    config = SessionConfig(parse_model_spec("triple:n=3"), "omniscience", Fraction(1, 4), 7, margins)
    assert exact_small_n_audit(config, public_label=0).h_key_given_view == float(Fraction(5, 56))


LIGHT_CERTIFIED = [(spec, eps) for protocol, spec, eps, _margins in CERTIFIED if protocol == "light"]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("spec, eps", LIGHT_CERTIFIED, ids=[spec for spec, _eps in LIGHT_CERTIFIED])
def test_light_certificate_is_two_lattice_solves(spec, eps, seed):
    # dim ker A - dim ker [A; K], one Toeplitz matrix, against rank K(ker A).
    config = light_config(spec, eps, seed)
    for public_label in range(3):
        assert light_key_entropy_by_two_solves(config, public_label) == key_entropy_certificate(config, public_label)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("spec, at_seed_1", [("line-point:n=62", 30), ("hamming:n=255,t=2", 208)])
def test_light_certificate_is_two_lattice_solves_at_bench_sizes(spec, at_seed_1, seed):
    config = light_config(spec, Fraction(1, 2**32), seed)
    certificate = key_entropy_certificate(config, 0)
    assert light_key_entropy_by_two_solves(config, 0) == certificate
    if seed == 1:
        assert certificate == at_seed_1


# ---------------------------------------------------------
# light protocol: within-stratum key distribution is exactly uniform
# ---------------------------------------------------------

def test_light_within_stratum_uniformity_exact():
    """Restricted to a fiber {x : H1 x = q}, the key H2 x is uniform on its
    image (with multiplicity 2^dim-kernel), and uniform on all m bits when
    H2 has full rank on the fiber directions."""
    config = light_config("line-point:n=3", Fraction(1, 2), seed=17)
    model = config.model
    plan, seeds = fixed_seeds(config)
    ((h1,), (h2,)) = toeplitz_hashes(plan.hash_layout, tuple(r.payload for r in seeds))
    q_rows, key_rows = h1.rows, h2.rows

    strata: dict = {}
    for inputs in model.instances():
        x = inputs[0]
        q = matvec(h1, x)
        z = matvec(h2, x)
        strata.setdefault(q.v, {})
        strata[q.v][z.v] = strata[q.v].get(z.v, 0) + 1

    # fiber direction space = kernel of H1; key rank on the fiber
    _, kernel = solve_affine(h1, BitVec(q_rows, 0))
    fiber_rank = rank([matvec(h2, BitVec(model.input_len, w)).v for w in kernel], key_rows)

    for counts in strata.values():
        values = set(counts.values())
        assert len(values) == 1  # uniform on the image, exactly
        assert len(counts) == 1 << fiber_rank
        if fiber_rank == key_rows:
            assert len(counts) == 1 << key_rows

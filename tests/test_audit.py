import math
from fractions import Fraction

import pytest

import skalab.audit
from codes import dense_from_rows
from skalab.audit import (
    AuditReport,
    conditional_uniformity,
    exact_small_n_audit,
    fixed_seeds,
    uniform_tv_baseline,
)
from skalab.channel import TranscriptRecord
from skalab.gf2 import BitVec, matvec, rank, solve_affine, toeplitz_from_seed
from skalab.protocols import Margins, SessionConfig, execute, input_stream
from skalab.rng import SeedStream
from skalab.sources import enumerate_instances, instance_count, parse_model_spec, sample


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
        (_sender, _kind, h_seed), = fixed_seeds(config)[1]
        h = toeplitz_from_seed(h_seed, n, n)
        if rank(h) == n:
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

    def leaky(plan, inputs, seeds):
        o = execute(plan, inputs, seeds)
        o.transcript.append(TranscriptRecord(2, 1, "leak", o.keys[0]))
        return o

    monkeypatch.setattr(skalab.audit, "execute", leaky)
    report = conditional_uniformity(config, trials=6000)
    assert not report.passed
    assert report.est_tv > 0.9  # within a leak stratum the key is constant
    assert report.est_min_entropy == 0.0


def _tabulate_every_trial(plan, seeds, inputs):
    """Reference tabulation: one session per trial, no memo."""
    counts: dict = {}
    agreed = 0
    for x in inputs:
        o = execute(plan, x, seeds)
        t = tuple((r.kind, r.payload.n, r.payload.v) for r in o.transcript.records)
        counts[(t, o.keys[0])] = counts.get((t, o.keys[0]), 0) + 1
        agreed += o.agreed
    return None, counts, agreed


@pytest.mark.parametrize(
    "spec, eps", [("identical:n=4", Fraction(1, 4)), ("line-point:n=3", Fraction(1, 2))]
)
def test_memoized_audit_matches_one_session_per_trial(monkeypatch, spec, eps):
    config = light_config(spec, eps, seed=23)
    memoized = conditional_uniformity(config, trials=2000).records()
    monkeypatch.setattr(skalab.audit, "_tabulate", _tabulate_every_trial)
    assert memoized == conditional_uniformity(config, trials=2000).records()


def _count_executions(monkeypatch) -> list:
    calls = []

    def counted(plan, inputs, seeds):
        calls.append(inputs)
        return execute(plan, inputs, seeds)

    monkeypatch.setattr(skalab.audit, "execute", counted)
    return calls


def test_monte_carlo_audit_runs_each_distinct_tuple_once(monkeypatch):
    config = light_config("line-point:n=3", Fraction(1, 2), seed=23)
    calls = _count_executions(monkeypatch)
    conditional_uniformity(config, trials=2000)
    master = SeedStream("skalab", config.seed)
    distinct = {sample(config.model, input_stream(master, t)).inputs for t in range(2000)}
    assert len(distinct) < 2000  # the sample repeats tuples, so the memo is exercised
    assert len(calls) == len(set(calls)) == len(distinct)


def test_exact_audit_runs_every_instance_once(monkeypatch):
    config = light_config("line-point:n=2", Fraction(1, 4))
    calls = _count_executions(monkeypatch)
    exact_small_n_audit(config)
    assert len(calls) == instance_count(config.model)


def test_inconclusive_when_strata_too_thin():
    config = light_config("line-point:n=8", Fraction(1, 256), seed=3)
    report = conditional_uniformity(config, trials=200)  # q has 16 bits
    assert report.inconclusive and not report.passed


def test_report_records_format():
    r = AuditReport(
        trials=10, agreement_rate=1.0, est_tv=0.1, est_min_entropy=3.0,
        leakage_bits=40.0, passed=True,
    )
    text = r.records()
    assert "trials=10" in text and "passed=1" in text


def test_uniform_tv_baseline_reasonable():
    mean, sd = uniform_tv_baseline(4000, 4, SeedStream("base"))
    # normal-approximation prediction ~ sqrt(2/pi) * sqrt(K/4N) population
    predict = math.sqrt(2 / math.pi) * 16 * math.sqrt(1 / 16 * 15 / 16 / 4000) / 2
    assert abs(mean - predict) < 0.01
    assert 0 < sd < 0.02


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
# light protocol: within-stratum key distribution is exactly uniform
# ---------------------------------------------------------

def test_light_within_stratum_uniformity_exact():
    """Restricted to a fiber {x : H1 x = q}, the key H2 x is uniform on its
    image (with multiplicity 2^dim-kernel), and uniform on all m bits when
    H2 has full rank on the fiber directions."""
    config = light_config("line-point:n=3", Fraction(1, 2), seed=17)
    model = config.model
    plan, ((_sender, _kind, seed),) = fixed_seeds(config)
    (q_rows,), key_rows = plan.fp_rows, plan.key_len
    h = toeplitz_from_seed(seed, q_rows + key_rows, model.input_len)
    h1 = h.row_block(0, q_rows)
    h2 = h.row_block(q_rows, q_rows + key_rows)

    strata: dict = {}
    for inputs in enumerate_instances(model):
        x = inputs[0]
        q = matvec(h1, x)
        z = matvec(h2, x)
        strata.setdefault(q.v, {})
        strata[q.v][z.v] = strata[q.v].get(z.v, 0) + 1

    # fiber direction space = kernel of H1; key rank on the fiber
    _, kernel = solve_affine(h1, BitVec(q_rows, 0))
    h2w = dense_from_rows(
        [matvec(h2, BitVec(model.input_len, w)).v for w in kernel], key_rows
    )
    fiber_rank = rank(h2w)

    for counts in strata.values():
        values = set(counts.values())
        assert len(values) == 1  # uniform on the image, exactly
        assert len(counts) == 1 << fiber_rank
        if fiber_rank == key_rows:
            assert len(counts) == 1 << key_rows

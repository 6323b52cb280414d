import copy
import math
import pickle
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from skalab import protocols, reconcile
from skalab.audit import conditional_uniformity, fixed_seeds
from skalab.channel import Transcript, TranscriptRecord
from skalab.protocols import (
    Margins,
    SessionConfig,
    draw_seeds,
    party_key_from_transcript,
    run_session,
    session_plan,
    session_streams,
)
from codes import to_dense
from model_checks import packed
from skalab.gf2 import BitVec, Gf2Matrix, matvec, toeplitz_seed_len
from skalab.profiles import ceil_log2, make_profile
from skalab.reconcile import STATUS_NOT_FOUND, STATUS_SEARCH_LIMIT, STATUS_UNIQUE, Fingerprint
from skalab.sources import Model, parse_model_spec, sample


def cfg_light(spec="line-point:n=16", eps=Fraction(1, 256), seed=11, **margins):
    c = SessionConfig(parse_model_spec(spec), "light", eps, seed)
    return replace(c, margins=replace(c.margins, **margins)) if margins else c


def cfg_two_phase(spec="line-point:n=16", eps=Fraction(1, 16), seed=12, margins=None):
    return SessionConfig(parse_model_spec(spec), "two_phase", eps, seed, margins)


OMNI_MARGINS = Margins(k_slack=16, phase1=4, deficiency=2, extractor_eps=Fraction(1, 4))


def cfg_omni(eps=Fraction(1, 64), seed=13):
    return SessionConfig(parse_model_spec("triple:n=16"), "omniscience", eps, seed, OMNI_MARGINS)


# ---------------------------------------------------------
# margins
# ---------------------------------------------------------

def test_ceil_log2_ratio():
    # ceil(log2(n/eps)), the phase-1 margin for n bits and an eps.
    assert ceil_log2(16 / Fraction(1, 16)) == 8
    assert ceil_log2(16 / Fraction(1, 256)) == 12
    assert ceil_log2(3 / Fraction(1, 3)) == 4  # ceil(log2 9) = 4
    assert ceil_log2(1 / Fraction(1)) == 0


def _ceil_log2_ratio_by_loop(num, eps):
    c = 0
    while (eps.numerator << c) < num * eps.denominator:
        c += 1
    return c


def test_ceil_log2_ratio_closed_form_exhaustive():
    for num in (1, 2, 3, 16, 63, 64, 65):
        for d in range(2, 65):
            for n in range(1, d):
                eps = Fraction(n, d)
                assert ceil_log2(num / eps) == _ceil_log2_ratio_by_loop(num, eps)
        for eps in (Fraction(1), Fraction(1, 2**32), Fraction(1, 2**64), Fraction(3, 2**64), Fraction(2**32 + 1, 2**64)):
            assert ceil_log2(num / eps) == _ceil_log2_ratio_by_loop(num, eps)


def test_default_margins():
    m = Margins.defaults(16, Fraction(1, 16))
    assert m.k_slack == 16  # 4 log2 16
    assert m.phase1 == 8  # log2(16 * 16)
    assert m.deficiency == 8  # 2 log2 16
    m3 = Margins.defaults(12, Fraction(1, 10))
    assert m3.k_slack == math.ceil(4 * math.log2(12)) == 15


def test_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(parse_model_spec("triple:n=4"), "light", Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        SessionConfig(parse_model_spec("line-point:n=4"), "omniscience", Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        SessionConfig(parse_model_spec("line-point:n=4"), "light", Fraction(2), 0)
    with pytest.raises(ValueError):
        SessionConfig(parse_model_spec("line-point:n=4"), "nope", Fraction(1, 2), 0)


# ---------------------------------------------------------
# light protocol
# ---------------------------------------------------------

def test_light_line_point_16_accounting():
    o = run_session(cfg_light(), 0)
    assert o.agreed
    assert o.key_len == 16  # n1 - k = C(x) - C(x|y) = n
    assert o.payload_bits == 16 + 8  # C(x|y) + log2(1/eps)
    assert o.target_comm == 24
    # spec overhead: the Toeplitz seed of the (n1+log2(1/eps)) x 2n matrix
    assert o.comm_bits - o.payload_bits == (32 + 8) + 32 - 1
    assert o.keys[0] == o.keys[1]
    assert o.target_key_len == 16


@pytest.mark.parametrize(
    "protocol, n, eps",
    [("light", 8, Fraction(1, 4)), ("light", 64, Fraction(1, 256)), ("two_phase", 16, Fraction(1, 4)), ("two_phase", 64, Fraction(1, 16))],
)
def test_identical_sessions_are_hamming_sessions_at_t0(protocol, n, eps):
    # identical is hamming at t = 0 under another name: at one seed both give
    # the same keys, transcript bytes and decode status.
    for trial in range(5):
        a, b = (
            run_session(SessionConfig(parse_model_spec(spec), protocol, eps, 11), trial)
            for spec in (f"identical:n={n}", f"hamming:n={n},t=0")
        )
        assert (a.keys, a.transcript.dump(), a.decode_status) == (b.keys, b.transcript.dump(), b.decode_status)
        assert a == b


def test_session_outcome_is_an_immutable_named_tuple():
    o = run_session(cfg_light("identical:n=16"), 0)
    assert repr(o).startswith(f"SessionOutcome(keys=({o.keys[0]!r}, {o.keys[1]!r}), transcript=Transcript(records=[TranscriptRecord(round=1, ")
    assert not hasattr(o, "__dict__")
    with pytest.raises(AttributeError):
        o.agreed = False
    for copied in (copy.deepcopy(o), pickle.loads(pickle.dumps(o))):
        assert copied == o and type(copied) is type(o) and copied.transcript.dump() == o.transcript.dump()


def test_light_identical_pair_empty_fingerprint():
    o = run_session(cfg_light("identical:n=16"), 0)
    assert o.agreed and o.key_len == 16
    assert o.payload_bits == 0  # k = 0: nothing to reconcile, q is empty
    assert o.transcript.one("fingerprint", 1).payload.n == 0


def test_light_hamming_t0_empty_fingerprint():
    # C(x|y) = 0 as for the identical pair: a fingerprint of no rows decodes
    # the one-word sphere of radius 0.
    o = run_session(cfg_light("hamming:n=16,t=0"), 0)
    assert o.agreed and o.decode_status == STATUS_UNIQUE
    assert o.key_len == 16 and o.payload_bits == 0


def test_light_agreement_monte_carlo_line_point_12():
    eps = Fraction(1, 256)
    config = cfg_light("line-point:n=12", eps=eps, seed=77)
    trials = 2500
    bad = sum(1 for t in range(trials) if not run_session(config, t).agreed)
    p = 2 * float(eps)  # both failure events of the analysis
    assert bad / trials <= p + 3 * math.sqrt(p / trials)


def test_light_hamming_model():
    config = cfg_light("hamming:n=16,t=1", eps=Fraction(1, 64), seed=5)
    o = run_session(config, 3)
    assert o.agreed
    k = 4  # ceil(log2 C(16,1))
    assert o.key_len == 16 - k
    assert o.payload_bits == k + 6


@pytest.mark.parametrize("spec,eps", [("hamming:n=9,t=4", Fraction(1, 4)), ("hamming:n=11,t=5", Fraction(1, 8))])
def test_light_hamming_meets_eps_at_large_t(spec, eps):
    # Sized by ceil(log2 C(n,t)), the fingerprint separates the weight-t
    # sphere; the radius-t ball is up to twice as large here and failed
    # about 2 eps of these sessions.
    config = cfg_light(spec, eps=eps, seed=41)
    trials = 2000
    bad = sum(1 for t in range(trials) if not run_session(config, t).agreed)
    p = float(eps)
    assert bad / trials <= p + 3 * math.sqrt(p * (1 - p) / trials)


def test_light_hamming_n63_t3_agrees():
    config = cfg_light("hamming:n=63,t=3", eps=Fraction(1, 2**32), seed=42)
    for trial in range(5):
        o = run_session(config, trial)
        assert o.agreed and o.decode_status == STATUS_UNIQUE


@dataclass(frozen=True)
class _Independent(Model):
    """Two independent uniform n-bit words (I(x:y) = 0), whose profile
    claims `extra` more bits of each word, and of their mutual information,
    than the inputs hold."""

    n: int
    extra: int = 0
    name = "independent"

    def profile(self):
        n, e = self.n, self.extra
        return make_profile(2, {(1,): n + e, (2,): n + e, (1, 2): 2 * n + e})


def test_light_plan_guard():
    with pytest.raises(ValueError, match="light protocol margins leave no key bits"):
        session_plan(SessionConfig(_Independent(8), "light", Fraction(1, 2), 0))
    with pytest.raises(ValueError, match="profile claims more complexity than input bits"):
        session_plan(SessionConfig(_Independent(8, extra=2), "light", Fraction(1, 2), 0))


# ---------------------------------------------------------
# two-phase protocol
# ---------------------------------------------------------

def test_two_phase_line_point_16_accounting():
    o = run_session(cfg_two_phase(), 0)
    m = Margins.defaults(16, Fraction(1, 16))
    assert o.agreed
    # m = I + phase1 - deficiency - 2 ceil(log2(1/eps))
    assert o.key_len == 16 + m.phase1 - m.deficiency - 8
    assert o.target_key_len == 16
    # Alice's message: C(x,y) - C(x) + k_slack + log2(1/eps) check bits
    assert o.payload_bits == 16 + m.k_slack + 4
    assert o.target_comm == 16


def test_two_phase_identical_fingerprint_margins_only():
    o = run_session(cfg_two_phase("identical:n=16", eps=Fraction(1, 16)), 0)
    m = Margins.defaults(16, Fraction(1, 16))
    assert o.agreed
    assert o.payload_bits == m.k_slack + 4  # C(x,y) - C(x) = 0


def test_two_phase_comm_accounting_band():
    # comm <= C(x|y) + c log2(n/eps) + seed overhead, c documented as 5
    config = cfg_two_phase(seed=31)
    plan = session_plan(config)
    log_term = math.log2(16 / float(config.eps))
    for t in range(60):
        o = run_session(config, t)
        assert o.payload_bits <= 16 + 5 * log_term
        seed_overhead = (plan.fp_rows[0] + 32 - 1) + (plan.material_len + 32 - 1) + (plan.material_len + plan.key_len - 1)
        assert o.comm_bits == o.payload_bits + seed_overhead


def test_two_phase_margins_guard():
    bad = Margins(k_slack=0, phase1=0, deficiency=20)
    with pytest.raises(ValueError):
        session_plan(cfg_two_phase(margins=bad))


def test_plan_sizes_the_extractor():
    # 24 bits of material at min-entropy k = 24 - 8 and extractor eps 1/16:
    # m = k - 2 ceil(log2 16) bits, from the last public seed of 24 + m - 1.
    plan = session_plan(cfg_two_phase(margins=Margins(4, 8, 8, Fraction(1, 16))))
    assert plan.material_len == 16 + 8  # I(x:y) + phase1
    assert plan.key_len == 8
    assert plan.seed_slots[-1] == (1, "ext_seed", ("two_phase", "ext"), 24 + 8 - 1)
    # Extractor eps 1 costs nothing; None is the session eps (1/16).
    assert session_plan(cfg_two_phase(margins=Margins(4, 8, 8, Fraction(1)))).key_len == 16
    assert session_plan(cfg_two_phase(margins=Margins(4, 8, 8))).key_len == 8


@pytest.mark.parametrize(
    "deficiency, message",
    [(16, r"extractor output m = 0 < 1 \(k=8, eps=1/16\)"), (25, r"min-entropy -1 outside \[0, 24\]"),
     (-1, r"min-entropy 25 outside \[0, 24\]")],
)
def test_plan_rejects_extractor_without_output(deficiency, message):
    with pytest.raises(ValueError, match=message):
        session_plan(cfg_two_phase(margins=Margins(4, 8, deficiency, Fraction(1, 16))))


@pytest.mark.parametrize("extractor_eps", [0, Fraction(-1, 4), Fraction(5, 4)])
@pytest.mark.parametrize("config", [cfg_light(), cfg_two_phase(), cfg_omni()], ids=["light", "two-phase", "omni"])
def test_plan_rejects_extractor_eps_outside_unit_interval(config, extractor_eps):
    # 0 is not the session eps: no value outside (0, 1] falls back to it.
    with pytest.raises(ValueError, match=r"extractor eps must be in \(0, 1\]"):
        session_plan(replace(config, margins=replace(config.margins, extractor_eps=extractor_eps)))


@pytest.mark.parametrize(
    "config",
    [cfg_light(), cfg_light("identical:n=16"), cfg_two_phase(), cfg_omni()],
    ids=["light", "light-identical", "two-phase", "omni"],
)
def test_key_chain_follows_the_plan(config):
    # Each hash of the chain maps the previous output, the first the
    # senders' packed inputs, and the last outputs the plan's key_len bits.
    # Every hash is the Toeplitz matrix of its window of its slot's seed,
    # and each fingerprint record follows the seed record of that slot.
    plan = session_plan(config)
    input_stream, public_stream = session_streams(config, 0)
    seeds = draw_seeds(plan, public_stream)
    payloads = tuple(payload for _s, _k, payload in seeds)
    fp_hashes, chain = protocols.toeplitz_hashes(plan.hash_layout, payloads)
    assert (chain[0].rows, chain[0].cols) == (plan.material_len, len(plan.fp_rows) * plan.model.input_len)
    assert all(h.cols == prev.rows for prev, h in zip(chain, chain[1:]))
    assert chain[-1].rows == plan.key_len and len(chain) == (1 if config.protocol == "light" else 2)
    assert [h.rows for h in fp_hashes] == list(plan.fp_rows)
    assert [slot for _rows, _cols, slot, _offset in plan.hash_layout[0]] == list(range(len(plan.fp_rows)))
    for layout, hashes in zip(plan.hash_layout, (fp_hashes, chain)):
        for (rows, cols, slot, offset), h in zip(layout, hashes, strict=True):
            assert h == Gf2Matrix(rows, cols, payloads[slot].slice(offset, offset + toeplitz_seed_len(rows, cols)))
    if config.protocol == "light":
        # Light's two hashes are the top and bottom row blocks of its one H.
        (h,), (key,) = fp_hashes, chain
        whole = Gf2Matrix(h.rows + key.rows, plan.model.input_len, payloads[0])
        assert to_dense(h) + to_dense(key) == to_dense(whole)
    inputs = sample(config.model, input_stream).inputs
    records = protocols.SessionDriver(plan, seeds).run(inputs).transcript.records
    expected = []
    for slot, seed in enumerate(seeds):
        expected.append(seed)
        for sender, ((_rows, _cols, fp_slot, _offset), h) in enumerate(zip(plan.hash_layout[0], fp_hashes), start=1):
            if fp_slot == slot:
                expected.append((sender, "fingerprint", matvec(h, inputs[sender - 1])))
    assert [(r.sender, r.kind, r.payload) for r in records] == expected


@dataclass(frozen=True)
class _Prefix(Model):
    """Alice holds 2n uniform bits and Bob their first n: C(x) = 2n,
    C(y) = n, C(x|y) = n and C(y|x) = 0."""

    n: int
    name = "prefix"

    @property
    def input_len(self) -> int:
        return 2 * self.n

    def profile(self):
        return make_profile(2, {(1,): 2 * self.n, (2,): self.n, (1, 2): 2 * self.n})


def test_two_phase_fingerprint_sized_by_c_x_given_y():
    # Bob decodes x, so its fingerprint needs C(x|y) bits; every shipped
    # model has C(x) = C(y), where C(y|x) is the same number.
    margins = Margins(k_slack=4, phase1=6, deficiency=2, extractor_eps=Fraction(1, 4))
    config = SessionConfig(_Prefix(16), "two_phase", Fraction(1, 16), 0, margins)
    plan = session_plan(config)
    assert plan.fp_rows == (16 + 4 + ceil_log2(1 / config.eps),)
    assert plan.target_comm == 16 and plan.target_key_len == 16


# ---------------------------------------------------------
# omniscience protocol
# ---------------------------------------------------------

def test_omniscience_collinear_16():
    o = run_session(cfg_omni(), 0)
    assert o.agreed
    assert o.target_key_len == 8  # 5n - 4.5n = 0.5n
    assert o.target_comm == 72
    assert o.payload_bits == 3 * (24 + 6)  # rates + check bits each
    assert o.key_len == 8 + 4 - 2 - 4  # cap + phase1 - deficiency - extractor loss
    assert len({k.v for k in o.keys}) == 1


def test_omniscience_plan():
    config = cfg_omni()
    plan = session_plan(config)
    c = ceil_log2(1 / config.eps)
    assert plan.fp_rows == (24 + c, 24 + c, 24 + c)
    assert plan.target_comm == 72 and plan.target_key_len == 8
    assert plan.material_len == 12 and plan.key_len == 12 - 2 - 2 * 2  # k = material - deficiency; eps_ext = 1/4


def test_omniscience_default_margins_leave_no_key_at_n16():
    # With the paper-shaped default margins the extractor loss exceeds the
    # 8-bit key capacity at n=16; the session must refuse, not fake a key.
    config = SessionConfig(
        parse_model_spec("triple:n=16"), "omniscience", Fraction(1, 64), 0
    )
    with pytest.raises(ValueError):
        session_plan(config)
    with pytest.raises(ValueError):  # at session time, not when the config is built
        run_session(config, 0)


def test_solves_go_through_the_traced_name(monkeypatch):
    # The benchmark's tracer times the gf2.solve layer by wrapping
    # reconcile.solve_affine, so every decode must call it by that name.
    calls = []
    solve = reconcile.solve_affine
    monkeypatch.setattr(reconcile, "solve_affine", lambda *args: calls.append(args) or solve(*args))
    assert run_session(cfg_omni(), 0).agreed
    assert len(calls) == 3  # each fingerprint solved once, shared by both other parties
    calls.clear()
    # Light on hamming:n=31,t=3 at eps = 2^-32 walks the coset of one 45 x 31
    # solve; at eps = 1/256 the meet in the middle is smaller and never solves.
    assert run_session(cfg_light("hamming:n=31,t=3", eps=Fraction(1, 2**32)), 0).agreed
    assert [(m.rows, m.cols) for m, _ in calls] == [(45, 31)]
    calls.clear()
    assert run_session(cfg_light("hamming:n=31,t=3", eps=Fraction(1, 256)), 0).agreed
    assert not calls


def test_omniscience_capped_search_is_search_limit():
    # At n=64 with default margins each fingerprint leaves a 24-dimensional
    # coset, past the joint search's 14-bit cap: the session gives up and
    # says so instead of reporting the fingerprints ambiguous.
    config = SessionConfig(parse_model_spec("triple:n=64"), "omniscience", Fraction(1, 256), 14)
    for trial in range(2):
        o = run_session(config, trial)
        assert o.decode_status == STATUS_SEARCH_LIMIT
        assert not o.agreed
        assert o.keys == (None, None, None)


@pytest.mark.parametrize(
    "spec, eps", [("hamming:n=63,t=9", Fraction(1, 2)), ("hamming:n=63,t=10", Fraction(1, 2))]
)
def test_hamming_sphere_past_cap_is_search_limit(spec, eps):
    # 36 and 38 fingerprint rows leave cosets of at least 2^27 and 2^25
    # words, and the meet-in-the-middle's larger half holds about 7.7
    # million subsets: both searches are past the cap, so the decode
    # declines before building either.
    start = time.perf_counter()
    o = run_session(cfg_light(spec, eps), 0)
    assert time.perf_counter() - start < 5.0
    assert o.decode_status == STATUS_SEARCH_LIMIT
    assert not o.agreed
    assert o.keys[1] is None


@pytest.mark.parametrize(
    "spec, eps", [("hamming:n=63,t=12", Fraction(1, 256)), ("hamming:n=63,t=31", Fraction(1, 2))]
)
def test_hamming_sphere_small_coset_decodes_unique(spec, eps):
    # The meet-in-the-middle tables would hold C(63, 6) and C(63, 16)
    # subsets, but 50 and 61 fingerprint rows leave cosets of 2^13 and 2^2
    # words: one solve and a walk over the coset decode them.
    start = time.perf_counter()
    o = run_session(cfg_light(spec, eps), 0)
    assert time.perf_counter() - start < 5.0
    assert o.decode_status == STATUS_UNIQUE
    assert o.agreed


def _sphere_searches(n, t, eps):
    """(coset words at the fewest kernel dimensions, subsets in the larger
    half of the meet in the middle) for a light Hamming session."""
    rows = session_plan(cfg_light(f"hamming:n={n},t={t}", eps)).fp_rows[0]
    return 1 << max(0, n - rows), sum(math.comb(n, w) for w in range(t - t // 2 + 1))


@pytest.mark.parametrize("n", [31, 63])
def test_light_hamming_decodes_every_t(n):
    # Every t the parser accepts, 0 to ceil(n/2) - 1, is within the cap of
    # one of the two searches, so every session decodes.  The slowest is
    # n=63, t=8: a meet in the middle over 637,393 subsets, about 1.3 s;
    # the whole sweep at n=63 takes about 2 s.
    eps = Fraction(1, 256)
    start = time.perf_counter()
    for t in range((n + 1) // 2):
        assert min(_sphere_searches(n, t, eps)) <= reconcile._SPHERE_CAP_SUBSETS, t
        o = run_session(cfg_light(f"hamming:n={n},t={t}", eps), 0)
        assert o.decode_status == STATUS_UNIQUE and o.agreed, t
    assert time.perf_counter() - start < 15.0


@pytest.mark.parametrize("n, t, walks", [(31, 3, True), (63, 2, False)])
def test_hamming_decode_path_follows_coset_size(monkeypatch, n, t, walks):
    # At eps = 2^-32, 45 rows over 31 bits leave a single coset word, below
    # the 1 + 31 + 465 subsets of the larger half; 43 rows over 63 bits
    # leave at least 2^20 words, above its 1 + 63.
    eps = Fraction(1, 1 << 32)
    coset, half = _sphere_searches(n, t, eps)
    assert (coset < half) == walks
    calls = []
    mitm = reconcile._error_matches
    monkeypatch.setattr(reconcile, "_error_matches", lambda *a: calls.append(a) or mitm(*a))
    for trial in range(3):
        o = run_session(cfg_light(f"hamming:n={n},t={t}", eps), trial)
        assert o.decode_status == STATUS_UNIQUE
    assert len(calls) == (0 if walks else 3)


def test_joint_decode_checks_no_tuple(monkeypatch):
    # A triple:n=30 session shaped as the benchmark's: its cosets hold 2 and
    # 4 words, and each holder finds the third point by a linear condition;
    # skalab has no per-tuple consistency predicate to test their product with.
    config = SessionConfig(parse_model_spec("triple:n=30"), "omniscience", Fraction(1, 16384), 13, OMNI_MARGINS)
    inst = sample(config.model, session_streams(config, 0)[0])
    o = run_session(config, 0)
    plan = session_plan(config)
    payloads = tuple(o.transcript.one(kind, sender).payload for sender, kind, _l, _b in plan.seed_slots)
    fp_hashes, _chain = protocols.toeplitz_hashes(plan.hash_layout, payloads)
    fps = [Fingerprint(h, o.transcript.one("fingerprint", sender=i).payload) for i, h in enumerate(fp_hashes, start=1)]
    for party in (1, 2, 3):
        res = reconcile.multi_decode(config.model, party, inst.inputs[party - 1], fps)
        assert res.status == STATUS_UNIQUE and res.value == packed(inst.inputs)
        assert res.candidates_checked > 1
    # A holder whose own fingerprint disagrees solves no other one.  Cosets
    # are kept on the hash, so the others go on new hashes, with none solved.
    fresh_hashes, _chain = protocols.toeplitz_hashes(plan.hash_layout, payloads)
    bad = Fingerprint(fresh_hashes[0], BitVec(fps[0].value.n, fps[0].value.v ^ 1))
    others = [Fingerprint(h, fp.value) for h, fp in zip(fresh_hashes[1:], fps[1:])]
    solves = []
    solve = reconcile.solve_affine
    monkeypatch.setattr(reconcile, "solve_affine", lambda *args: solves.append(args) or solve(*args))
    res = reconcile.multi_decode(config.model, 1, inst.inputs[0], [bad, *others])
    assert (res.status, res.candidates_checked) == (STATUS_NOT_FOUND, 0)
    assert not solves
    # With its own fingerprint matching, the holder solves both others.
    good = Fingerprint(fresh_hashes[0], fps[0].value)
    res = reconcile.multi_decode(config.model, 1, inst.inputs[0], [good, *others])
    assert res.status == STATUS_UNIQUE and len(solves) == 2


@pytest.mark.parametrize(
    "config",
    [
        cfg_light("line-point:n=8", eps=Fraction(1, 4)),
        cfg_two_phase("line-point:n=8", eps=Fraction(1, 4), margins=Margins(0, 4, 2, Fraction(1, 4))),
        SessionConfig(parse_model_spec("triple:n=8"), "omniscience", Fraction(1, 4), 13, OMNI_MARGINS),
    ],
    ids=["light", "two-phase", "omniscience"],
)
def test_execute_feeds_each_party_what_the_transcript_names(config, monkeypatch):
    """A session's driver hands every party the hashes and fingerprints it
    built for the broadcast: no transcript lookup, one hash build per
    session, and each party's (key, status) equal to
    party_key_from_transcript's, also where the decode is not unique."""
    plan, trials = session_plan(config), 12
    lookups, hash_calls, party_keys = [], [], []
    one, hashes, key_of = Transcript.one, protocols.toeplitz_hashes, protocols.SessionDriver.party_key
    monkeypatch.setattr(Transcript, "one", lambda *a, **k: lookups.append(a) or one(*a, **k))
    monkeypatch.setattr(protocols, "toeplitz_hashes", lambda *a: hash_calls.append(a) or hashes(*a))
    monkeypatch.setattr(protocols.SessionDriver, "party_key", lambda *a: party_keys.append(key_of(*a)) or party_keys[-1])
    sessions = []
    for trial in range(trials):
        input_stream, public_stream = session_streams(config, trial)
        inputs = sample(config.model, input_stream).inputs
        sessions.append((inputs, protocols.SessionDriver(plan, draw_seeds(plan, public_stream)).run(inputs)))
    assert not lookups and len(hash_calls) == trials
    monkeypatch.undo()
    parties = config.model.parties
    assert len(party_keys) == trials * parties
    statuses = set()
    for s, (inputs, o) in enumerate(sessions):
        for party, own in enumerate(inputs, start=1):
            key, status, _material = party_keys[s * parties + party - 1]
            assert key == o.keys[party - 1]
            assert party_key_from_transcript(config, party, own, o.transcript) == (key, status)
            statuses.add(status)
    assert STATUS_UNIQUE in statuses and len(statuses) > 1


# ---------------------------------------------------------
# cross-protocol invariants
# ---------------------------------------------------------

@pytest.mark.parametrize(
    "config",
    [cfg_light(), cfg_light("identical:n=16"), cfg_two_phase(), cfg_omni()],
    ids=["light-lp", "light-id", "two-phase", "omniscience"],
)
def test_replay_determinism(config):
    a = run_session(config, 4)
    b = run_session(config, 4)
    assert a.keys == b.keys
    assert a.transcript.dump() == b.transcript.dump()
    c = run_session(config, 5)
    assert c.transcript.dump() != a.transcript.dump()


@pytest.mark.parametrize(
    "config",
    [
        cfg_light(),
        cfg_two_phase(),
        cfg_omni(),
        # candidate cosets of 2^63 and 2^64 lines: sizes past a machine index
        cfg_light("line-point:n=63", eps=Fraction(1, 2**32)),
        cfg_light("line-point:n=64", eps=Fraction(1, 2**32)),
    ],
    ids=["light", "two-phase", "omniscience", "light-lp63", "light-lp64"],
)
def test_transcript_sufficiency(config):
    """Re-running any party's post-decode computation from (own input,
    stored transcript) alone reproduces its key, on a fresh driver that
    shares no memo with the session's: the memos hold pure functions of
    the seeds."""
    input_stream, _ = session_streams(config, 9)
    inst = sample(config.model, input_stream)
    o = run_session(config, 9)
    assert o.agreed
    stored = Transcript.parse(o.transcript.dump())
    for party in range(1, config.model.parties + 1):
        key, status = party_key_from_transcript(config, party, inst.inputs[party - 1], stored)
        assert status == STATUS_UNIQUE
        assert key == o.keys[party - 1]


def _replace_payload(transcript, kind, sender, payload):
    """The transcript with the payload of the one (kind, sender) record replaced."""
    return Transcript([r._replace(payload=payload) if (r.kind, r.sender) == (kind, sender) else r for r in transcript.records])


@pytest.mark.parametrize("extra", [5, -1], ids=["too-long", "too-short"])
@pytest.mark.parametrize(
    "config, kind",
    [(cfg_light("line-point:n=8", seed=3), "hash_spec"), (cfg_two_phase("identical:n=64", eps=Fraction(1, 4), seed=3), "fp_spec")],
    ids=["light", "two-phase"],
)
def test_transcript_seed_record_of_the_wrong_length_is_rejected(config, kind, extra):
    # Hashes cut a seed's low bits, so an over-long record would otherwise
    # give the key of the record it extends.
    inst = sample(config.model, session_streams(config, 0)[0])
    o = run_session(config, 0)
    seed = o.transcript.one(kind, 1).payload
    wrong = BitVec(seed.n + extra, seed.v & ((1 << seed.n + extra) - 1))
    tampered = _replace_payload(o.transcript, kind, 1, wrong)
    with pytest.raises(ValueError, match=f"{kind} record of party 1 has {wrong.n} bits, its plan slot {seed.n}"):
        party_key_from_transcript(config, 2, inst.inputs[1], tampered)


def test_transcript_fingerprint_longer_than_its_hash_is_rejected():
    config = cfg_light("line-point:n=8", seed=3)
    inst = sample(config.model, session_streams(config, 0)[0])
    o = run_session(config, 0)
    fp = o.transcript.one("fingerprint", 1).payload
    tampered = _replace_payload(o.transcript, "fingerprint", 1, BitVec(fp.n + 1, fp.v))
    with pytest.raises(ValueError, match=f"fingerprint length {fp.n + 1} != hash rows {fp.n}"):
        party_key_from_transcript(config, 2, inst.inputs[1], tampered)


@pytest.mark.parametrize(
    "config",
    [cfg_light(), cfg_two_phase(), cfg_omni()],
    ids=["light", "two-phase", "omniscience"],
)
def test_fixed_public_seeds_are_drawn_once(config, monkeypatch):
    """The Monte-Carlo audit's seeds come from its own fixed stream, not a
    session's, and every session it runs broadcasts exactly them."""
    plan, seeds = fixed_seeds(config)
    assert seeds != draw_seeds(plan, session_streams(config, 0)[1])
    transcripts, run = [], protocols.SessionDriver.run

    def recording(driver, inputs):
        o = run(driver, inputs)
        transcripts.append(o.transcript)
        return o

    monkeypatch.setattr(protocols.SessionDriver, "run", recording)
    conditional_uniformity(config, trials=5)
    assert len(transcripts) == 5
    for t in transcripts:
        assert tuple((r.sender, r.kind, r.payload) for r in t.records if r.kind != "fingerprint") == seeds


@pytest.mark.parametrize(
    "config",
    [cfg_light(), cfg_two_phase(), cfg_omni()],
    ids=["light", "two-phase", "omniscience"],
)
def test_no_secret_appears_as_payload(config):
    for t in range(10):
        o = run_session(config, t)
        payloads = {(r.payload.n, r.payload.v) for r in o.transcript.records}
        from skalab.sources import sample
        from skalab.protocols import session_streams

        input_stream, _ = session_streams(config, t)
        inst = sample(config.model, input_stream)
        for secret in list(inst.inputs) + [k for k in o.keys if k is not None]:
            assert (secret.n, secret.v) not in payloads


def test_agreement_implies_equal_keys():
    for t in range(30):
        o = run_session(cfg_omni(seed=91), t)
        if o.agreed:
            assert len({k.v for k in o.keys}) == 1
            assert all(k.n == o.key_len for k in o.keys)


def test_comm_bits_equals_transcript_total():
    # The driver counts the bits once from its plan and seeds; they are the
    # transcript's, also on sessions whose decode is not unique (light
    # line-point:n=3 at eps = 1/2 is ambiguous on trial 0 at seed 11).
    outcomes = [run_session(config, 2) for config in (cfg_light(), cfg_two_phase(), cfg_omni())]
    outcomes += [run_session(cfg_light("line-point:n=3", Fraction(1, 2)), t) for t in range(4)]
    assert {o.decode_status for o in outcomes} > {STATUS_UNIQUE}
    for o in outcomes:
        records = o.transcript.records
        assert o.comm_bits == sum(r.payload.n for r in records)
        assert o.payload_bits == sum(r.payload.n for r in records if r.kind == "fingerprint")


def test_leak_check_names_the_first_record_holding_a_secret():
    secret = BitVec(16, 0xBEEF)
    transcript = Transcript([
        TranscriptRecord(1, 1, "hash_spec", BitVec(16, 0xBEEE)),
        TranscriptRecord(1, 1, "fingerprint", secret),
        TranscriptRecord(1, 2, "ext_seed", secret),
    ])
    with pytest.raises(AssertionError, match="^transcript record 'fingerprint' leaks a secret verbatim$"):
        protocols._forbid_secret_payloads(transcript, (None, BitVec(16, 1), secret))
    short = BitVec(15, 0x3EEF)  # below 16 bits a payload may equal an input by chance
    protocols._forbid_secret_payloads(Transcript([TranscriptRecord(1, 1, "fingerprint", short)]), (short,))
    protocols._forbid_secret_payloads(transcript, (None, None))


@pytest.mark.parametrize(
    "config, products, calls",
    [
        (cfg_light("line-point:n=62", Fraction(1, 2**32)), 2, 3),
        (cfg_two_phase("line-point:n=62", Fraction(1, 256)), 3, 4),
        (SessionConfig(parse_model_spec("triple:n=30"), "omniscience", Fraction(1, 16384), 13, OMNI_MARGINS), 5, 14),
    ],
    ids=["light", "two_phase", "omniscience"],
)
def test_each_product_is_computed_once_per_hash(monkeypatch, config, products, calls):
    # Light hashes x by its fingerprint rows and its key rows; the guard
    # re-hashes the decoded x.  Two_phase adds the extractor over the
    # material.  Omniscience fingerprints three inputs and chains one word
    # through two hashes, but every party re-hashes its own input and
    # guards the other two.  Every re-hash hits its hash's products.
    made = []
    counted = lambda h, x: made.append(x) or matvec(h, x)
    monkeypatch.setattr(protocols, "matvec", counted)
    monkeypatch.setattr(reconcile, "matvec", counted)
    plan = session_plan(config)
    input_stream, public_stream = session_streams(config, 0)
    inputs = sample(config.model, input_stream).inputs
    driver = protocols.SessionDriver(plan, draw_seeds(plan, public_stream))
    computed = lambda: sum(len(h.products) for h in (*driver.fp_hashes, *driver.chain))
    assert driver.run(inputs).agreed
    assert (computed(), len(made)) == (products, calls)
    driver.run(inputs)  # every driver memo hits: no hash is even called
    assert (computed(), len(made)) == (products, calls)

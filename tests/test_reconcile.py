import copy
import math
import pickle
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice, product
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codes import (
    decode_line_by_elimination,
    decode_scan,
    dense_matvec,
    encode,
    graph_images,
    hamming_parity_check,
    random_linear_code,
    rank,
    syndrome_decode,
    to_dense,
    x_power_multiples,
)
from model_checks import candidate_words, is_consistent, packed
from skalab import gf2, reconcile, sources
from skalab.audit import exact_small_n_audit, fixed_seeds
from skalab.gf2 import BitVec, Gf2Matrix, matvec, toeplitz_seed_len
from skalab.profiles import ceil_log2
from skalab.protocols import SessionConfig, SessionDriver, draw_seeds, session_plan, session_streams, toeplitz_hashes
from skalab.reconcile import (
    STATUS_AMBIGUOUS,
    STATUS_NOT_FOUND,
    STATUS_SEARCH_LIMIT,
    STATUS_UNIQUE,
    DecodeResult,
    Fingerprint,
    _error_matches,
    _subset_images,
    decode,
    multi_decode,
    solutions,
)
from skalab.rng import SeedStream
from skalab.sources import HammingSphere, parse_model_spec, sample


# ---------------------------------------------------------
# encode: fingerprint sizing (Thm-2.2-style accounting)
# ---------------------------------------------------------

def test_encode_one_row_at_k0():
    fp = encode(BitVec(8, 0b1011), 0, Fraction(1, 2), SeedStream("e0"))
    assert fp.value.n == 1 and fp.spec.rows == 1


def test_encode_fifteen_rows():
    fp = encode(SeedStream("e1").bitvec(16), 8, Fraction(1, 128), SeedStream("e2"))
    assert fp.value.n == 8 + 7


def test_encode_replay_deterministic():
    x = SeedStream("ex").bitvec(12)
    a = encode(x, 5, Fraction(1, 8), SeedStream("seed", 1))
    b = encode(x, 5, Fraction(1, 8), SeedStream("seed", 1))
    assert a == b


def test_encode_k_bounds():
    with pytest.raises(ValueError):
        encode(BitVec(4, 0), 5, Fraction(1, 2), SeedStream("bad"))


def test_fingerprint_length_invariant():
    for k, eps in ((0, Fraction(1, 2)), (3, Fraction(1, 8)), (7, Fraction(1, 100))):
        fp = encode(SeedStream("w", k).bitvec(10), k, eps, SeedStream("ws", k))
        assert fp.value.n == k + ceil_log2(1 / eps)


# ---------------------------------------------------------
# decode
# ---------------------------------------------------------

def singleton(x):
    """The one-word candidate set {x}: the Hamming sphere of radius 0, the
    identical model's set."""
    return HammingSphere(x.n, x.v, 0)


def test_decode_singleton_unique(monkeypatch):
    x = SeedStream("d1").bitvec(10)
    fp = encode(x, 0, Fraction(1, 4), SeedStream("d1s"))
    calls = Counter()
    _counting(monkeypatch, calls)
    res = decode(fp, singleton(x))
    assert res.status == STATUS_UNIQUE and res.value == x and res.candidates_checked == 1
    assert calls == Counter(matvec=2), calls  # the syndrome, then the guard's memo hit


def test_zero_row_fingerprint_decodes_one_word_sets():
    # With nothing to reconcile light sends a fingerprint of no rows; decode
    # takes it like any other.
    y = SeedStream("z0").bitvec(10)
    fp = Fingerprint(Gf2Matrix(0, 10, BitVec(0, 0)), BitVec(0, 0))
    res = decode(fp, singleton(y))
    assert res.status == STATUS_UNIQUE and res.value == y and res.candidates_checked == 1


def test_fingerprint_length_must_match_the_hash_rows():
    spec = Gf2Matrix(3, 4, BitVec(6, 0))
    for n in (2, 4):
        with pytest.raises(ValueError, match=f"fingerprint length {n} != hash rows 3"):
            Fingerprint(spec, BitVec(n, 1))


def test_decode_not_found():
    stream = SeedStream("d2")
    x, other = stream.bitvec(10), stream.bitvec(10)
    assert x != other
    fp = encode(other, 8, Fraction(1, 256), SeedStream("d2s"))
    res = decode(fp, singleton(x))
    # 16 check bits on a single wrong candidate: no collision at this seed
    assert res.status == STATUS_NOT_FOUND and res.value is None and res.candidates_checked == 1


def test_decode_result_invariant():
    with pytest.raises(ValueError, match="^value present iff status is unique$"):
        DecodeResult(STATUS_AMBIGUOUS, BitVec(1, 0), 2)
    with pytest.raises(ValueError, match="^value present iff status is unique$"):
        DecodeResult(STATUS_UNIQUE, None, 2)
    with pytest.raises(ValueError, match="^value present iff status is unique$"):
        DecodeResult(STATUS_UNIQUE, BitVec(1, 0), 2)._replace(value=None)


def test_decode_result_is_an_immutable_named_tuple():
    res = DecodeResult(STATUS_UNIQUE, BitVec(4, 9), 16)
    assert repr(res) == "DecodeResult(status='unique', value=BitVec(n=4, v=9), candidates_checked=16)"
    assert not hasattr(res, "__dict__")
    with pytest.raises(AttributeError):
        res.status = STATUS_AMBIGUOUS
    for copied in (copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
        assert copied == res and type(copied) is DecodeResult


def test_decode_matches_scan_on_affine_sets():
    model = parse_model_spec("line-point:n=4")
    stream = SeedStream("cross")
    for trial in range(40):
        inst = sample(model, stream.child(trial))
        x, y = inst.inputs
        k = 2 + stream.randrange(5)
        fp = encode(x, k, Fraction(1, 4), stream.child("s", trial))
        a = decode(fp, model.candidates(y))
        b = decode_scan(fp, candidate_words(model, y))
        assert a.status == b.status and a.value == b.value


def _counted(calls, name, fn):
    """fn, counting each call in calls[name]."""

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def _count_graph_work(monkeypatch):
    """Count the graph bases decodes ask for (reconcile.graph_basis) and
    the lattice reductions made for them (gf2._weak_popov): each request
    past its (H, m)'s first is a reuse."""
    calls = Counter()
    monkeypatch.setattr(reconcile, "graph_basis", _counted(calls, "requests", gf2.graph_basis))
    monkeypatch.setattr(gf2, "_weak_popov", _counted(calls, "reductions", gf2._weak_popov))
    return calls


def test_factorization_memo_once_per_receiver_abscissa(monkeypatch):
    # Bob's candidate basis depends only on his abscissa c, and the audit
    # fixes H: one lattice reduction per c, 2^4 of them for 4,096 instances.
    # The audit decodes each distinct (y, fingerprint) once, and every
    # decode after the first of its c reuses the basis.
    config = SessionConfig(parse_model_spec("line-point:n=4"), "light", Fraction(1, 4), 5)
    plan, seeds = fixed_seeds(config, 0)
    (h,), _chain = toeplitz_hashes(plan.hash_layout, tuple(r.payload for r in seeds))
    decodes = len({(y.v, matvec(h, x).v) for x, y in config.model.instances()})
    calls = _count_graph_work(monkeypatch)
    exact_small_n_audit(config)
    assert (calls["reductions"], calls["requests"] - calls["reductions"]) == (16, decodes - 16)


def test_factorization_memo_shared_across_fingerprint_values(monkeypatch):
    # Every fingerprint value through one (H, m) pair: the memoized basis
    # must not carry one value's verdict to the next.  Three rows on the
    # 4-dimensional graph leave a kernel (ambiguous), eight rows pin the
    # candidate (unique), and values outside the image give not_found.
    # Each hash reduces its lattice once, for its first value.
    model = parse_model_spec("line-point:n=4")
    stream = SeedStream("memo")
    y = sample(model, stream.child("inst")).inputs[1]
    cands, words = model.candidates(y), candidate_words(model, y)
    statuses = set()
    calls = _count_graph_work(monkeypatch)
    for rows in (3, 8):
        spec = Gf2Matrix(rows, 8, stream.child("toeplitz", rows).bitvec(rows + 7))
        calls.clear()
        for value in range(1 << rows):
            fp = Fingerprint(spec, BitVec(rows, value))
            got, want = decode(fp, cands), decode_scan(fp, words)
            assert (got.status, got.value) == (want.status, want.value)
            statuses.add(got.status)
        assert calls == Counter(requests=1 << rows, reductions=1), calls
    assert statuses == {STATUS_UNIQUE, STATUS_AMBIGUOUS, STATUS_NOT_FOUND}


def _counting(monkeypatch, calls):
    """Count every hash product (matvec) that reconcile makes and every
    mul_int that gf2 and sources reach."""
    monkeypatch.setattr(reconcile, "matvec", _counted(calls, "matvec", gf2.matvec))
    mul_int = _counted(calls, "mul_int", gf2.mul_int)
    for module in (gf2, sources):
        monkeypatch.setattr(module, "mul_int", mul_int)


def test_line_point_decode_costs_no_field_multiplication(monkeypatch):
    # A cold light line-point:n=62 decode builds its lattice rows from
    # integer products of spread operands: no mul_int, and two hash
    # products, the base's for the syndrome and the guard's re-hash of the
    # unique word.
    model = parse_model_spec("line-point:n=62")
    stream = SeedStream("word-ops")
    x, y = sample(model, stream.child("inst")).inputs
    fp = encode(x, model.n, Fraction(1, 256), stream.child("fp"))
    calls = Counter()
    _counting(monkeypatch, calls)
    res = decode(fp, model.candidates(y))  # a fresh hash: its graph basis is reduced here
    assert (res.status, res.value) == (STATUS_UNIQUE, x)
    assert calls == Counter(matvec=2), calls


def test_warm_line_point_decode_hashes_only_for_the_guard(monkeypatch):
    # With its basis cached, a decode asks for two hash products, both
    # memo hits: H base for the syndrome and the guard's re-hash of the
    # unique word; a verdict without a word asks only for H base.
    model = parse_model_spec("line-point:n=62")
    stream = SeedStream("warm-ops")
    x, y = sample(model, stream.child("inst")).inputs
    fp = encode(x, model.n, Fraction(1, 256), stream.child("fp"))
    cands = model.candidates(y)
    decode(fp, cands)  # keeps the basis on fp.spec
    calls = Counter()
    _counting(monkeypatch, calls)
    res = decode(fp, cands)
    assert (res.status, res.value) == (STATUS_UNIQUE, x)
    assert calls == Counter(matvec=2), calls
    calls.clear()
    wrong = Fingerprint(fp.spec, BitVec(fp.value.n, fp.value.v ^ 1))
    assert decode(wrong, cands).status == STATUS_NOT_FOUND
    assert calls == Counter(matvec=1), calls


# Each guard re-hashes a decoded word on a hash whose products already hold
# the true word's (the fingerprint's own): a wrong word misses them, is
# multiplied, and fails the comparison.
NON_MATCHING = "^structured decode produced a non-matching solution$"


def test_line_point_guard_fires_with_the_true_product_kept(monkeypatch):
    model = parse_model_spec("line-point:n=8")
    stream = SeedStream("guard-line")
    x, y = sample(model, stream.child("inst")).inputs
    fp = encode(x, model.n, Fraction(1, 256), stream.child("fp"))
    assert decode(fp, model.candidates(y)).value == x and x.v in fp.spec.products
    base = model.candidates(y).base
    monkeypatch.setattr(reconcile, "solve_graph", lambda basis, syndrome: x.v ^ 1 ^ base)
    with pytest.raises(AssertionError, match=NON_MATCHING):
        decode(fp, model.candidates(y))


def test_sphere_guard_fires_with_the_true_product_kept(monkeypatch):
    # 21 rows over 31 bits: the meet in the middle runs, not the coset walk.
    model = parse_model_spec("hamming:n=31,t=3")
    stream = SeedStream("guard-sphere")
    x, y = sample(model, stream.child("inst")).inputs
    fp = encode(x, 13, Fraction(1, 256), stream.child("fp"))
    assert decode(fp, model.candidates(y)).value == x and x.v in fp.spec.products
    error = x.v ^ y.v
    flip = error & -error | (~error & error + 1)  # its lowest set bit out, its lowest clear bit in: weight 3
    monkeypatch.setattr(reconcile, "_error_matches", lambda cols, target, t: iter([error ^ flip]))
    with pytest.raises(AssertionError, match=NON_MATCHING):
        decode(fp, model.candidates(y))


def test_joint_guard_fires_with_the_true_products_kept(monkeypatch):
    model = parse_model_spec("triple:n=8")
    inst = sample(model, SeedStream("guard-joint"))
    fps = _triple_fingerprints(inst, (12, 12, 12), Fraction(1, 16), SeedStream("guard-joint-s"))
    own = inst.inputs[0]
    assert multi_decode(model, 1, own, fps).value == packed(inst.inputs)
    assert all(x.v in fp.spec.products for x, fp in zip(inst.inputs, fps))
    matches = reconcile._collinear_matches
    monkeypatch.setattr(reconcile, "_collinear_matches", lambda *a: ((w ^ 1, q) for w, q in matches(*a)))
    with pytest.raises(AssertionError, match=NON_MATCHING):
        multi_decode(model, 1, own, fps)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 31, 62, 64])
def test_factored_rows_are_echelon_and_return_coefficients(n):
    # Light line-point fingerprints have n + ceil(log2(1/eps)) rows.  The
    # reduced graph lattice is in weak Popov form: rows[k] leads (its top
    # bit, p) in field k = p & 7, so the three leads lie in distinct fields.
    # Solving H b for a word b of the graph returns b itself when the kernel
    # is zero, and otherwise a graph word with the same image.
    stream = SeedStream("factored", n)
    mask = (1 << n) - 1
    for m in (0, 1, mask, stream.bits(n)):
        graph = [(1 << j) | (gf2.mul_int(m, 1 << j, n) << n) for j in range(n)]
        for rows in (n + 2, n + 8):
            spec = Gf2Matrix(rows, 2 * n, stream.bitvec(rows + 2 * n - 1))
            kernel_dim, basis = gf2.graph_basis(spec, m)
            lattice_rows = basis[0]
            assert [lead & 7 for _, lead in lattice_rows] == [0, 1, 2]
            assert all(row.bit_length() - 1 == lead for row, lead in lattice_rows)
            if kernel_dim:  # a second offset for the ambiguous verdict: a nonzero graph word that H sends to 0
                k = gf2.graph_kernel_word(basis)
                assert k and k >> n == gf2.mul_int(m, k & mask, n) and not matvec(spec, BitVec(2 * n, k)).v
            for _ in range(8):
                coeffs = stream.bits(n)
                b = reduce(xor, (v for j, v in enumerate(graph) if (coeffs >> j) & 1), 0)
                got = gf2.solve_graph(basis, matvec(spec, BitVec(2 * n, b)).v)
                assert got >> n == gf2.mul_int(m, got & mask, n)  # a graph word
                assert matvec(spec, BitVec(2 * n, got)) == matvec(spec, BitVec(2 * n, b))
                if not kernel_dim:  # H is injective on the graph: the coefficients are unique
                    assert got == b


def _line_decodes_agree(spec, m, base, value):
    """The lattice decode against the elimination reference on one
    fingerprint; the kernel dimension read off the reduced basis is n minus
    the rank of the reference's images."""
    n = spec.cols // 2
    kernel_dim, _ = gf2.graph_basis(spec, m)
    assert kernel_dim == n - rank(graph_images(spec, x_power_multiples(m, n)), spec.rows)
    fp, cands = Fingerprint(spec, BitVec(spec.rows, value)), sources.AffineCandidates(2 * n, base, m)
    got, want = decode(fp, cands), decode_line_by_elimination(fp, cands)
    assert (got.status, got.value, got.candidates_checked) == (want.status, want.value, want.candidates_checked)
    assert got.candidates_checked == 1 << n
    return got.status


def _graph_word(m, n, base, u):
    return base ^ u ^ (gf2.mul_int(m, u, n) << n)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 31, 62, 64])
def test_line_decode_matches_elimination_reference(n):
    # Every multiplier kind, row counts from none to n + 32, the zero,
    # all-ones and a random seed, and one consistent and one random target.
    stream = SeedStream("line-vs-elimination", n)
    statuses = set()
    for m in (0, 1, (1 << n) - 1, stream.bits(n)):
        for rows in sorted({0, 1, n - 1, n, n + 2, n + 8, n + 32}):
            seed_len = toeplitz_seed_len(rows, 2 * n)
            for seed in (0, (1 << seed_len) - 1, stream.bits(seed_len)):
                spec = Gf2Matrix(rows, 2 * n, BitVec(seed_len, seed))
                base = stream.bits(2 * n)
                word = _graph_word(m, n, base, stream.bits(n))
                for value in (matvec(spec, BitVec(2 * n, word)).v, stream.bits(rows)):
                    statuses.add(_line_decodes_agree(spec, m, base, value))
    assert statuses == {STATUS_UNIQUE, STATUS_AMBIGUOUS, STATUS_NOT_FOUND}


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 16), st.data())
def test_line_decode_agrees_with_elimination_reference(n, data):
    m = data.draw(st.integers(0, (1 << n) - 1), label="m")
    rows = data.draw(st.integers(0, 2 * n + 8), label="rows")
    seed_len = toeplitz_seed_len(rows, 2 * n)
    spec = Gf2Matrix(rows, 2 * n, BitVec(seed_len, data.draw(st.integers(0, (1 << seed_len) - 1), label="seed")))
    base = data.draw(st.integers(0, (1 << (2 * n)) - 1), label="base")
    if data.draw(st.booleans(), label="consistent"):
        word = _graph_word(m, n, base, data.draw(st.integers(0, (1 << n) - 1), label="u"))
        value = matvec(spec, BitVec(2 * n, word)).v
    else:
        value = data.draw(st.integers(0, (1 << rows) - 1), label="value")
    _line_decodes_agree(spec, m, base, value)


# False-alarm rate of the failure-count check below: the chance that a
# protocol that meets P(fail) <= eps fails the check anyway.
_FALSE_ALARM = Fraction(1, 1000)


def _binomial_upper_tail(trials: int, k: int, p: Fraction) -> Fraction:
    """P(X >= k) for X ~ Binomial(trials, p), exactly."""
    q = 1 - p
    return sum((math.comb(trials, i) * p**i * q ** (trials - i) for i in range(k, trials + 1)), Fraction(0))


@pytest.mark.parametrize("n, draws", [(8, 2000), (64, 400)])
def test_line_point_sessions_fail_iff_the_graph_kernel_is_nonzero(n, draws):
    # A light line-point session fails iff H is not injective on Bob's
    # candidate space, the graph of multiplication by his abscissa: iff the
    # reduced basis has a nonzero kernel.  The union bound over the 2^n - 1
    # other candidates puts that at most eps, and the failure count of the
    # fixed-seed (H, abscissa) draws must not be improbably high for it.
    config = SessionConfig(parse_model_spec(f"line-point:n={n}"), "light", Fraction(1, 4), 11)
    plan = session_plan(config)
    failures = 0
    for trial in range(draws):
        inputs_stream, public = session_streams(config, trial)
        inputs = sample(config.model, inputs_stream).inputs
        seeds = draw_seeds(plan, public)
        fp_hashes, _ = toeplitz_hashes(plan.hash_layout, tuple(r.payload for r in seeds))
        kernel_dim, _ = gf2.graph_basis(fp_hashes[0], inputs[1].v & ((1 << n) - 1))
        outcome = SessionDriver(plan, seeds).run(inputs)
        assert outcome.agreed == (kernel_dim == 0), trial
        failures += not outcome.agreed
    assert failures > 0  # the draws reach the failure side of the equivalence
    assert _binomial_upper_tail(draws, failures, config.eps) >= _FALSE_ALARM, failures


def test_decode_matches_scan_on_hamming_spheres():
    # Every n <= 12 and allowed t, with 1-6 fingerprint rows so that
    # ambiguous verdicts occur, and tampered values so that not_found does.
    stream = SeedStream("cross-sphere")
    statuses = set()
    for n in range(2, 13):
        for t in range((n + 1) // 2):
            model = parse_model_spec(f"hamming:n={n},t={t}")
            for rows in range(1, min(6, n) + 1):
                inst = sample(model, stream.child("in", n, t, rows))
                x, y = inst.inputs
                fp = encode(x, rows, 1, stream.child("s", n, t, rows))
                delta = 1 + stream.randrange((1 << rows) - 1)
                tampered = Fingerprint(fp.spec, BitVec(rows, fp.value.v ^ delta))
                for f in (fp, tampered):
                    a, b = decode(f, model.candidates(y)), decode_scan(f, candidate_words(model, y))
                    assert (a.status, a.value) == (b.status, b.value), (n, t, rows)
                    assert a.candidates_checked == math.comb(n, t)
                    if a.status != STATUS_AMBIGUOUS:
                        assert b.candidates_checked == math.comb(n, t)
                    statuses.add(a.status)
    assert statuses == {STATUS_UNIQUE, STATUS_AMBIGUOUS, STATUS_NOT_FOUND}


def test_coset_walk_meet_in_the_middle_and_scan_agree(monkeypatch):
    # Every n <= 9 and allowed t, with n to n + 3 fingerprint rows: random
    # Toeplitz hashes (the decode walks the coset) and the rank-deficient
    # all-zero and all-one ones, whose cosets of 2^n and 2^(n-1) words send
    # the decode back to the meet in the middle after the solve.  At t = 0
    # the center's hash settles the decode, and neither search runs.  The
    # meet in the middle yields each weight-t error once.
    stream = SeedStream("walk-vs-mitm")
    searches = []
    mitm, walk = reconcile._error_matches, reconcile._coset_walk
    monkeypatch.setattr(reconcile, "_error_matches", lambda *a: searches.append("mitm") or mitm(*a))
    monkeypatch.setattr(reconcile, "_coset_walk", lambda *a: searches.append("walk") or walk(*a))
    fallbacks = 0
    for n in range(2, 10):
        for t in range((n + 1) // 2):
            half = math.comb(n, t - t // 2)
            model, y = sources.Hamming(n, t), stream.child("y", n, t).bitvec(n)
            for rows in range(n, n + 4):
                seed_len = rows + n - 1
                random_seed = stream.child("h", n, t, rows).bitvec(seed_len)
                for seed in (random_seed, BitVec(seed_len, 0), BitVec(seed_len, (1 << seed_len) - 1)):
                    spec = Gf2Matrix(rows, n, seed)
                    x = BitVec(n, y.v ^ next(iter(sources.weight_words(n, t))))
                    for value in (matvec(spec, x), BitVec(rows, stream.child("v", n, t, rows).bits(rows))):
                        sol = gf2.solve_affine(spec, value)
                        words = candidate_words(model, y)
                        scanned = {c.v ^ y.v for c in words if matvec(spec, c) == value}
                        if t:
                            walked = {w ^ y.v for w in walk(*sol) if (w ^ y.v).bit_count() == t} if sol else set()
                            met = list(mitm(spec.column_ints(), value.v ^ matvec(spec, y).v, t))
                            assert walked == set(met) == scanned and len(met) == len(scanned), (n, t, rows)
                        fp, before = Fingerprint(spec, value), len(searches)
                        a, b = decode(fp, HammingSphere(n, y.v, t)), decode_scan(fp, words)
                        assert (a.status, a.value) == (b.status, b.value), (n, t, rows)
                        ran = searches[before:]
                        if not t:
                            assert ran == [] and a.candidates_checked == 1, (n, rows)
                        elif sol and 1 << len(sol[1]) >= half:  # the solve left too large a coset
                            assert ran == ["mitm"], (n, t, rows)
                            fallbacks += 1
                        else:  # n - rows <= 0 kernel dimensions were predicted
                            assert ran == (["walk"] if sol else []), (n, t, rows)
    assert fallbacks > 0


@pytest.mark.parametrize("n", range(3, 13))
def test_error_matches_yields_each_weight_t_error_once(n):
    # Against brute force over every word, for every 1 <= t < n/2, on
    # targets that some weight-t error meets and on random ones.
    stream = SeedStream("mitm-brute", n)
    for t in range(1, (n + 1) // 2):
        for rows in (2, n // 2 + 1, n):
            cols = [stream.bits(rows) for _ in range(n)]
            images = [0]
            for e in range(1, 1 << n):  # e's image is that of e less its lowest bit, xor that bit's column
                images.append(images[e & (e - 1)] ^ cols[(e & -e).bit_length() - 1])
            for target in (images[(1 << t) - 1 << stream.randrange(n - t + 1)], stream.bits(rows)):
                want = sorted(e for e in range(1 << n) if e.bit_count() == t and images[e] == target)
                got = list(_error_matches(cols, target, t))
                assert sorted(got) == want and len(got) == len(want), (n, t, rows)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_subset_images_stream_every_small_subset_once(k):
    cols = [3, 5, 6, 9, 12, 17, 30]
    images = _subset_images(cols, k)
    assert iter(images) is images  # a generator: the probe half is never held
    got = list(images)
    want = {
        sum(1 << j for j in sub): reduce(xor, (cols[j] for j in sub), 0)
        for sub in combinations(range(len(cols)), k)
    }
    assert len(got) == len(want) == math.comb(len(cols), k) and dict(got) == want


def test_decode_monte_carlo_line_point():
    """Unique-and-correct rate at k=8, eps=2^-7 over 10^4 trials: the union
    bound over the 2^8 - 1 other candidates allows at most eps failures."""
    model = parse_model_spec("line-point:n=8")
    eps = Fraction(1, 128)
    master = SeedStream("mc-decode")
    trials = 10_000
    bad = 0
    for t in range(trials):
        inst = sample(model, master.child("in", t))
        x, y = inst.inputs
        fp = encode(x, 8, eps, master.child("fp", t))
        res = decode(fp, model.candidates(y))
        if res.status != STATUS_UNIQUE or res.value != x:
            bad += 1
    p = float(eps)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert bad / trials <= p + 3 * sigma


def test_decode_soundness_unique_is_correct():
    # when the true value sits in the candidate set, a unique verdict can
    # only ever return it (anything else would be a second match)
    model = parse_model_spec("hamming:n=10,t=2")
    master = SeedStream("sound-dec")
    for t in range(300):
        inst = sample(model, master.child(t))
        x, y = inst.inputs
        fp = encode(x, 6, Fraction(1, 4), master.child("s", t))
        res = decode(fp, model.candidates(y))
        if res.status == STATUS_UNIQUE:
            assert res.value == x


def test_sphere_cap_admits_a_larger_half_of_exactly_the_cap(monkeypatch):
    # hamming:n=20,t=2 with 15 rows leaves a coset of 2^5 words, more than
    # the C(20, 1) = 20 subsets of the larger half, so the meet in the
    # middle runs: it still does with the cap at exactly 20, and one below
    # it the decode ends search_limit.  A half that also counted the empty
    # subset (21) ended search_limit at a cap of 20.
    model = parse_model_spec("hamming:n=20,t=2")
    stream = SeedStream("sphere-cap-half")
    statuses = set()
    for s in range(12):
        x, y = sample(model, stream.child("in", s)).inputs
        fp = encode(x, 15, 1, stream.child("fp", s))
        monkeypatch.setattr(reconcile, "_SPHERE_CAP_SUBSETS", math.comb(20, 1))
        a, b = decode(fp, model.candidates(y)), decode_scan(fp, candidate_words(model, y))
        assert (a.status, a.value) == (b.status, b.value), s
        statuses.add(a.status)
        monkeypatch.setattr(reconcile, "_SPHERE_CAP_SUBSETS", math.comb(20, 1) - 1)
        assert decode(fp, model.candidates(y)) == (STATUS_SEARCH_LIMIT, None, 0)
    assert STATUS_UNIQUE in statuses


def test_walking_sphere_decode_hashes_the_base_then_the_word(monkeypatch):
    # The walk reads the syndrome's coset, so the products are the base's,
    # for the syndrome, and the guard's, of the decoded word.
    model = parse_model_spec("hamming:n=15,t=2")
    stream = SeedStream("walk-no-center")
    x, y = sample(model, stream.child("in")).inputs
    fp = encode(x, 15, Fraction(1, 256), stream.child("fp"))
    hashed, walks = [], []
    monkeypatch.setattr(reconcile, "matvec", lambda spec, v: hashed.append(v) or matvec(spec, v))
    walk = reconcile._coset_walk
    monkeypatch.setattr(reconcile, "_coset_walk", lambda *a: walks.append(a) or walk(*a))
    assert decode(fp, model.candidates(y)) == (STATUS_UNIQUE, x, math.comb(15, 2))
    assert len(walks) == 1 and hashed == [y, x]


def test_a_sphere_walk_solves_once_per_distinct_syndrome(monkeypatch):
    # Light hamming:n=8,t=3 at eps = 1/4 fingerprints with 8 rows, so every
    # decode walks.  The walk solves for the syndrome H e of the true error,
    # and the hash keeps each solve by right-hand side, so the exact audit
    # solves at most once per weight-3 error, C(8, 3) = 56 times, not once
    # per fingerprint value.
    config = SessionConfig(parse_model_spec("hamming:n=8,t=3"), "light", Fraction(1, 4), 1)
    calls = Counter()
    monkeypatch.setattr(reconcile, "solve_affine", _counted(calls, "solves", gf2.solve_affine))
    exact_small_n_audit(config, 0)
    assert 0 < calls["solves"] <= math.comb(8, 3), calls


# ---------------------------------------------------------
# syndrome coding
# ---------------------------------------------------------

def test_syndrome_of_codeword_is_zero():
    code = hamming_parity_check(3)
    # parity-check rows xor to zero on any codeword; all-zeros is one
    assert dense_matvec(code, BitVec(7, 0)) == BitVec(3, 0)


def test_syndrome_single_error_reads_column():
    code = hamming_parity_check(3)
    e3 = BitVec(7, 1 << 2)  # error at position 3 (1-based)
    assert dense_matvec(code, e3).v == 3


def test_hamming_31_26_syndrome_length_vs_entropy_rate():
    code = hamming_parity_check(5)
    assert len(code) == 5 and max(code).bit_length() == 31
    # binary entropy h(1/31)*31: the asymptotic reconciliation rate
    d = 1 / 31
    h = d * math.log2(1 / d) + (1 - d) * math.log2(1 / (1 - d))
    assert abs(h * 31 - 6.4) < 0.1
    assert len(code) < h * 31  # the perfect code beats the entropy rate at n=31


def test_syndrome_decode_weight0():
    code = hamming_parity_check(3)
    y = SeedStream("sd").bitvec(7)
    s = dense_matvec(code, y)
    res = syndrome_decode(y, s, code, 0)
    assert res.status == STATUS_UNIQUE and res.value == y
    res2 = syndrome_decode(y, BitVec(3, s.v ^ 1), code, 0)
    assert res2.status == STATUS_NOT_FOUND


def test_hamming74_t1_always_unique():
    """Perfect code: every (x, single error) pair decodes uniquely and
    correctly; exhaustive over all 2^7 syndromable words x all 8 errors."""
    code = hamming_parity_check(3)
    for xv in range(128):
        x = BitVec(7, xv)
        s = dense_matvec(code, x)
        for e in [0] + [1 << i for i in range(7)]:
            y = BitVec(7, xv ^ e)
            res = syndrome_decode(y, s, code, 1)
            assert res.status == STATUS_UNIQUE and res.value == x


def test_syndrome_decode_matches_brute_force_on_dense_codes():
    stream = SeedStream("sd-brute")
    statuses = set()
    for n in range(2, 11):
        for rows in range(1, 9):
            code = random_linear_code(rows, n, stream.child("code", n, rows))
            syndromes = [dense_matvec(code, BitVec(n, v)).v for v in range(1 << n)]
            y = stream.child("y", n, rows).bitvec(n)
            for w in range(min(3, n) + 1):
                for s in (syndromes[y.v ^ ((1 << w) - 1)], stream.bits(rows)):
                    want = [
                        v for v in range(1 << n)
                        if (v ^ y.v).bit_count() <= w and syndromes[v] == s
                    ]
                    res = syndrome_decode(y, BitVec(rows, s), code, w)
                    statuses.add(res.status)
                    assert res.candidates_checked == sum(math.comb(n, i) for i in range(w + 1))
                    if len(want) == 1:
                        assert res.status == STATUS_UNIQUE and res.value.v == want[0]
                    else:
                        assert res.status == (STATUS_AMBIGUOUS if want else STATUS_NOT_FOUND)
                        assert res.value is None
    assert statuses == {STATUS_UNIQUE, STATUS_AMBIGUOUS, STATUS_NOT_FOUND}


def test_random_linear_code_syndrome_monte_carlo():
    n, t = 24, 2
    d = t / n
    rows = math.ceil((d * math.log2(1 / d) + (1 - d) * math.log2(1 / (1 - d))) * n) + 4
    master = SeedStream("rlc")
    trials = 400
    ok = 0
    for trial in range(trials):
        code = random_linear_code(rows, n, master.child("code", trial))
        x = master.child("x", trial).bitvec(n)
        err_stream = master.child("e", trial)
        picks = set()
        while len(picks) < t:
            picks.add(err_stream.randrange(n))
        e = 0
        for p in picks:
            e |= 1 << p
        y = BitVec(n, x.v ^ e)
        res = syndrome_decode(y, dense_matvec(code, x), code, t)
        if res.status == STATUS_UNIQUE and res.value == x:
            ok += 1
    assert ok / trials >= 0.9


# ---------------------------------------------------------
# joint decoding
# ---------------------------------------------------------

def coset_bitvecs(fp):
    """Every word of a fingerprint's coset as a BitVec, by doubling over
    the kernel of its description; () when it has none, None past the
    joint decode's cap."""
    coset = solutions(fp.spec, fp.value.v)
    if not coset:
        return ()
    particular, kernel = coset
    if len(kernel) > reconcile._COSET_CAP_BITS:
        return None
    words = [particular]
    for k in kernel:
        words += [w ^ k for w in words]
    return [BitVec(fp.spec.cols, w) for w in words]


def test_solutions_cover_the_preimage():
    stream = SeedStream("fps")
    x = stream.bitvec(10)
    fp = encode(x, 7, Fraction(1, 2), stream.child("s"))
    coset = solutions(fp.spec, fp.value.v)
    particular, kernel = coset
    assert isinstance(kernel, tuple)  # kept on the hash and shared, so immutable
    assert solutions(fp.spec, fp.value.v) is coset
    assert fp.spec.cosets == {fp.value.v: coset}
    assert solutions(fp.spec, matvec(fp.spec, x).v) is coset  # by hash and value: x's value, re-hashed
    assert coset == gf2.solve_affine(fp.spec, fp.value)  # the solve's result, as it is
    assert len(kernel) >= 2
    sols = coset_bitvecs(fp)
    assert x in sols
    assert len(set(sols)) == len(sols) == 1 << (10 - rank(to_dense(fp.spec), 10))
    for v in sols:
        assert matvec(fp.spec, v) == fp.value
    # The Gray code walk covers the same words.
    assert sorted(reconcile._coset_walk(*coset)) == sorted(v.v for v in sols)
    # No solution is None, as the solve's: the all-zero hash maps every word to 0.
    assert solutions(Gf2Matrix(3, 4, BitVec(6, 0)), 1) is None


def test_solutions_are_kept_whole_past_the_joint_cap():
    # The coset is the solve's, whatever its size; the joint decode applies
    # its own cap, and answers search_limit before not_found when one other
    # party's coset is past it and the other's is empty.
    model = parse_model_spec("triple:n=16")
    inst = sample(model, SeedStream("md-own"))
    fps = _triple_fingerprints(inst, (32, 16, 32), Fraction(1, 2), SeedStream("md-own-s"))
    particular, kernel = solutions(fps[1].spec, fps[1].value.v)
    assert len(kernel) > reconcile._COSET_CAP_BITS
    assert (particular, kernel) == gf2.solve_affine(fps[1].spec, fps[1].value)
    zero_hash = Gf2Matrix(8, 32, BitVec(toeplitz_seed_len(8, 32), 0))
    empty = Fingerprint(zero_hash, BitVec(8, 1))  # the all-zero hash meets no nonzero value
    assert solutions(empty.spec, empty.value.v) is None
    own = inst.inputs[0]
    for others in ([fps[1], empty], [empty, fps[1]]):
        res = multi_decode(model, 1, own, [fps[0], *others])
        assert (res.status, res.value, res.candidates_checked) == (STATUS_SEARCH_LIMIT, None, 0)


def _triple_fingerprints(inst, rates, eps, stream):
    return [
        encode(inst.inputs[i], rates[i], eps, stream.child("fp", i))
        for i in range(3)
    ]


def test_multi_decode_collinear_triple():
    model = parse_model_spec("triple:n=8")
    eps = Fraction(1, 16)
    master = SeedStream("md")
    rates = (12, 12, 12)  # 1.5n at n=8
    ok = 0
    trials = 150
    for t in range(trials):
        inst = sample(model, master.child("in", t))
        fps = _triple_fingerprints(inst, rates, eps, master.child("s", t))
        for party in (1, 2, 3):
            own = inst.inputs[party - 1]
            res = multi_decode(model, party, own, fps)
            if res.status == STATUS_UNIQUE and res.value == packed(inst.inputs):
                ok += 1
    assert ok / (3 * trials) >= 1 - float(eps) - 3 * math.sqrt(float(eps) / (3 * trials))


def test_multi_decode_singleton_sets():
    model = parse_model_spec("triple:n=4")
    inst = sample(model, SeedStream("md1"))
    # full-length fingerprints pin each input exactly (k = input length)
    fps = _triple_fingerprints(inst, (8, 8, 8), Fraction(1, 16), SeedStream("md1s"))
    res = multi_decode(model, 1, inst.inputs[0], fps)
    assert res.status == STATUS_UNIQUE and res.value == packed(inst.inputs)
    with pytest.raises(ValueError, match="collinear triple"):
        multi_decode(parse_model_spec("line-point:n=4"), 1, inst.inputs[0], fps)


def test_multi_decode_tampered_fingerprint():
    model = parse_model_spec("triple:n=4")
    inst = sample(model, SeedStream("md2"))
    fps = _triple_fingerprints(inst, (6, 6, 6), Fraction(1, 4), SeedStream("md2s"))
    bad = _tampered(fps[1])
    res = multi_decode(model, 1, inst.inputs[0], [fps[0], bad, fps[2]])
    assert res.status in (STATUS_NOT_FOUND, STATUS_AMBIGUOUS)
    assert res.value is None
    # The holder's own fingerprint is a match condition too.
    res = multi_decode(model, 1, inst.inputs[0], [_tampered(fps[0]), fps[1], fps[2]])
    assert res.status == STATUS_NOT_FOUND and res.value is None


def _tampered(fp):
    return Fingerprint(fp.spec, BitVec(fp.value.n, fp.value.v ^ 1))


def test_multi_decode_matches_brute_force():
    # Every holder of 60 seeded triple:n=3 truths, 1-6 fingerprint rows so
    # that every status occurs; every fifth seed tampers party 2's value.
    model = parse_model_spec("triple:n=3")
    instances = list(model.instances())
    stream = SeedStream("md-brute")
    statuses = set()
    for s in range(60):
        inst = sample(model, stream.child("in", s))
        fps = [encode(x, 1 + stream.randrange(6), 1, stream.child("fp", s, i)) for i, x in enumerate(inst.inputs)]
        if s % 5 == 0:
            fps[1] = _tampered(fps[1])
        for party in (1, 2, 3):
            own = inst.inputs[party - 1]
            want = [
                tup for tup in instances
                if tup[party - 1] == own and all(matvec(fp.spec, x) == fp.value for fp, x in zip(fps, tup))
            ]
            res = multi_decode(model, party, own, fps)
            statuses.add(res.status)
            if len(want) == 1:
                assert res.status == STATUS_UNIQUE and res.value == packed(want[0])
            else:
                assert res.status == (STATUS_AMBIGUOUS if want else STATUS_NOT_FOUND)
                assert res.value is None
    assert statuses == {STATUS_UNIQUE, STATUS_AMBIGUOUS, STATUS_NOT_FOUND}


def product_filter_decode(model, own_index, own, fps):
    """The joint decoder as a literal filter: every tuple of the product of
    the holder's input with each other party's fingerprint coset, kept when
    the model allows it.  The reference that multi_decode must match."""
    cosets = []
    for i, fp in enumerate(fps, start=1):
        if i == own_index:
            cosets.append((own,) if matvec(fp.spec, own) == fp.value else ())
            continue
        words = coset_bitvecs(fp)
        if words is None:
            return DecodeResult(STATUS_SEARCH_LIMIT, None, 0)
        cosets.append(words)
    total = math.prod(map(len, cosets))
    found = list(islice((tup for tup in product(*cosets) if is_consistent(model, tup)), 2))
    if len(found) != 1:
        return DecodeResult(STATUS_AMBIGUOUS if found else STATUS_NOT_FOUND, None, total)
    return DecodeResult(STATUS_UNIQUE, packed(found[0]), total)


def _assert_matches_product_filter(model, party, own, fps):
    """multi_decode against the reference; the status."""
    got = multi_decode(model, party, own, fps)
    want = product_filter_decode(model, party, own, fps)
    assert (got.status, got.value, got.candidates_checked) == (want.status, want.value, want.candidates_checked)
    return got.status


def test_multi_decode_matches_product_filter():
    # Every holder of seeded triples at n = 2, 4, 8 and 16, at the bench's
    # n = 30 and 32, and at n = 64, the largest field.  Fingerprints up to
    # `short` rows short of the 2n input bits leave cosets of up to 2^short
    # words; one seed in four is honest, the others tamper one party each
    # in turn.  The reference multiplies by the bitwise `codes.clmul` loop.
    statuses = {}
    for n, seeds, short in [(2, 120, 5), (4, 120, 5), (8, 120, 5), (16, 40, 5), (30, 24, 6), (32, 24, 6), (64, 24, 6)]:
        model = parse_model_spec(f"triple:n={n}")
        stream = SeedStream("md-product", n)
        for s in range(seeds):
            inst = sample(model, stream.child("in", s))
            fps = [
                encode(x, 2 * n - stream.randrange(min(2 * n, short + 1)), 1, stream.child("fp", s, i))
                for i, x in enumerate(inst.inputs)
            ]
            if s % 4:
                fps[s % 4 - 1] = _tampered(fps[s % 4 - 1])
            for p in (1, 2, 3):
                statuses.setdefault(n, set()).add(_assert_matches_product_filter(model, p, inst.inputs[p - 1], fps))
    assert set().union(*statuses.values()) == {STATUS_UNIQUE, STATUS_AMBIGUOUS, STATUS_NOT_FOUND}
    for n in (30, 32, 64):  # honest and tampered fingerprints both decided
        assert {STATUS_UNIQUE, STATUS_NOT_FOUND} <= statuses[n], (n, statuses[n])


def _point(c, d, n):
    return BitVec(2 * n, c | d << n)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_multi_decode_matches_product_filter_on_degenerate_words(n):
    # Fingerprint values forced so that a coset holds a word on the holder's
    # abscissa, the holder's own point, or a point of the other coset.
    model = parse_model_spec(f"triple:n={n}")
    stream = SeedStream("md-degenerate", n)
    mask = (1 << n) - 1
    for s in range(40):
        inst = sample(model, stream.child("in", s))
        fps = [encode(x, 2 * n - 1 - stream.randrange(3), 1, stream.child("fp", s, i)) for i, x in enumerate(inst.inputs)]
        holder = 1 + s % 3
        own = inst.inputs[holder - 1]
        a, b = [i for i in range(3) if i != holder - 1]
        c_o, d_o = own.v & mask, own.v >> n
        shared = _point(stream.bits(n), stream.bits(n), n)
        forced = {
            "on the holder's abscissa": {a: _point(c_o, d_o ^ (1 + stream.randrange(mask)), n)},
            "the holder's point": {a: own},
            "shared by both cosets": {a: shared, b: shared},
        }
        for words in forced.values():
            tweaked = list(fps)
            for i, w in words.items():
                tweaked[i] = Fingerprint(fps[i].spec, matvec(fps[i].spec, w))
                assert w in coset_bitvecs(tweaked[i])
            _assert_matches_product_filter(model, holder, own, tweaked)


def test_multi_decode_own_mismatch_is_not_found_before_any_solve():
    # The holder's own fingerprint is checked before either other one is
    # solved.  The product filter solved them first, so a coset past the cap
    # made it answer search_limit where no tuple can match at all.
    model = parse_model_spec("triple:n=16")
    inst = sample(model, SeedStream("md-own"))
    fps = _triple_fingerprints(inst, (32, 16, 32), Fraction(1, 2), SeedStream("md-own-s"))
    assert len(solutions(fps[1].spec, fps[1].value.v)[1]) > reconcile._COSET_CAP_BITS  # 2^16 words or more
    fps[0] = _tampered(fps[0])
    assert product_filter_decode(model, 1, inst.inputs[0], fps).status == STATUS_SEARCH_LIMIT
    res = multi_decode(model, 1, inst.inputs[0], fps)
    assert (res.status, res.value, res.candidates_checked) == (STATUS_NOT_FOUND, None, 0)


def _far_coset_fingerprints(model, far_dim, stream):
    """A triple's inputs and fingerprints built from seeded Toeplitz hashes:
    parties 1 and 2 hash to 8 bits past their input length, as does party
    3 at far_dim 0, else to far_dim bits short of it, so that its coset is
    the far one.  A square Toeplitz matrix is often singular, a tall one
    rarely, so the kernel dimensions are read from the solve."""
    inst = sample(model, stream.child("in"))
    tall, far_rows = model.input_len + 8, model.input_len - far_dim
    fps = []
    for i, (x, rows) in enumerate(zip(inst.inputs, (tall, tall, far_rows if far_dim else tall))):
        spec = Gf2Matrix(rows, x.n, stream.child("h", i).bitvec(toeplitz_seed_len(rows, x.n)))
        fps.append(Fingerprint(spec, matvec(spec, x)))
    return inst, fps


@pytest.mark.parametrize("far_dim", [14, 15])
def test_multi_decode_cap_boundary(far_dim):
    # A far coset of 2^14 words, the cap, still decodes; one of 2^15 ends
    # search_limit before any product is searched.
    model = parse_model_spec("triple:n=30")
    inst, fps = _far_coset_fingerprints(model, far_dim, SeedStream("md-cap", far_dim))
    near_dim, got_dim = (len(gf2.solve_affine(fp.spec, fp.value)[1]) for fp in fps[1:])
    assert got_dim == far_dim
    res = multi_decode(model, 1, inst.inputs[0], fps)
    if far_dim > reconcile._COSET_CAP_BITS:
        assert (res.status, res.value, res.candidates_checked) == (STATUS_SEARCH_LIMIT, None, 0)
    else:
        want = (STATUS_UNIQUE, packed(inst.inputs), 1 << (near_dim + far_dim))
        assert (res.status, res.value, res.candidates_checked) == want


def test_multi_decode_builds_no_bitvec_per_coset_word(monkeypatch):
    # The BitVecs one decode builds do not grow with the far coset: its
    # words stay ints from the solve to the match.
    model = parse_model_spec("triple:n=30")
    built, counts = [], {}
    monkeypatch.setattr(reconcile, "BitVec", lambda *a: built.append(a) or BitVec(*a))
    for far_dim in (0, 6):
        inst, fps = _far_coset_fingerprints(model, far_dim, SeedStream("md-objects", far_dim))
        assert len(gf2.solve_affine(fps[2].spec, fps[2].value)[1]) == far_dim
        built.clear()
        res = multi_decode(model, 1, inst.inputs[0], fps)
        assert (res.status, res.value) == (STATUS_UNIQUE, packed(inst.inputs))
        counts[far_dim] = len(built)
    assert counts[0] == counts[6]

import math
from fractions import Fraction

import pytest

from codes import fresh_toeplitz
from entropy_checks import tv_distance
from skalab.gf2 import BitVec, Gf2Matrix, matvec
from skalab.profiles import ceil_log2
from skalab.rng import SeedStream


def test_ceil_log2_inv():
    # ceil(log2(1/eps)), the fingerprint and extractor slack for an eps.
    assert ceil_log2(1 / Fraction(1, 2)) == 1
    assert ceil_log2(1 / Fraction(1, 256)) == 8
    assert ceil_log2(1 / Fraction(1, 3)) == 2
    assert ceil_log2(1 / Fraction(2, 3)) == 1
    assert ceil_log2(1 / Fraction(1)) == 0
    with pytest.raises(ValueError):
        ceil_log2(Fraction(0))


def _ceil_log2_inv_by_loop(eps):
    c = 0
    while (eps.numerator << c) < eps.denominator:
        c += 1
    return c


def test_ceil_log2_inv_closed_form_exhaustive():
    # Every eps = n/d with n < d <= 64, plus the protocols' smallest eps.
    for d in range(2, 65):
        for n in range(1, d):
            eps = Fraction(n, d)
            assert ceil_log2(1 / eps) == _ceil_log2_inv_by_loop(eps)
    for eps in (Fraction(1, 2**32), Fraction(1, 2**64), Fraction(2**32 + 1, 2**64)):
        assert ceil_log2(1 / eps) == _ceil_log2_inv_by_loop(eps)


# ---------------------------------------------------------
# hash: spec examples
# ---------------------------------------------------------

def test_hash_zero_rows_empty_output():
    spec = Gf2Matrix(0, 5, BitVec(0, 0))
    assert matvec(spec, BitVec(5, 0b10110)) == BitVec(0, 0)


def test_hash_zero_input_is_zero():
    spec = fresh_toeplitz(6, 9, SeedStream("h0"))
    assert matvec(spec, BitVec(9, 0)) == BitVec(6, 0)


def test_hash_fixed_toeplitz_seed_10110():
    # seed bits 1,0,1,1,0 for a 2x4 Toeplitz: rows (1,1,0,1) and (0,1,1,0);
    # x = 1001 hits two ones on row 0 and none on row 1: output (0,0).
    spec = Gf2Matrix(2, 4, BitVec(5, 0b01101))
    out = matvec(spec, BitVec(4, 0b1001))
    assert out == BitVec(2, 0b00)
    assert matvec(spec, BitVec(4, 0b1001)) == out  # replay


def test_hash_dimension_mismatch():
    spec = fresh_toeplitz(3, 4, SeedStream("dim"))
    with pytest.raises(Exception):
        matvec(spec, BitVec(5, 0))


# ---------------------------------------------------------
# universality (Monte-Carlo against the exact 2^-rows rate)
# ---------------------------------------------------------

def _collision_rate(rows, cols, trials, label):
    stream = SeedStream("universal", label)
    x = stream.bitvec(cols)
    while True:
        x2 = stream.bitvec(cols)
        if x2 != x:
            break
    hits = 0
    for _ in range(trials):
        spec = fresh_toeplitz(rows, cols, stream)
        if matvec(spec, x) == matvec(spec, x2):
            hits += 1
    return hits / trials


def test_toeplitz_hash_is_universal():
    rows, cols, trials = 4, 10, 20000
    p = 2.0**-rows
    sigma = math.sqrt(p * (1 - p) / trials)
    rate = _collision_rate(rows, cols, trials, "toep")
    assert abs(rate - p) <= 3 * sigma


# ---------------------------------------------------------
# extractor: the (k, eps) Toeplitz extractor is an m x input_len Toeplitz
# matrix, m = k - 2 ceil(log2(1/eps)); sessions size it in their plan
# ---------------------------------------------------------

def test_extract_zero_and_determinism():
    seed = SeedStream("ext").bitvec(12 + 6 - 1)  # k=10, eps=1/4: m=6
    assert matvec(Gf2Matrix(6, 12, seed), BitVec(12, 0)) == BitVec(6, 0)
    x = SeedStream("extx").bitvec(12)
    assert matvec(Gf2Matrix(6, 12, seed), x) == matvec(Gf2Matrix(6, 12, seed), x)


def test_extract_collision_rate_over_seeds():
    m = 4  # k=8, eps=1/4
    stream = SeedStream("extcol")
    x1 = stream.bitvec(10)
    while True:
        x2 = stream.bitvec(10)
        if x2 != x1:
            break
    trials = 100_000
    hits = 0
    for _ in range(trials):
        ext = Gf2Matrix(m, 10, stream.bitvec(10 + m - 1))
        if matvec(ext, x1) == matvec(ext, x2):
            hits += 1
    p = 2.0**-m
    sigma = math.sqrt(p * (1 - p) / trials)
    assert hits / trials <= p + 3 * sigma


# ---------------------------------------------------------
# tv_distance
# ---------------------------------------------------------

def test_tv_all_equal_half():
    samples = [BitVec(1, 1)] * 100
    assert tv_distance(samples, 1) == 0.5


def test_tv_exact_uniform_zero():
    samples = [BitVec(3, v) for v in range(8)] * 5
    assert tv_distance(samples, 3) == 0.0


def test_tv_contract_errors():
    with pytest.raises(ValueError):
        tv_distance([BitVec(25, 0)], 25)
    with pytest.raises(ValueError):
        tv_distance([], 3)
    with pytest.raises(ValueError):
        tv_distance([BitVec(2, 0)], 3)


# ---------------------------------------------------------
# leftover hash on a bounded source (small-scale oracle)
# ---------------------------------------------------------

def test_extractor_on_subset_source_small():
    """Uniform source on a random 2^k-subset: the seed-averaged exact TV of
    the output stays within the leftover-hash bound sqrt(2^m / 2^k) / 2."""
    input_len, k = 10, 8
    m = k - 2 * 2  # eps = 1/4
    stream = SeedStream("lhl-small")
    universe = list(range(1 << input_len))
    subset = []
    for i in range(1 << k):  # partial Fisher-Yates: uniform 2^k-subset
        j = i + stream.randrange(len(universe) - i)
        universe[i], universe[j] = universe[j], universe[i]
        subset.append(universe[i])
    tvs = []
    for _ in range(40):
        ext = Gf2Matrix(m, input_len, stream.bitvec(input_len + m - 1))
        outs = [matvec(ext, BitVec(input_len, v)) for v in subset]
        tvs.append(tv_distance(outs, m))
    mean_tv = sum(tvs) / len(tvs)
    assert mean_tv <= 0.5 * math.sqrt(2.0 ** (m - k)) + 0.02

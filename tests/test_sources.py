import copy
import math
import pickle
from fractions import Fraction

import pytest

from codes import encode
from entropy_checks import exact_profile
from model_checks import candidate_words, is_consistent
from skalab.entropy import JointDistribution
from skalab.gf2 import BitVec, FieldConfigError, mul_int
from skalab.profiles import cond, is_polymatroid
from skalab.reconcile import decode
from skalab.rng import SeedStream
from skalab.sources import (
    MODELS,
    Hamming,
    HammingSphere,
    Identical,
    LinePoint,
    Triple,
    parse_model_spec,
    sample,
    weight_words,
)


# ---------------------------------------------------------
# model specs and validation
# ---------------------------------------------------------

def test_parse_model_specs():
    m = parse_model_spec("line-point:n=16")
    assert m == LinePoint(16) and m.parties == 2
    m = parse_model_spec("hamming:n=31,t=2")
    assert m == Hamming(31, 2) and (m.n, m.t) == (31, 2)
    assert parse_model_spec("triple:n=16").parties == 3
    assert parse_model_spec("identical:n=16").input_len == 16
    assert parse_model_spec("hamming:n=8").t == 0  # t defaults to zero errors
    for spec in ("nope:n=4", "hamming:t=1", "line-point:n=16,z=1", "line-point"):
        with pytest.raises(ValueError):
            parse_model_spec(spec)
    for spec in ("line-point:n=x", "line-point:n=1_6", "hamming:n=8,t=+1", "hamming:n=8,t=1,",
                 "identical:n=\u0668", "hamming:n=\uff13\uff11,t=\u0662"):  # Arabic-Indic and full-width digits
        with pytest.raises(ValueError, match="bad model parameter"):
            parse_model_spec(spec)
    # A repeated parameter, or a t on a model that takes none, would run a
    # config other than the one the spec string names.
    for spec, message in (
        ("line-point:n=4,n=8", "model parameter n given twice"),
        ("hamming:n=8,t=1,t=2", "model parameter t given twice"),
        ("identical:n=8,t=0", "identical takes no t parameter"),
        ("triple:n=4,t=0", "triple takes no t parameter"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_model_spec(spec)


def test_spec_string_roundtrip():
    for text in ("line-point:n=16", "hamming:n=31,t=2", "triple:n=4", "identical:n=9"):
        assert parse_model_spec(text).spec_string() == text


def test_model_validation():
    with pytest.raises(ValueError):
        Hamming(8, 4)  # t >= n/2
    with pytest.raises(ValueError):
        LinePoint(1)
    with pytest.raises(FieldConfigError):
        LinePoint(70)
    Hamming(70, 3)  # no field needed


# Each class's own checks at their edges: (spec, the error it raises or None).
BOUNDARIES = [
    *((f"{name}:n=1", ValueError) for name in MODELS),
    ("line-point:n=64", None),
    ("line-point:n=65", FieldConfigError),
    ("triple:n=64", None),
    ("triple:n=65", FieldConfigError),
    ("hamming:n=9,t=4", None),  # t = ceil(n/2) - 1
    ("hamming:n=10,t=4", None),
    ("hamming:n=10,t=5", ValueError),  # t = n/2
    ("hamming:n=10,t=-1", ValueError),
    ("hamming:n=70,t=3", None),
    ("identical:n=70", None),
]


@pytest.mark.parametrize("spec,error", BOUNDARIES)
def test_model_boundaries(spec, error):
    if error is not None:
        with pytest.raises(error):
            parse_model_spec(spec)
        return
    m = parse_model_spec(spec)
    assert parse_model_spec(m.spec_string()) == m


SMALL_MODELS = [LinePoint(2), LinePoint(3), Hamming(5, 1), Hamming(6, 2), Hamming(4, 0), Triple(2), Identical(4)]


@pytest.mark.parametrize("model", SMALL_MODELS, ids=lambda m: m.spec_string())
def test_instances_are_the_draw_support(model):
    # instances() yields instance_count() distinct tuples that the model
    # allows, and seeded draws fall among them.
    instances = list(model.instances())
    support = set(instances)
    assert len(instances) == len(support) == model.instance_count()
    assert all(is_consistent(model, tup) for tup in instances)
    for i in range(200):
        assert sample(model, SeedStream("support", model.spec_string(), i)).inputs in support


# ---------------------------------------------------------
# sampling satisfies the model constraint
# ---------------------------------------------------------

def test_sample_line_point_incidence():
    model = parse_model_spec("line-point:n=8")
    for i in range(50):
        inst = sample(model, SeedStream("lp", i))
        (x, y) = inst.inputs
        a, b = x.v & 0xFF, x.v >> 8
        c, d = y.v & 0xFF, y.v >> 8
        assert d == mul_int(a, c, 8) ^ b
        assert is_consistent(model, inst.inputs)


def test_sample_is_an_immutable_named_tuple():
    inst = sample(parse_model_spec("identical:n=8"), SeedStream("nt"))
    x = inst.inputs[0]
    assert repr(inst) == f"CorrelatedInstance(inputs=(BitVec(n=8, v={x.v}), BitVec(n=8, v={x.v})))"
    assert not hasattr(inst, "__dict__")
    with pytest.raises(AttributeError):
        inst.inputs = ()
    for copied in (copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert copied == inst and type(copied) is type(inst) and type(copied.inputs[0]) is BitVec


def test_sample_identical():
    inst = sample(parse_model_spec("identical:n=16"), SeedStream("id"))
    assert inst.inputs[0] == inst.inputs[1]


def test_sample_hamming_distance_exact():
    model = parse_model_spec("hamming:n=8,t=1")
    for i in range(50):
        inst = sample(model, SeedStream("ham", i))
        assert (inst.inputs[0].v ^ inst.inputs[1].v).bit_count() == 1
    model3 = parse_model_spec("hamming:n=16,t=3")
    seen = set()
    for i in range(100):
        inst = sample(model3, SeedStream("ham3", i))
        e = inst.inputs[0].v ^ inst.inputs[1].v
        assert e.bit_count() == 3
        seen.add(e)
    assert len(seen) > 50  # errors spread over many position sets


def test_sample_triple_collinear_distinct():
    model = parse_model_spec("triple:n=8")
    for i in range(30):
        inst = sample(model, SeedStream("tri", i))
        assert is_consistent(model, inst.inputs)
        assert len({p.v for p in inst.inputs}) == 3
        (c1, d1), (c2, d2), (c3, d3) = [(p.v & 0xFF, p.v >> 8) for p in inst.inputs]
        inv = next(v for v in range(1, 256) if mul_int(c1 ^ c2, v, 8) == 1)
        a = mul_int(d1 ^ d2, inv, 8)  # slope through 1 and 2
        b = mul_int(a, c1, 8) ^ d1
        assert d3 == mul_int(a, c3, 8) ^ b


@pytest.mark.parametrize("n", [2, 3])
def test_triple_consistency_exhaustive(n):
    # Every tuple of three 2n-bit inputs, against the slope through the
    # first two points with a brute-force inverse.
    model = parse_model_spec(f"triple:n={n}")
    q = 1 << n
    inv = {v: next(w for w in range(1, q) if mul_int(v, w, n) == 1) for v in range(1, q)}
    words = [BitVec(2 * n, v) for v in range(q * q)]
    consistent = 0
    for p1 in words:
        c1, d1 = p1.v % q, p1.v // q
        for p2 in words:
            c2, d2 = p2.v % q, p2.v // q
            slope = mul_int(d1 ^ d2, inv[c1 ^ c2], n) if c1 != c2 else None
            for p3 in words:
                c3, d3 = p3.v % q, p3.v // q
                want = (
                    slope is not None
                    and c3 not in (c1, c2)
                    and d3 == mul_int(slope, c3 ^ c1, n) ^ d1
                )
                assert is_consistent(model, (p1, p2, p3)) == want
                consistent += want
    assert consistent == model.instance_count()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triple_consistency_matches_two_field_products(n):
    # model_checks.is_consistent reduces the XOR of two carry-less
    # products once; the test compares the two field products.  With point
    # 1 at (0, 0) the operands d2, c3, d3 and c2 range over every value
    # distinct abscissas allow.
    model = parse_model_spec(f"triple:n={n}")
    q = 1 << n
    agree = 0
    for c2 in range(1, q):
        for c3 in range(1, q):
            if c3 == c2:
                continue
            for d2 in range(q):
                for d3 in range(q):
                    pts = (BitVec(2 * n, 0), BitVec(2 * n, c2 | d2 << n), BitVec(2 * n, c3 | d3 << n))
                    want = mul_int(d2, c3, n) == mul_int(d3, c2, n)
                    assert is_consistent(model, pts) == want
                    agree += want
    assert agree == (q - 1) * (q - 2) * q  # one d3 per (c2, c3, d2)


# ---------------------------------------------------------
# analytic profiles (paper values)
# ---------------------------------------------------------

def test_analytic_profile_line_point_16():
    p = parse_model_spec("line-point:n=16").profile()
    assert (p.c({1}), p.c({2}), p.c({1, 2})) == (32, 32, 48)


def test_analytic_profile_triple_16():
    p = parse_model_spec("triple:n=16").profile()
    assert p.c({1}) == 32
    assert p.c({1, 2}) == p.c({1, 3}) == p.c({2, 3}) == 64
    assert p.c({1, 2, 3}) == 80


def test_analytic_profile_hamming():
    p = parse_model_spec("hamming:n=8,t=1").profile()
    assert p.c({1, 2}) == 8 + 3  # ceil(log2 C(8,1)) = 3
    p = parse_model_spec("identical:n=16").profile()
    assert p.c({1, 2}) == 16


def test_analytic_profiles_are_polymatroids():
    for spec in ("line-point:n=4", "hamming:n=16,t=3", "triple:n=4", "identical:n=8"):
        assert is_polymatroid(parse_model_spec(spec).profile())


# ---------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------

def test_candidates_hamming_sphere_size():
    model = parse_model_spec("hamming:n=8,t=1")
    inst = sample(model, SeedStream("cball"))
    sphere = model.candidates(inst.inputs[1])
    cands = candidate_words(model, inst.inputs[1])
    # the sphere of radius 1, n words; y itself is not a candidate at t = 1
    assert len(cands) == 8
    assert math.comb(sphere.length, sphere.t) == 8
    assert inst.inputs[1] not in cands


def test_candidates_identical_singleton():
    # The identical model's candidate set is the Hamming sphere of radius 0
    # about Bob's word: that word alone.
    model = parse_model_spec("identical:n=8")
    inst = sample(model, SeedStream("cid"))
    sphere = model.candidates(inst.inputs[1])
    assert isinstance(sphere, HammingSphere)
    assert (sphere.length, sphere.center, sphere.t) == (8, inst.inputs[1].v, 0)
    assert candidate_words(model, inst.inputs[1]) == [inst.inputs[0]]


def test_candidates_line_point_all_incident():
    model = parse_model_spec("line-point:n=4")
    inst = sample(model, SeedStream("clp"))
    x, y = inst.inputs
    c, d = y.v & 0xF, y.v >> 4
    assert model.candidates(y).multiplier == c  # the coset is the graph of multiplication by c
    cands = candidate_words(model, y)
    assert len(cands) == 16
    slopes = []
    for cand in cands:
        a, b = cand.v & 0xF, cand.v >> 4
        assert d == mul_int(a, c, 4) ^ b  # every candidate passes through y
        slopes.append(a)
    assert slopes == list(range(16))  # lexicographic slope order


def test_candidates_alice_side_points_on_line():
    model = parse_model_spec("line-point:n=4")
    inst = sample(model, SeedStream("clpa"))
    x, _y = inst.inputs
    a, b = x.v & 0xF, x.v >> 4
    assert model.candidates(x).multiplier == a
    cands = candidate_words(model, x)
    assert len(cands) == 16
    for cand in cands:
        c, d = cand.v & 0xF, cand.v >> 4
        assert d == mul_int(a, c, 4) ^ b


def test_true_input_always_in_candidates():
    for spec, observer in (
        ("line-point:n=6", 2),
        ("hamming:n=10,t=2", 2),
        ("identical:n=7", 2),
        ("line-point:n=6", 1),
    ):
        model = parse_model_spec(spec)
        for i in range(20):
            inst = sample(model, SeedStream("sound", spec, observer, i))
            hidden = inst.inputs[2 - observer]  # the other party's input
            assert hidden in candidate_words(model, inst.inputs[observer - 1])


def test_candidate_count_matches_conditional_complexity():
    # log2 |candidates| ~ C(x|y) within one bit
    for spec in ("line-point:n=5", "identical:n=9", "hamming:n=8,t=1", "hamming:n=12,t=2"):
        model = parse_model_spec(spec)
        inst = sample(model, SeedStream("count", spec))
        log2_size = math.log2(len(candidate_words(model, inst.inputs[1])))
        k = cond(model.profile(), {1}, {2})
        if isinstance(model, Hamming):
            assert abs(log2_size - float(k)) <= 1.0
        else:
            assert log2_size == k


@pytest.mark.parametrize("n", [63, 64])
def test_line_point_candidate_size_at_word_width(n):
    # 2^n candidates overflow a machine index; decode counts them exactly.
    model = parse_model_spec(f"line-point:n={n}")
    x, y = sample(model, SeedStream("cwide", n)).inputs
    res = decode(encode(x, n, Fraction(1, 256), SeedStream("cwide-fp", n)), model.candidates(y))
    assert res.value == x and res.candidates_checked == 1 << n


def test_triple_needs_joint_decoder():
    # Only the two-party models have a candidate set; reconcile.multi_decode
    # builds the triple's joint one.
    assert not hasattr(Triple(4), "candidates")
    assert all(hasattr(m, "candidates") for m in (LinePoint(4), Hamming(4, 1), Identical(4)))


def test_weight_words_order():
    # Every weight class, in increasing order, against a filter of all words.
    for n in range(1, 9):
        for w in range(n + 2):
            assert list(weight_words(n, w)) == [v for v in range(1 << n) if v.bit_count() == w]


def test_hamming_sphere_iterates_errors_in_order():
    model = parse_model_spec("hamming:n=6,t=2")
    y = sample(model, SeedStream("sphere-order")).inputs[1]
    sphere = model.candidates(y)
    assert isinstance(sphere, HammingSphere) and (sphere.length, sphere.center, sphere.t) == (6, y.v, 2)
    cands = candidate_words(model, y)
    assert [c.v ^ y.v for c in cands] == list(weight_words(6, 2))
    assert len(cands) == math.comb(6, 2)


# ---------------------------------------------------------
# exhaustive enumeration vs analytic profile
# ---------------------------------------------------------

def test_enumerate_instances_counts():
    for spec, count in (
        ("line-point:n=2", 64),
        ("line-point:n=3", 512),
        ("identical:n=4", 16),
        ("hamming:n=5,t=1", 160),
        ("hamming:n=5,t=2", 320),
        # triple at n=2: 16 lines x 4*3*2 ordered distinct abscissas
        ("triple:n=2", 16 * 24),
    ):
        model = parse_model_spec(spec)
        assert sum(1 for _ in model.instances()) == count
        assert model.instance_count() == count


def test_exact_profile_matches_analytic_small_n():
    for spec in ("line-point:n=2", "line-point:n=3", "identical:n=3"):
        model = parse_model_spec(spec)
        dist = JointDistribution.uniform(model.parties, model.instances())
        got = exact_profile(dist)
        want = model.profile()
        for s in got.values:
            assert got.c(s) == want.c(s)  # uniform models: exact equality


def test_exact_profile_matches_analytic_hamming():
    model = parse_model_spec("hamming:n=5,t=1")
    dist = JointDistribution.uniform(2, model.instances())
    got = exact_profile(dist)
    # C(x) and C(y) exact; the joint is n + log2(5) vs the analytic ceiling
    assert got.c({1}) == 5 and got.c({2}) == 5
    assert abs(float(got.c({1, 2})) - (5 + math.log2(5))) < 1e-9
    want = model.profile()
    assert float(want.c({1, 2})) - float(got.c({1, 2})) <= 1.0


def test_collinear_triple_exact_profile_n2():
    model = parse_model_spec("triple:n=2")
    dist = JointDistribution.uniform(3, model.instances())
    got = exact_profile(dist)
    want = model.profile()
    # Distinctness of the points costs log2 terms against the analytic 4n /
    # 5n idealization: a pair is the line plus an ordered distinct pair of
    # abscissas, the full tuple the line plus an ordered distinct triple.
    assert abs(float(got.c({1, 2})) - (4 + math.log2(4 * 3))) < 1e-9
    assert abs(float(got.c({1, 2, 3})) - (4 + math.log2(4 * 3 * 2))) < 1e-9
    # the gap against the idealized profile is exactly the distinctness cost
    assert abs(
        (float(want.c({1, 2, 3})) - float(got.c({1, 2, 3}))) - (6 - math.log2(24))
    ) < 1e-9
    for s in got.values:
        assert float(got.c(s)) <= float(want.c(s))

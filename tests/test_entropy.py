from fractions import Fraction

import pytest

from skalab.entropy import (
    JointDistribution,
    LogExpr,
    rectangle_violations,
    transcript_inequality_audit,
)
from skalab.rng import SeedStream
from skalab.sources import parse_model_spec

from entropy_checks import (
    bv,
    check_calculation_identity_a,
    check_calculation_identity_b,
    check_common_information_bound,
    check_half_sum_bound,
    entropy_expr,
    exact_profile,
    exact_profile_symbolic,
    extend_with,
    h_of,
    make_identity_b_dist,
    make_shared_component_dist,
    profile_is_polymatroid_exact,
    random_joint,
    rectangle_violations_by_scan,
)


# ---------------------------------------------------------
# LogExpr exactness
# ---------------------------------------------------------

def test_logexpr_exact_zero_by_factorization():
    e = LogExpr()
    e.add_log(9, Fraction(1))
    e.add_log(3, Fraction(-2))
    assert e.sign() == 0


def test_logexpr_strips_powers_of_two():
    e = LogExpr()
    e.add_log(12, Fraction(1))  # log2 12 = 2 + log2 3
    assert e.rat == 2 and e.terms == {3: Fraction(1)}


def test_logexpr_sign_near_zero():
    e = LogExpr(Fraction(-1585, 1000))
    e.add_log(3, Fraction(1))  # log2(3) - 1.585 ~ -3.7e-5: the float value decides
    assert e.sign() == -1
    e2 = LogExpr(Fraction(-1584, 1000))
    e2.add_log(3, Fraction(1))
    assert e2.sign() == 1


def test_logexpr_sign_within_float_cutoff_is_decided_in_integers():
    # log2(3) - 1.5849625 ~ 7.2e-10, inside the float cutoff: with the
    # common denominator 80000, 3^80000 is compared with 2^126797.
    e = LogExpr(Fraction(-15849625, 10**7))
    e.add_log(3, Fraction(1))
    assert 0 < e.to_float() < 1e-6
    assert e.sign() == 1
    assert e.scaled(-1).sign() == -1
    cube_root = LogExpr(0, {27: Fraction(1, 3), 3: Fraction(-1)})  # 27^(1/3) = 3
    assert cube_root.sign() == 0


def test_logexpr_repr_lists_terms_in_ascending_m():
    e = LogExpr()
    for m in (7, 5, 3):
        e.add_log(m, Fraction(1, m))
    assert list(e.terms) == [7, 5, 3]
    assert repr(e) == "LogExpr(0, {3: Fraction(1, 3), 5: Fraction(1, 5), 7: Fraction(1, 7)})"


def test_entropy_expr_uniform_is_rational():
    h = entropy_expr([Fraction(1, 8)] * 8)
    assert h.sign() == 1 and h.rat == 3 and not h.terms


def test_entropy_expr_biased():
    h = entropy_expr([Fraction(1, 3), Fraction(2, 3)])
    # H = log2(3) - 2/3
    assert h.terms == {3: Fraction(1)} and h.rat == Fraction(-2, 3)
    assert abs(h.to_float() - 0.9182958340544896) < 1e-12


def _assert_per_value(dist, proj):
    """entropy_of(proj) equals the per-value sum, over proj's values in order
    of first appearance, in value and in repr."""
    weights = {}
    for inputs, w in dist.support:
        key = proj(inputs)
        weights[key] = weights.get(key, 0) + w
    total = sum(weights.values())
    h, ref = dist.entropy_of(proj), entropy_expr(Fraction(w, total) for w in weights.values())
    assert (h - ref).sign() == 0
    assert repr(h) == repr(ref)


@pytest.mark.parametrize(
    "weights",
    [
        [1] * 6,  # total 6
        [1, 2, 3, 1, 5, 2, 7],  # total 21
        [3, 6, 12, 3, 1, 6, 12],  # one odd part, 3, in 3, 6 and 12
        [12, 3, 6, 20],  # total 41, prime
        [7],  # a single point
        # Total 48: nine 1s give +9/48 log2 3 and 9 (p = 3/16) gives -3/16
        # log2 3, so the per-value coefficient of log2 3 returns to 0 and
        # 15 (p = 5/16) adds log2 5 before log2 3 comes back; summed per
        # weight, log2 3 is added first.  repr lists both in ascending m.
        [1] * 9 + [9, 15] + [1] * 15,
        # Total 12: 9 (p = 3/4) has numerator 3, and 1 and 2 (p = 1/12 and
        # 1/6) have denominators whose odd part is 3.
        [9, 1, 2],
    ],
)
def test_entropy_of_equals_the_per_value_sum(weights):
    dist = JointDistribution.from_weights(1, [((bv(8, i),), w) for i, w in enumerate(weights)])
    _assert_per_value(dist, lambda t: t[0])
    _assert_per_value(dist, lambda t: None)  # one value, whose weight is the total
    assert repr(dist.entropy_of(lambda t: None)) == "LogExpr(0, {})"


def test_entropy_of_equals_the_per_value_sum_on_random_supports():
    stream = SeedStream("entropy-of-by-weight", 0)
    for _ in range(30):
        dist = random_joint(3, stream, bits=2)
        for idx in ((0,), (1,), (0, 1), (1, 2), (0, 1, 2)):
            _assert_per_value(dist, lambda t, idx=idx: tuple(t[i] for i in idx))
        _assert_per_value(dist, lambda t: (t[0].v ^ t[1].v) & 1)


# ---------------------------------------------------------
# exact_profile: spec examples
# ---------------------------------------------------------

def test_profile_two_independent_bits():
    tuples = [(bv(1, a), bv(1, b)) for a in range(2) for b in range(2)]
    p = exact_profile(JointDistribution.uniform(2, tuples))
    assert (p.c({1}), p.c({2}), p.c({1, 2})) == (1, 1, 2)


def test_profile_copy():
    p = exact_profile(JointDistribution.uniform(2, [(bv(2, v), bv(2, v)) for v in range(4)]))
    assert (p.c({1}), p.c({2}), p.c({1, 2})) == (2, 2, 2)


def test_profile_line_point_enumerated_n2():
    model = parse_model_spec("line-point:n=2")
    dist = JointDistribution.uniform(2, model.instances())
    p = exact_profile(dist)
    assert (p.c({1}), p.c({2}), p.c({1, 2})) == (4, 4, 6)


def test_exact_profile_is_polymatroid():
    for salt in range(8):
        dist = random_joint(2, SeedStream("poly", salt))
        assert profile_is_polymatroid_exact(dist)
    for salt in range(4):
        dist = random_joint(3, SeedStream("poly3", salt), max_support=10)
        assert profile_is_polymatroid_exact(dist)


def test_exact_profile_symbolic_chain_rule_uniform_case():
    model = parse_model_spec("identical:n=3")
    dist = JointDistribution.uniform(2, model.instances())
    sym = exact_profile_symbolic(dist)
    assert (sym[frozenset({1, 2})] - sym[frozenset({1})]).sign() == 0


# ---------------------------------------------------------
# transcript_inequality_audit: spec examples
# ---------------------------------------------------------

def line_point_dist(n=2):
    return JointDistribution.uniform(
        2, parse_model_spec(f"line-point:n={n}").instances()
    )


def test_audit_constant_transcript():
    res = transcript_inequality_audit(line_point_dist(), lambda x, y: 0)
    assert res.rectangle_ok
    assert res.residual_i.sign() == 0  # I(x:y|T) = I(x:y) exactly


def test_audit_function_of_one_input():
    res = transcript_inequality_audit(line_point_dist(), lambda x, y: x.v & 0b11)
    assert res.rectangle_ok
    assert res.residual_i.sign() >= 0


def test_audit_xor_counterexample():
    dist = JointDistribution.uniform(2, [(bv(1, a), bv(1, b)) for a in range(2) for b in range(2)])
    res = transcript_inequality_audit(dist, lambda x, y: x.v ^ y.v)
    assert not res.rectangle_ok
    t_of = {inputs: inputs[0].v ^ inputs[1].v for inputs, _ in dist.support}
    assert res.rectangle_violations == rectangle_violations_by_scan(2, t_of)
    assert len(res.rectangle_violations) == 4
    # conditioning on the XOR creates one full bit: residual exactly -1
    assert res.residual_i.rat == -1 and not res.residual_i.terms


def test_audit_three_party_j_residual():
    stream = SeedStream("jres")
    for salt in range(6):
        dist = random_joint(3, SeedStream("jres", salt), max_support=10)
        # single-message broadcast: a function of party 1 alone
        res = transcript_inequality_audit(dist, lambda x, y, z: x.v & 1)
        assert res.rectangle_ok
        assert res.residual_i.sign() >= 0
        assert res.residual_j.sign() >= 0


def two_message_transcript(m1, m2):
    return lambda x, y: (m1[x.v], m2[(y.v, m1[x.v])])


def test_audit_exhaustive_two_message_protocols():
    """Every deterministic two-message protocol on a 3x3 support keeps
    I(a:b|T) <= I(a:b) and passes the rectangle check, exactly."""
    stream = SeedStream("protocols-exhaustive")
    support = [(bv(2, a), bv(2, b)) for a in range(3) for b in range(3)]
    weights = [1 + stream.randrange(9) for _ in support]
    dist = JointDistribution.from_weights(2, zip(support, weights))
    violations = 0
    for m1_bits in range(8):  # m1: {0,1,2} -> {0,1}
        m1 = {a: (m1_bits >> a) & 1 for a in range(3)}
        for m2_bits in range(64):  # m2: {0,1,2} x {0,1} -> {0,1}
            m2 = {(b, v): (m2_bits >> (b * 2 + v)) & 1 for b in range(3) for v in range(2)}
            f = two_message_transcript(m1, m2)
            res = transcript_inequality_audit(dist, f)
            t_of = {inputs: f(*inputs) for inputs, _ in dist.support}
            assert res.rectangle_violations == rectangle_violations_by_scan(2, t_of)
            if not res.rectangle_ok or res.residual_i.sign() < 0:
                violations += 1
    assert violations == 0


@pytest.mark.parametrize("ell", [2, 3])
def test_rectangle_index_matches_scan_on_random_maps(ell):
    """Arbitrary transcript maps are far from rectangular; the indexed check
    must list the reference scan's violations in the same order."""
    found = 0
    for salt in range(30):
        stream = SeedStream("rect-oracle", ell, salt)
        dist = random_joint(ell, stream, max_support=40, bits=3)
        table = {inputs: stream.bits(2) for inputs, _ in dist.support}
        want = rectangle_violations_by_scan(ell, table)
        assert rectangle_violations(ell, table) == want
        assert transcript_inequality_audit(dist, lambda *inputs: table[inputs]).rectangle_violations == want
        found += len(want)
    assert found >= 100


# ---------------------------------------------------------
# entropy analogs of the key information inequalities
# ---------------------------------------------------------

def test_common_information_bound_on_random_dists():
    for salt in range(25):
        stream = SeedStream("l74", salt)
        base = random_joint(2, stream)
        table = {t: stream.bits(2) for t, _ in base.support}
        dist = extend_with(base, lambda t: table[t], 2)
        assert check_common_information_bound(dist)


def test_half_sum_bound_on_shared_component_dists():
    for salt in range(25):
        dist = make_shared_component_dist(SeedStream("l52", salt))
        # z is a function of each party's input separately
        for i in (1, 2, 3):
            hz_given = h_of(dist, [i, 4]) - h_of(dist, [i])
            assert hz_given.sign() == 0
        assert check_half_sum_bound(dist)


def test_calculation_identity_a_exact():
    for salt in range(25):
        stream = SeedStream("l75a", salt)
        base = random_joint(2, stream)
        table = {t: stream.bits(2) for t, _ in base.support}
        dist = extend_with(base, lambda t: table[t], 2)
        assert check_calculation_identity_a(dist)


def test_calculation_identity_b_exact():
    for salt in range(25):
        dist = make_identity_b_dist(SeedStream("l75b", salt))
        for i in (1, 2):  # z computable from (x,t) and from (y,t)
            hz = h_of(dist, [i, 3, 4]) - h_of(dist, [i, 3])
            assert hz.sign() == 0
        assert check_calculation_identity_b(dist)


# ---------------------------------------------------------
# misc
# ---------------------------------------------------------

def test_joint_distribution_validation():
    with pytest.raises(ValueError):  # weights are positive integers, not probabilities
        JointDistribution(2, (((bv(1, 0), bv(1, 0)), Fraction(1, 2)),))
    with pytest.raises(ValueError):
        JointDistribution(2, (((bv(1, 0), bv(1, 0)), 0),))
    with pytest.raises(ValueError):
        JointDistribution(2, (((bv(1, 0),), 1),))
    with pytest.raises(ValueError):
        JointDistribution(
            2,
            (
                ((bv(1, 0), bv(1, 0)), 1),
                ((bv(1, 0), bv(1, 0)), 1),
            ),
        )
    # from_weights adds the weights of repeated inputs and sorts the support
    a, b = (bv(1, 1), bv(1, 0)), (bv(1, 0), bv(1, 1))
    merged = JointDistribution.from_weights(2, [(a, 2), (b, 1), (a, 3)])
    assert merged.support == ((b, 1), (a, 5))
    assert (merged.entropy_of(lambda t: t[0]) - entropy_expr([Fraction(1, 6), Fraction(5, 6)])).sign() == 0
    with pytest.raises(ValueError, match="BitVec tuples"):  # a plain pair equals a BitVec, but is not one
        JointDistribution.from_weights(1, [(((1, 0),), 1)])


def test_from_weights_orders_mixed_lengths_by_length_then_value():
    # The order of the explicit (n, v) key of every component, which the
    # support keeps whatever the lengths of its vectors.
    inputs = [(bv(3, 1), bv(1, 1)), (bv(2, 3), bv(4, 0)), (bv(3, 0), bv(2, 1)), (bv(2, 3), bv(1, 1)), (bv(0, 0), bv(5, 31)), (bv(3, 0), bv(2, 0))]
    dist = JointDistribution.from_weights(2, [(t, w) for w, t in enumerate(inputs, start=1)])
    want = sorted(inputs, key=lambda t: tuple((b.n, b.v) for b in t))
    assert [t for t, _w in dist.support] == want
    assert want[:3] == [(bv(0, 0), bv(5, 31)), (bv(2, 3), bv(1, 1)), (bv(2, 3), bv(4, 0))]

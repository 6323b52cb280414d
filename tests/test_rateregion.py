import time
from fractions import Fraction
from itertools import combinations

import pytest

from profile_tools import format_profile, key_capacity, random_polymatroid, satisfied_by, scale
from skalab.cli import main
from skalab.profiles import ComplexityProfile, all_nonempty_subsets, make_profile
from skalab.rateregion import (
    RateRegion,
    RateTuple,
    co_formula3,
    co_lp,
    sw_constraints,
)
from skalab.rng import SeedStream
from skalab.sources import parse_model_spec


def triple16():
    return parse_model_spec("triple:n=16").profile()


def line_point16():
    return parse_model_spec("line-point:n=16").profile()


def additive(weights):
    ell = len(weights)
    return ComplexityProfile(
        ell,
        {s: Fraction(sum(weights[i - 1] for i in s)) for s in all_nonempty_subsets(ell)},
    )


def by_size(ell, c):
    """The symmetric profile C(S) = c(|S|)."""
    return ComplexityProfile(ell, {s: Fraction(c(len(s))) for s in all_nonempty_subsets(ell)})


def collinear(ell, n):
    """ell points on a random line over GF(2^n): 2n bits alone, n(|S|+2) jointly."""
    return by_size(ell, lambda k: 2 * n if k == 1 else n * (k + 2))


def degenerate_profiles(ell):
    """Structured profiles: all bounds zero (zero, identical), every constraint
    tight at the optimum (additive), symmetric rates, 4n/3 at ell=4 (collinear)."""
    return {
        "zero": by_size(ell, lambda k: 0),
        "identical": by_size(ell, lambda k: 16),
        "additive": additive(list(range(1, ell + 1))),
        "collinear": collinear(ell, 16),
    }


# ---------------------------------------------------------
# reference solver: exhaustive vertex enumeration
# ---------------------------------------------------------

def gauss_jordan(a, b):
    """The unique x with a x = b, or None when a is singular (Fractions)."""
    n = len(a)
    m = [row + [bb] for row, bb in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pivot = m[col][col]
        m[col] = [v / pivot for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return tuple(m[r][n] for r in range(n))


def enumerated_optimum(region):
    """CO and its canonical rate tuple by trying every basis.

    Each set of ell constraints, taken with equality, gives one candidate;
    the nonnegative candidates that meet every constraint are the vertices,
    and the one with the smallest (total, rates) is the tuple co_lp must
    return.  The singleton bounds n_i >= C(x_i | rest) >= 0 make n >= 0
    redundant, so no basis needs a row n_i = 0.
    """
    ell = region.profile.ell
    vertices = []
    for basis in combinations(region.constraints, ell):
        a = [[Fraction(i in s) for i in range(1, ell + 1)] for s, _ in basis]
        x = gauss_jordan(a, [Fraction(b) for _, b in basis])
        if x is None or min(x) < 0:
            continue
        if all(sum(x[i - 1] for i in s) >= b for s, b in region.constraints):
            vertices.append(x)
    best = min(vertices, key=lambda v: (sum(v), v))
    return sum(best, Fraction(0)), best


# ---------------------------------------------------------
# constraints
# ---------------------------------------------------------

def test_sw_constraints_collinear_triple():
    region = sw_constraints(triple16())
    bounds = {tuple(sorted(s)): b for s, b in region.constraints}
    assert len(bounds) == 6  # 2^3 - 2 splittings
    assert bounds[(1,)] == bounds[(2,)] == bounds[(3,)] == 16
    assert bounds[(1, 2)] == bounds[(1, 3)] == bounds[(2, 3)] == 48


def test_sw_constraints_line_point():
    region = sw_constraints(line_point16())
    bounds = {tuple(sorted(s)): b for s, b in region.constraints}
    assert bounds == {(1,): 16, (2,): 16}  # C(x|y) and C(y|x)


def test_sw_constraints_additive():
    region = sw_constraints(additive([3, 5, 7]))
    for s, b in region.constraints:
        assert b == sum((3, 5, 7)[i - 1] for i in s)


def test_sw_constraints_rejects_invalid_profile():
    bad = make_profile(2, {(1,): 1, (2,): 1, (1, 2): 3})
    with pytest.raises(ValueError):
        sw_constraints(bad)


# ---------------------------------------------------------
# co_lp (paper values and exactness)
# ---------------------------------------------------------

def test_co_lp_collinear_triple_16():
    total, rates = co_lp(sw_constraints(triple16()))
    assert total == 72
    assert rates.rates == (Fraction(24), Fraction(24), Fraction(24))


def test_co_lp_line_point_16():
    total, rates = co_lp(sw_constraints(line_point16()))
    assert total == 32 and rates.rates == (16, 16)


def test_co_lp_identical_pair_zero():
    total, rates = co_lp(sw_constraints(parse_model_spec("identical:n=16").profile()))
    assert total == 0 and rates.rates == (0, 0)


def test_co_lp_half_integral_rates():
    # collinear triple at odd n: optimum is half-integral 1.5n
    p = parse_model_spec("triple:n=5").profile()
    total, rates = co_lp(sw_constraints(p))
    assert total == Fraction(45, 2)
    assert rates.rates == (Fraction(15, 2),) * 3
    assert rates.ceil() == (8, 8, 8)


def test_co_lp_returned_tuple_feasible():
    for salt in range(30):
        for ell in (2, 3, 4):
            p = random_polymatroid(ell, SeedStream("feas", ell, salt))
            region = sw_constraints(p)
            total, rates = co_lp(region)
            assert satisfied_by(region, rates)
            assert rates.total() == total


def test_co_lp_scaling_linearity():
    p = triple16()
    base, _ = co_lp(sw_constraints(p))
    for lam in (Fraction(1, 2), Fraction(3), Fraction(7, 4)):
        scaled, _ = co_lp(sw_constraints(scale(p, lam)))
        assert scaled == base * lam


def test_co_lp_matches_vertex_enumeration():
    for ell in (2, 3, 4):
        profiles = [random_polymatroid(ell, SeedStream("xval", ell, salt)) for salt in range(20)]
        for p in profiles + list(degenerate_profiles(ell).values()):
            region = sw_constraints(p)
            total, rates = co_lp(region)
            assert (total, rates.rates) == enumerated_optimum(region)


def test_co_lp_collinear_four_parties_third_integral():
    # symmetric optimum 4n/3 per party: not an integer at n=16
    total, rates = co_lp(sw_constraints(collinear(4, 16)))
    assert total == Fraction(256, 3)
    assert rates.rates == (Fraction(64, 3),) * 4
    assert rates.ceil() == (22,) * 4


# ---------------------------------------------------------
# closed form at three parties
# ---------------------------------------------------------

def test_co_formula3_collinear():
    assert co_formula3(triple16()) == 72  # max(4n,4n,4n,4.5n) at n=16


def test_co_formula3_additive():
    p = additive([3, 5, 7])
    # independent parts: every splitting term evaluates to the full sum
    assert co_formula3(p) == 15
    total, _ = co_lp(sw_constraints(p))
    assert total == 15


def test_co_formula3_zero_profile():
    p = make_profile(3, {k: 0 for k in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]})
    assert co_formula3(p) == 0


def test_co_formula3_requires_three_parties():
    with pytest.raises(ValueError):
        co_formula3(line_point16())


# ---------------------------------------------------------
# key capacity (partition formula) vs the LP: Prop-5.3/5.4 as theorems
# ---------------------------------------------------------

def test_key_capacity_collinear():
    assert key_capacity(triple16()) == 8  # 5n - 4.5n = 0.5n


def test_key_capacity_two_party_is_mutual_information():
    assert key_capacity(line_point16()) == 16


def test_key_capacity_identical():
    assert key_capacity(parse_model_spec("identical:n=16").profile()) == 16


def test_oracle_equivalence_random_profiles():
    # co_lp == C(all) - key_capacity(partition formula), exactly
    for ell in (2, 3, 4):
        for salt in range(60):
            p = random_polymatroid(ell, SeedStream("oracle", ell, salt))
            total, _ = co_lp(sw_constraints(p))
            assert p.c(p.full()) - total == key_capacity(p)
            if ell == 3:
                assert co_formula3(p) == total


@pytest.mark.parametrize("ell, want", [(3, 6), (4, 8), (5, 9)])
def test_collinear_key_capacity(ell, want):
    # n(ell-2)/(ell-1) at n=12
    p = collinear(ell, 12)
    total, _ = co_lp(sw_constraints(p))
    assert key_capacity(p) == want
    assert p.c(p.full()) - total == want


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_cli_key_capacity_is_the_partition_formula(ell, tmp_path, capsys):
    # skalab rates prints C(all) - CO from the LP; the partition formula is its oracle.
    path = tmp_path / "p.profile"
    salts = range(60) if ell < 5 else range(1)
    stream = "oracle" if ell < 5 else "wide"
    for p in [*(random_polymatroid(ell, SeedStream(stream, ell, salt)) for salt in salts), *degenerate_profiles(ell).values()]:
        path.write_text(format_profile(p))
        assert main(["rates", "--profile", str(path)]) == 0
        cap = key_capacity(p)
        assert f"key_capacity = {cap} ({float(cap):.6g} bits)" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("ell", [5, 6, 7, 8])
def test_oracle_equivalence_beyond_enumeration(ell):
    profiles = degenerate_profiles(ell)
    if ell == 8:
        # all-zero bounds take no pivot, and at 8 parties the polymatroid
        # checks alone cost seconds per profile
        del profiles["zero"], profiles["identical"]
    for p in [random_polymatroid(ell, SeedStream("wide", ell, 0)), *profiles.values()]:
        total, rates = co_lp(sw_constraints(p))
        assert rates.total() == total
        assert p.c(p.full()) - total == key_capacity(p)


def test_co_lp_six_parties_cold():
    region = sw_constraints(random_polymatroid(6, SeedStream("cold", 6, 0)))
    start = time.monotonic()
    co_lp(region)
    assert time.monotonic() - start < 1


def test_more_than_eight_parties_rejected_before_any_subset_work():
    # a non-polymatroid profile: the party cap must fire before the polymatroid check
    p = by_size(9, lambda k: 9 - k)
    for call in (sw_constraints, key_capacity, lambda q: co_lp(RateRegion(q, ()))):
        with pytest.raises(ValueError, match="2 to 8 parties"):
            call(p)


def test_rate_tuple_validation():
    with pytest.raises(ValueError):
        RateTuple((-1, 2))

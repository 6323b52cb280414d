import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profile_tools import all_partitions, format_profile, is_polymatroid_pairwise, multi_j, random_polymatroid
from skalab.profiles import (
    ComplexityProfile,
    all_nonempty_subsets,
    ceil_log2,
    cond,
    is_polymatroid,
    make_profile,
    mutual,
    parse_profile,
)
from skalab.rng import SeedStream


def test_ceil_log2():
    # The ratios num/eps the protocols size with are checked, exhaustively,
    # in test_hashext and test_protocols; here the plain q >= 1 cases.
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1 and ceil_log2(3) == 2
    assert ceil_log2(Fraction(3, 2)) == 1
    assert ceil_log2(2**64) == 64 and ceil_log2(2**64 + 1) == 65
    for below_one in (0, Fraction(1, 2), -4):
        with pytest.raises(ValueError):
            ceil_log2(below_one)


def line_point_profile(n):
    return make_profile(2, {(1,): 2 * n, (2,): 2 * n, (1, 2): 3 * n})


def triple_profile(n):
    return make_profile(
        3,
        {(1,): 2 * n, (2,): 2 * n, (3,): 2 * n,
         (1, 2): 4 * n, (1, 3): 4 * n, (2, 3): 4 * n, (1, 2, 3): 5 * n},
    )


def additive_profile(weights):
    ell = len(weights)
    return ComplexityProfile(
        ell,
        {s: Fraction(sum(weights[i - 1] for i in s)) for s in all_nonempty_subsets(ell)},
    )


# ---------------------------------------------------------
# cond / mutual / multi_j: spec examples
# ---------------------------------------------------------

def test_cond_line_point():
    p = line_point_profile(7)
    assert cond(p, {1}, {2}) == 7  # C(x|y) = 3n - 2n = n
    assert cond(p, {1}, {1}) == 0


def test_cond_collinear_triple():
    p = triple_profile(5)
    assert cond(p, {1}, {2, 3}) == 5  # third point given two = n bits


def test_cond_rejects_empty():
    with pytest.raises(ValueError):
        cond(line_point_profile(2), set(), {1})


def test_mutual_line_point():
    assert mutual(line_point_profile(9), {1}, {2}) == 9


def test_mutual_additive_is_zero():
    assert mutual(additive_profile([3, 5]), {1}, {2}) == 0


def test_mutual_collinear_pairs():
    # I(x1 : x2 x3) = 2n + 4n - 5n = n
    assert mutual(triple_profile(4), {1}, {2, 3}) == 4


def test_mutual_rejects_an_empty_subset():
    with pytest.raises(ValueError):
        mutual(triple_profile(2), {1}, set())


def test_multi_j_collinear():
    p = triple_profile(16)
    assert multi_j(p, [{1}, {2}, {3}]) == Fraction(16, 2)  # n/2 = 8
    assert multi_j(p, [{1}, {2, 3}]) == 16  # 2n + 4n - 5n = n


def test_multi_j_additive_zero():
    p = additive_profile([1, 2, 3])
    for parts in ([{1}, {2}, {3}], [{1}, {2, 3}], [{1, 2}, {3}], [{1, 3}, {2}]):
        assert multi_j(p, parts) == 0


def test_multi_j_rejects_bad_partitions():
    p = triple_profile(2)
    with pytest.raises(ValueError):
        multi_j(p, [{1, 2, 3}])  # single part
    with pytest.raises(ValueError):
        multi_j(p, [{1}, {2}])  # does not cover
    with pytest.raises(ValueError):
        multi_j(p, [{1, 2}, {2, 3}])  # overlap


# ---------------------------------------------------------
# is_polymatroid
# ---------------------------------------------------------

def test_polymatroid_examples():
    assert is_polymatroid(line_point_profile(3))
    assert is_polymatroid(triple_profile(3))
    assert is_polymatroid(make_profile(2, {(1,): 0, (2,): 0, (1, 2): 0}))
    # C(xy) > C(x) + C(y) violates submodularity at the empty intersection
    assert not is_polymatroid(make_profile(2, {(1,): 1, (2,): 1, (1, 2): 3}))
    # non-monotone
    assert not is_polymatroid(make_profile(2, {(1,): 2, (2,): 2, (1, 2): 1}))


def test_elemental_check_matches_pairwise_oracle():
    # 600 profiles at ell = 2..5: polymatroids, polymatroids with one value
    # moved by up to +-2, and profiles of independent random values.
    stream = SeedStream("elemental")
    outcomes = set()
    for ell in range(2, 6):
        subsets = all_nonempty_subsets(ell)
        for k in range(150):
            s = stream.child(ell, k)
            p = random_polymatroid(ell, s)
            values = dict(p.values)
            if k % 3 == 1:
                v = subsets[s.randrange(len(subsets))]
                values[v] += Fraction(s.randrange(9) - 4, 2)
            elif k % 3 == 2:
                values = {v: Fraction(s.randrange(24), 2) for v in subsets}
            p = ComplexityProfile(ell, values)
            want = is_polymatroid_pairwise(p)
            assert is_polymatroid(p) == want, (ell, k)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_elemental_check_is_fast_at_ell_8():
    p = random_polymatroid(8, SeedStream("elemental-8"))
    start = time.perf_counter()
    assert is_polymatroid(p)
    assert time.perf_counter() - start < 0.3


def test_profile_requires_all_subsets():
    with pytest.raises(ValueError):
        ComplexityProfile(2, {frozenset({1}): Fraction(1), frozenset({2}): Fraction(1)})


# ---------------------------------------------------------
# chain rule and generator properties
# ---------------------------------------------------------

@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(0, 10**6))
def test_chain_rule_and_validity_on_random_profiles(ell, salt):
    p = random_polymatroid(ell, SeedStream("profiles", ell, salt))
    assert is_polymatroid(p)
    subsets = all_nonempty_subsets(ell)
    for v in subsets[:6]:
        for w in subsets[:6]:
            assert cond(p, v, w) + p.c(w) == p.c(v | w)
    for v in subsets:
        for w in subsets:
            if v.isdisjoint(w) and v and w:
                assert mutual(p, v, w) >= 0
                for g in subsets:
                    if g.isdisjoint(v | w):  # I(v : w | g) >= 0
                        assert cond(p, v, g) + cond(p, w, g) - cond(p, v | w, g) >= 0


def test_all_partitions_bell_counts():
    assert len(all_partitions((1, 2, 3))) == 5
    assert len(all_partitions((1, 2, 3, 4))) == 15


# ---------------------------------------------------------
# file format
# ---------------------------------------------------------

def test_profile_file_roundtrip():
    p = triple_profile(16)
    text = format_profile(p)
    assert "1,2,3=80" in text
    assert parse_profile(text).values == p.values


def test_profile_file_fractions():
    p = make_profile(2, {(1,): Fraction(3, 2), (2,): 1, (1, 2): 2})
    text = format_profile(p)
    assert "1=3/2" in text
    assert parse_profile(text).values == p.values


def test_profile_file_rejects_missing_subsets():
    with pytest.raises(ValueError):
        parse_profile("1=4\n2=4\n")  # no joint entry


def test_profile_file_rejects_garbage():
    with pytest.raises(ValueError):
        parse_profile("1=4\nnot a line\n")
    with pytest.raises(ValueError):
        parse_profile("1=4\n1=5\n1,2=6\n2=4\n")  # duplicate


@pytest.mark.parametrize(
    "line, message",
    [
        ("1,2,2=3", r"line 3: repeated party in subset '1,2,2'"),
        ("+2=2", r"line 3: party '\+2' is not a decimal index"),
        ("0_2=2", r"line 3: party '0_2' is not a decimal index"),
        ("1,,2=3", r"line 3: party '' is not a decimal index"),
        ("-1=3", r"line 3: party '-1' is not a decimal index"),
        ("\uff11=3", r"line 3: party '\uff11' is not a decimal index"),
        ("\u0661,2=3", r"line 3: party '\u0661' is not a decimal index"),
    ],
    ids=["repeated", "plus", "underscore", "empty", "negative", "full-width", "arabic-indic"],
)
def test_profile_file_rejects_lenient_party_indices(line, message):
    # int() would read "1,2,2" as {1, 2} and "+2" or "0_2" as party 2.
    with pytest.raises(ValueError, match=message):
        parse_profile(f"1=2\n2=2\n{line}\n")


@pytest.mark.parametrize(
    "value",
    ["1e1", "+4", "1_6", "\uff14", "4.", ".5", "1/0"],
)
def test_profile_file_rejects_lenient_values(value):
    # Fraction() would read "1e1" as 10, "+4" as 4, "1_6" as 16, a
    # full-width 4 as 4, "4." as 4 and ".5" as 1/2; values take the flags'
    # [-]digits[/digits] or [-]digits.digits, and "1/0" fails on its line.
    with pytest.raises(ValueError, match=r"^line 3: "):
        parse_profile(f"1=2\n2=2\n1,2={value}\n")


def test_profile_file_takes_the_flags_rationals():
    profile = parse_profile("1=2\n2=5/2\n1,2 = 3.5\n")
    assert profile.values == make_profile(2, {(1,): 2, (2,): Fraction(5, 2), (1, 2): Fraction(7, 2)}).values


def test_profile_file_allows_spaces_around_parties():
    assert parse_profile(" 1 =2\n2=2\n 1 , 2 = 3\n").values == make_profile(2, {(1,): 2, (2,): 2, (1, 2): 3}).values

"""Profile helpers for tests: the profile file writer, scaling, random
polymatroids, the pairwise polymatroid check that oracles the elemental
one, and membership of a rate tuple in a rate region, the oracle for the
rate LP."""

from fractions import Fraction

from skalab.profiles import ComplexityProfile, all_nonempty_subsets
from skalab.rateregion import RateRegion, RateTuple
from skalab.rng import SeedStream


def format_profile(profile: ComplexityProfile) -> str:
    """The profile file text that `skalab.profiles.parse_profile` reads back."""
    lines = []
    for s in all_nonempty_subsets(profile.ell):
        key = ",".join(str(i) for i in sorted(s))
        v = profile.values[s]
        lines.append(f"{key}={v.numerator}/{v.denominator}" if v.denominator != 1 else f"{key}={v}")
    return "\n".join(lines) + "\n"


def scale(profile: ComplexityProfile, factor) -> ComplexityProfile:
    """Every complexity of the profile times factor."""
    f = Fraction(factor)
    return ComplexityProfile(profile.ell, {s: v * f for s, v in profile.values.items()})


def is_polymatroid_pairwise(profile: ComplexityProfile) -> bool:
    """Nonnegativity, monotonicity and submodularity over all 4^ell pairs of
    subsets (C(empty) = 0): the definition, literally."""
    subsets = [frozenset()] + all_nonempty_subsets(profile.ell)
    for a in subsets:
        if profile.c(a) < 0:
            return False
        for b in subsets:
            if a <= b and profile.c(a) > profile.c(b):
                return False
            if profile.c(a) + profile.c(b) < profile.c(a | b) + profile.c(a & b):
                return False
    return True


def satisfied_by(region: RateRegion, rates: RateTuple) -> bool:
    """Whether rates meet every constraint of the region: each bound is at
    most the sum of the rates of its subset's parties."""
    for subset, bound in region.constraints:
        if sum((rates.rates[i - 1] for i in subset), Fraction(0)) < bound:
            return False
    return True


def random_polymatroid(ell: int, stream: SeedStream) -> ComplexityProfile:
    """Random polymatroid profile: weighted coverage plus an additive part.

    Each party owns a random subset of weighted ground elements; C(V) is
    the total weight covered by V plus the additive weights of V.  Both
    pieces are entropic (coverage = joint entropy of revealed uniform
    bits), so the result is always a valid profile.  Weights use small
    denominators to exercise fractional optima downstream.
    """
    if ell < 1:
        raise ValueError("need at least one party")
    n_ground = 2 + stream.randrange(2 * ell + 2)
    denom = (1, 1, 2, 4)[stream.randrange(4)]
    weights = [Fraction(1 + stream.randrange(12), denom) for _ in range(n_ground)]
    owners: list[set[int]] = []
    for _ in range(n_ground):
        mask = stream.bits(ell)
        if mask == 0:
            mask = 1 << stream.randrange(ell)
        owners.append({i + 1 for i in range(ell) if (mask >> i) & 1})
    additive = [Fraction(stream.randrange(8), denom) for _ in range(ell)]
    values = {}
    for s in all_nonempty_subsets(ell):
        cover = sum((w for w, o in zip(weights, owners) if o & s), Fraction(0))
        values[s] = cover + sum((additive[i - 1] for i in s), Fraction(0))
    return ComplexityProfile(ell, values)

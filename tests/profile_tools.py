"""Profile helpers for tests: the profile file writer, scaling, random
polymatroids, the pairwise polymatroid check that oracles the elemental
one, and two oracles for the rate LP: membership of a rate tuple in a rate
region, and the key capacity by the partition formula, which must equal
C(all) minus the LP's CO."""

from fractions import Fraction

from skalab.profiles import MAX_PARTIES, ComplexityProfile, _as_subset, all_nonempty_subsets, is_polymatroid
from skalab.rateregion import RateRegion
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


def satisfied_by(region: RateRegion, rates: tuple) -> bool:
    """Whether rates, one per party, meet every constraint of the region:
    each bound is at most the sum of the rates of its subset's parties."""
    for subset, bound in region.constraints:
        if sum((rates[i - 1] for i in subset), Fraction(0)) < bound:
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


def multi_j(profile: ComplexityProfile, partition) -> Fraction:
    """J over a splitting: (sum_i C(x_{J_i}) - C(x_[ell])) / (s - 1)."""
    parts = [_as_subset(p, profile.ell) for p in partition]
    if len(parts) < 2:
        raise ValueError("a splitting needs at least two parts")
    if any(not p for p in parts):
        raise ValueError("splitting parts must be nonempty")
    union = frozenset().union(*parts)
    if union != profile.full() or sum(len(p) for p in parts) != profile.ell:
        raise ValueError("parts must be disjoint and cover all parties")
    s = len(parts)
    return (sum((profile.c(p) for p in parts), Fraction(0)) - profile.c(profile.full())) / (s - 1)


def all_partitions(items: tuple) -> list[list[frozenset]]:
    """All set partitions of items (Bell enumeration; fine for ell <= 8)."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            out.append(sub[:i] + [sub[i] | {first}] + sub[i + 1 :])
        out.append(sub + [frozenset({first})])
    return out


def key_capacity(profile: ComplexityProfile) -> Fraction:
    """Secret-key capacity C(all) - CO, via the splitting formula.

    Evaluates min over all partitions (>= 2 parts) of
    (sum_i C(x_{J_i}) - C(all)) / (s - 1); Bell enumeration, ell <= 8.
    This route is independent of the LP and is cross-checked against it.
    """
    if not 2 <= profile.ell <= MAX_PARTIES:
        raise ValueError(f"rate region needs 2 to {MAX_PARTIES} parties, got {profile.ell}")
    if not is_polymatroid(profile):
        raise ValueError("profile is not a valid polymatroid")
    parties = tuple(range(1, profile.ell + 1))
    best = None
    for partition in all_partitions(parties):
        if len(partition) < 2:
            continue
        j = multi_j(profile, partition)
        if best is None or j < best:
            best = j
    return best

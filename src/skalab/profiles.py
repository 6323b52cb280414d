"""Complexity profiles and the information quantities derived from them.

A profile assigns a bit count C(V) to every nonempty subset V of the
parties [ell] = {1, ..., ell}; C of the empty set is 0 by convention.
Values are exact rationals (fractions.Fraction) so that half-integral
quantities such as the 1.5n omniscience rates stay exact end to end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations


Subset = frozenset

# The rate LP (2^ell - 2 constraints) and the polymatroid check finish
# within seconds up to here.
MAX_PARTIES = 8


def all_nonempty_subsets(ell: int) -> list[frozenset]:
    out = []
    for r in range(1, ell + 1):
        out.extend(frozenset(c) for c in combinations(range(1, ell + 1), r))
    return out


def _as_subset(v, ell: int) -> frozenset:
    s = frozenset(v)
    if not all(isinstance(i, int) and 1 <= i <= ell for i in s):
        raise ValueError(f"subset {sorted(s)} out of range for ell={ell}")
    return s


@dataclass(frozen=True)
class ComplexityProfile:
    """C(x_V) for every nonempty V, in bits (exact rationals)."""

    ell: int
    values: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError("need at least one party")
        want = {s for s in all_nonempty_subsets(self.ell)}
        have = set(self.values)
        if have != want:  # counts and the first few of each kind: ell = 8 can miss 253 subsets
            raise ValueError(f"profile subsets wrong: missing {_first_few(want - have)}, extra {_first_few(have - want)}")
        object.__setattr__(
            self, "values", {s: Fraction(v) for s, v in self.values.items()}
        )

    def c(self, v) -> Fraction:
        """C(x_V); the empty set has complexity 0."""
        s = _as_subset(v, self.ell)
        if not s:
            return Fraction(0)
        return self.values[s]

    def full(self) -> frozenset:
        return frozenset(range(1, self.ell + 1))


def _first_few(subsets) -> str:
    """The count of subsets and the first three of them in sorted order."""
    ordered = sorted(tuple(sorted(s)) for s in subsets)
    more = ", ..." if len(ordered) > 3 else ""
    return f"{len(ordered)} [{', '.join(map(str, ordered[:3]))}{more}]"


def make_profile(ell: int, values: dict) -> ComplexityProfile:
    """Convenience: build a profile from {tuple-of-parties: bits}."""
    return ComplexityProfile(ell, {frozenset(k): Fraction(v) for k, v in values.items()})


def ceil_log2(q) -> int:
    """Exact ceil(log2 q) for rational q >= 1: the least c with 2^c >= q,
    which is the least c with 2^c >= ceil(q)."""
    q = Fraction(q)
    if q < 1:
        raise ValueError(f"ceil_log2 needs q >= 1, got {q}")
    return (-(-q.numerator // q.denominator) - 1).bit_length()


def cond(profile: ComplexityProfile, v, w) -> Fraction:
    """Conditional complexity C(x_V | x_W) = C(x_{V u W}) - C(x_W)."""
    vs = _as_subset(v, profile.ell)
    ws = _as_subset(w, profile.ell)
    if not vs:
        raise ValueError("conditional complexity of the empty set is not defined")
    return profile.c(vs | ws) - profile.c(ws)


def mutual(profile: ComplexityProfile, v, w) -> Fraction:
    """Mutual information I(x_V : x_W) = C(V) + C(W) - C(V u W)."""
    vs = _as_subset(v, profile.ell)
    ws = _as_subset(w, profile.ell)
    if not vs or not ws:
        raise ValueError("mutual information needs two nonempty subsets")
    return profile.c(vs) + profile.c(ws) - profile.c(vs | ws)


def is_polymatroid(profile: ComplexityProfile) -> bool:
    """Polymatroid check (with C(empty) = 0) by Yeung's elemental
    inequalities:

        C(N) >= C(N - i)                          for every party i,
        C(S + i) + C(S + j) >= C(S + i + j) + C(S)  for i != j outside S.

    They imply nonnegativity, monotonicity and submodularity.
    """
    ell = profile.ell
    c = [Fraction(0)] * (1 << ell)  # C by bitmask, bit i - 1 for party i
    for s, v in profile.values.items():
        c[sum(1 << (i - 1) for i in s)] = v
    full = (1 << ell) - 1
    if any(c[full] < c[full ^ (1 << i)] for i in range(ell)):
        return False
    for s in range(1 << ell):
        rest = [1 << i for i in range(ell) if not s >> i & 1]
        for a, bi in enumerate(rest):
            for bj in rest[a + 1 :]:
                if c[s | bi] + c[s | bj] < c[s | bi | bj] + c[s]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Profile file format: one `1,2=48` line per subset, rationals as p/q.
# ---------------------------------------------------------------------------


_RATIONAL = re.compile(r"-?[0-9]+(?:[/.][0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """[-]digits[/digits] or [-]digits.digits in ASCII digits, for profile values and the
    rational flags: Fraction() would also take "+1/4", " 1/4", "1e-2", "1_0/3" or full-width digits."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational: {text!r}")
    return Fraction(text)


def parse_profile(text: str) -> ComplexityProfile:
    values = {}
    max_party = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        if not val:
            raise ValueError(f"line {lineno}: expected subset=value, got {raw!r}")
        indices = [p.strip() for p in key.split(",")]
        bad = next((p for p in indices if not (p.isascii() and p.isdecimal())), None)  # int() would also take "+2", "0_2" and non-ASCII digits
        if bad is not None:
            raise ValueError(f"line {lineno}: party {bad!r} is not a decimal index")
        parties = frozenset(int(p) for p in indices)
        if len(parties) != len(indices):
            raise ValueError(f"line {lineno}: repeated party in subset {key!r}")
        try:
            bits = parse_rational(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if min(parties) < 1:
            raise ValueError(f"line {lineno}: invalid subset {key!r}")
        if max(parties) > MAX_PARTIES:  # before ComplexityProfile builds 2^ell - 1 subsets
            raise ValueError(f"line {lineno}: party {max(parties)} past the limit of {MAX_PARTIES} parties")
        if parties in values:
            raise ValueError(f"line {lineno}: duplicate subset {key!r}")
        values[parties] = bits
        max_party = max(max_party, max(parties))
    if not values:
        raise ValueError("empty profile")
    return ComplexityProfile(max_party, values)

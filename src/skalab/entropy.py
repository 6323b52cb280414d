"""Exact Shannon-entropy computations on enumerable joint distributions.

Probabilities are exact rationals, so every entropy here is a value of the
form  q + sum_i c_i * log2(m_i)  with rational q, c_i and odd integers m_i.
``LogExpr`` keeps that form symbolically, which lets the audit suites decide
entropy identities and inequalities *exactly*: scaled by the common
denominator d of its rationals, a LogExpr is the log2 of a ratio of
integers, so its sign (zero included) is an integer comparison.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .gf2 import BitVec

_FLOAT_SIGN_CUTOFF = 1e-6


class LogExpr:
    """Exact value  rat + sum c * log2(m)  with odd integer m >= 3."""

    __slots__ = ("rat", "terms")

    def __init__(self, rat=0, terms=None) -> None:
        self.rat = Fraction(rat)
        self.terms: dict[int, Fraction] = dict(terms) if terms else {}

    def add_log(self, m: int, coeff: Fraction) -> None:
        """Accumulate coeff * log2(m) for a positive integer m."""
        if m <= 0:
            raise ValueError(f"log2 of non-positive integer {m}")
        if coeff == 0 or m == 1:
            return
        twos = (m & -m).bit_length() - 1
        if twos:
            self.rat += coeff * twos
            m >>= twos
        if m > 1:
            c = self.terms.get(m, Fraction(0)) + coeff
            if c:
                self.terms[m] = c
            else:
                self.terms.pop(m, None)

    def __add__(self, other: "LogExpr") -> "LogExpr":
        r = LogExpr(self.rat + other.rat, self.terms)
        for m, c in other.terms.items():
            r.add_log(m, c)
        return r

    def __sub__(self, other: "LogExpr") -> "LogExpr":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "LogExpr":
        f = Fraction(factor)
        return LogExpr(self.rat * f, {m: c * f for m, c in self.terms.items()})

    def to_float(self) -> float:
        return float(self.rat) + sum(float(c) * math.log2(m) for m, c in self.terms.items())

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1.

        Far from zero the float value decides.  Near it, with d the common
        denominator of rat and every coefficient, d * value is the log2 of
        2^(d rat) * prod m^(d c), whose sign an integer comparison of the
        factors with positive and with negative exponents decides.
        """
        v = self.to_float()
        if abs(v) > _FLOAT_SIGN_CUTOFF:
            return 1 if v > 0 else -1
        d = math.lcm(self.rat.denominator, *(c.denominator for c in self.terms.values()))
        sides = [1, 1]  # the product of the factors with exponent >= 0, and with exponent < 0
        for m, c in ((2, self.rat), *self.terms.items()):
            e = int(c * d)
            sides[e < 0] *= m ** abs(e)
        return (sides[0] > sides[1]) - (sides[0] < sides[1])

    def __repr__(self) -> str:
        """The terms in ascending m, whatever order they were added in."""
        return f"LogExpr({self.rat}, {dict(sorted(self.terms.items()))})"


@dataclass(frozen=True)
class JointDistribution:
    """Finite joint distribution of ell bit-vector variables.

    The support is (inputs, weight) pairs with distinct inputs and positive
    integer weights; inputs has probability weight / (sum of the weights).
    ``from_weights`` and ``uniform`` merge duplicate inputs and sort them in
    tuple order: (n, v) per component, since a BitVec is the pair (n, v).
    """

    ell: int
    support: tuple

    def __post_init__(self) -> None:
        for inputs, w in self.support:
            if len(inputs) != self.ell:
                raise ValueError(f"support tuple has arity {len(inputs)}, want {self.ell}")
            if not all(isinstance(b, BitVec) for b in inputs):
                raise ValueError("support entries must be BitVec tuples")
            if not isinstance(w, int) or w <= 0:
                raise ValueError(f"support weight {w!r} is not a positive integer")
        if len({inputs for inputs, _w in self.support}) != len(self.support):
            raise ValueError("duplicate support entry")

    @staticmethod
    def from_weights(ell: int, pairs) -> "JointDistribution":
        """Build from (inputs, weight) pairs, adding the weights of
        duplicate inputs."""
        acc: dict[tuple, int] = {}
        for inputs, w in pairs:
            key = tuple(inputs)
            acc[key] = acc.get(key, 0) + w
        return JointDistribution(ell, tuple(sorted(acc.items())))

    @staticmethod
    def uniform(ell: int, tuples) -> "JointDistribution":
        """Each tuple equally likely; a repeated tuple weighs its count."""
        return JointDistribution.from_weights(ell, ((t, 1) for t in tuples))

    def entropy_of(self, proj) -> LogExpr:
        """Exact entropy of proj(inputs), summed once per distinct weight w
        of its values: with p = w / total reduced and count_w values of
        weight w, count_w * p * (log2 den(p) - log2 num(p))."""
        weights: dict = {}
        for inputs, w in self.support:
            key = proj(inputs)
            weights[key] = weights.get(key, 0) + w
        total = sum(weights.values())
        h = LogExpr()
        for w, c in Counter(weights.values()).items():
            p = Fraction(w, total)
            h.add_log(p.denominator, c * p)
            h.add_log(p.numerator, -c * p)
        return h


@dataclass
class TranscriptAudit:
    """Result of the transcript-like inequality audit."""

    residual_i: LogExpr
    residual_j: LogExpr | None
    rectangle_ok: bool
    rectangle_violations: list


def rectangle_violations(ell: int, t_of: dict) -> list:
    """(point, other transcript) for every support point inside the box of a
    transcript other than its own, in support order and then in order of
    each box's first point.

    The box of a transcript is the product of the per-coordinate values of
    its preimage; preimages are rectangles iff no box captures a point
    mapping elsewhere.  Each coordinate value is indexed to the boxes that
    hold it, so a point's violators are the intersection of its components'
    box sets, not a test against every box.
    """
    box_index: dict = {}
    holders = [{} for _ in range(ell)]  # per coordinate: value -> indices of the boxes holding it
    for inputs, t in t_of.items():
        b = box_index.setdefault(t, len(box_index))
        for k, comp in enumerate(inputs):
            holders[k].setdefault(comp, set()).add(b)
    transcripts = list(box_index)
    violations = []
    for inputs, t in t_of.items():
        inside = set.intersection(*(holders[k][comp] for k, comp in enumerate(inputs)))
        inside.discard(box_index[t])
        violations.extend((inputs, transcripts[b]) for b in sorted(inside))
    return violations


def transcript_inequality_audit(dist: JointDistribution, f) -> TranscriptAudit:
    """Audit I(a:b) - I(a:b|T) (and J - J(.|T) for ell=3) for T = f(inputs).

    The map f must be total on the support.  Its preimages are verified to
    be combinatorial rectangles (parallelepipeds for three parties)
    relative to the support; a failed check is reported alongside the
    residuals, which are computed either way.
    """
    if dist.ell not in (2, 3):
        raise ValueError("transcript audit supports 2 or 3 parties")
    t_of = {inputs: f(*inputs) for inputs, _ in dist.support}

    violations = rectangle_violations(dist.ell, t_of)
    rectangle_ok = not violations

    def h(proj) -> LogExpr:
        return dist.entropy_of(proj)

    h_a = h(lambda tup: tup[0])
    h_b = h(lambda tup: tup[1])
    h_t = h(lambda tup: t_of[tup])
    h_at = h(lambda tup: (tup[0], t_of[tup]))
    h_bt = h(lambda tup: (tup[1], t_of[tup]))
    if dist.ell == 2:
        residual_i = h_a + h_b + h_t - h_at - h_bt
        residual_j = None
    else:
        h_c = h(lambda tup: tup[2])
        h_ct = h(lambda tup: (tup[2], t_of[tup]))
        # I(a : bc) - I(a : bc | T), grouping the last two parties.
        h_bc = h(lambda tup: (tup[1], tup[2]))
        h_bct = h(lambda tup: (tup[1], tup[2], t_of[tup]))
        residual_i = h_a + h_bc + h_t - h_at - h_bct
        residual_j = (h_a + h_b + h_c + h_t.scaled(2) - h_at - h_bt - h_ct).scaled(Fraction(1, 2))
    return TranscriptAudit(residual_i, residual_j, rectangle_ok, violations)


def conditional_entropy_bits(joint_counts: dict) -> float:
    """H(Z | T) in bits from integer counts keyed by (t, z)."""
    total = sum(joint_counts.values())
    by_t: dict = {}
    for (t, _z), c in joint_counts.items():
        by_t[t] = by_t.get(t, 0) + c
    h = 0.0
    for (t, _z), c in joint_counts.items():
        h -= (c / total) * math.log2(c / by_t[t])
    return h

"""Slepian-Wolf rate region and communication for omniscience.

The region S is cut out by one constraint per splitting (I, J) of the
parties into two nonempty sets:  sum_{i in I} n_i >= C(x_I | x_J).  CO is
the minimum total rate over S (Csiszar-Narayan), computed exactly in
rational arithmetic by a simplex on the dual LP

    max b.y  subject to  A^T y + s = 1 + sum_j delta^j e_j,  y, s >= 0,

whose slack basis is feasible, so no phase 1 is needed.  The objective
perturbation delta^j on party j makes the optimum the lexicographically
smallest (total, n_1, ..., n_ell) in S: the canonical rate tuple every
party derives independently.  It is read off the final objective row
under the slack columns.  Right-hand sides are kept as polynomials in
delta and compared lexicographically in the ratio test, which also rules
out cycling; entering columns follow Bland's rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .profiles import (
    MAX_PARTIES,
    ComplexityProfile,
    all_nonempty_subsets,
    cond,
    is_polymatroid,
)


@dataclass(frozen=True)
class RateRegion:
    profile: ComplexityProfile
    constraints: tuple  # ((frozenset I, Fraction bound), ...)


def proper_splittings(ell: int) -> list[frozenset]:
    """All I with both I and its complement nonempty (2^ell - 2 subsets)."""
    return [s for s in all_nonempty_subsets(ell) if len(s) < ell]


def _check_parties(ell: int) -> None:
    if not 2 <= ell <= MAX_PARTIES:
        raise ValueError(f"rate region needs 2 to {MAX_PARTIES} parties, got {ell}")


def sw_constraints(profile: ComplexityProfile) -> RateRegion:
    """The Slepian-Wolf constraint region of a (polymatroid) profile."""
    ell = profile.ell
    _check_parties(ell)
    if not is_polymatroid(profile):
        raise ValueError("profile is not a valid polymatroid")
    full = profile.full()
    constraints = tuple(
        (s, cond(profile, s, full - s)) for s in proper_splittings(ell)
    )
    return RateRegion(profile, constraints)


def co_lp(region: RateRegion):
    """Exact CO minimum and the canonical optimal rate tuple.

    Returns (total bits, rates), the rates a plain tuple of non-negative
    Fractions, one per party: the lexicographically smallest point of the
    optimal face, so all parties derive the same rates independently.
    """
    ell = region.profile.ell
    _check_parties(ell)
    bounds = [Fraction(b) for _, b in region.constraints]
    n_cols = len(bounds) + ell
    # Row i is party i's dual constraint: the y_I with i in I, slack s_i, and
    # the right-hand side 1 + delta^i as its coefficients of delta^0..delta^ell.
    rows = []
    for i in range(1, ell + 1):
        unit = [Fraction(i == j) for j in range(1, ell + 1)]
        y_cols = [Fraction(i in s) for s, _ in region.constraints]
        rows.append(y_cols + unit + [Fraction(1)] + unit)
    obj = [-b for b in bounds] + [Fraction(0)] * (2 * ell + 1)
    while True:
        enter = next((j for j in range(n_cols) if obj[j] < 0), None)
        if enter is None:
            break
        # The primal is feasible, so the dual is bounded and some entry is
        # positive; the right-hand sides stay linearly independent, so the
        # lexicographic minimum ratio is attained by exactly one row.
        leave = min(
            (row for row in rows if row[enter] > 0),
            key=lambda row: [v / row[enter] for v in row[n_cols:]],
        )
        pivot = leave[enter]
        leave[:] = [v / pivot for v in leave]
        for row in rows + [obj]:
            f = row[enter]
            if row is not leave and f:
                row[:] = [v - f * w for v, w in zip(row, leave)]
    rates = tuple(obj[len(bounds) : n_cols])
    return sum(rates), rates


def co_formula3(profile: ComplexityProfile) -> Fraction:
    """Closed-form CO for three parties: the maximum of four quantities."""
    if profile.ell != 3:
        raise ValueError("closed form applies to exactly three parties")
    c = lambda v, w: cond(profile, v, w)  # noqa: E731
    return max(
        c({1}, {2, 3}) + c({2, 3}, {1}),
        c({2}, {1, 3}) + c({1, 3}, {2}),
        c({3}, {1, 2}) + c({1, 2}, {3}),
        (c({1, 2}, {3}) + c({1, 3}, {2}) + c({2, 3}, {1})) / 2,
    )

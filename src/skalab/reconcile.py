"""One-way information reconciliation.

The sender fingerprints its input with a fresh seeded linear hash; the
receiver searches its candidate set for the unique preimage.  Candidate
enumeration replaces the (uncomputable) search over short programs: for
every model in this package the candidate set *is* the conditional support
of the sender's input, so a fingerprint of k + ceil(log2(1/eps)) bits
pins the true value except with probability eps (union bound).

Decoding reports `unique`, `ambiguous`, or `not_found` explicitly, and
joint decoding `search_limit` when a coset is too large to enumerate;
sessions count anything but a correct `unique` against their error budget.
For affine candidate sets (line-point, identical) the scan is replaced by
an exact linear solve with the same verdict; `decode_scan` keeps the
literal scan available and the two are cross-checked in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gf2 import BitVec, Gf2Matrix, dense_from_rows, matvec, solve_affine
from .hashext import ceil_log2_inv, fresh_toeplitz
from .rng import SeedStream
from .sources import CorrelationModel, hamming_ball, is_consistent

STATUS_UNIQUE = "unique"
STATUS_AMBIGUOUS = "ambiguous"
STATUS_NOT_FOUND = "not_found"
STATUS_SEARCH_LIMIT = "search_limit"


@dataclass(frozen=True)
class Fingerprint:
    """Seeded hash plus value; the reconciliation message for one input."""

    spec: Gf2Matrix
    value: BitVec
    declared_k: int
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        want = self.declared_k + ceil_log2_inv(self.eps)
        if self.value.n != self.spec.rows or self.spec.rows != want:
            raise ValueError(
                f"fingerprint length {self.value.n} != rows {self.spec.rows} "
                f"!= k + ceil(log2(1/eps)) = {want}"
            )


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a candidate search; value is a BitVec (or a tuple of
    BitVec for joint decoding) present exactly when the status is unique."""

    status: str
    value: BitVec | tuple | None
    candidates_checked: int

    def __post_init__(self) -> None:
        if (self.value is not None) != (self.status == STATUS_UNIQUE):
            raise ValueError("value present iff status is unique")


def encode(x: BitVec, k: int, eps, stream: SeedStream) -> Fingerprint:
    """Fingerprint x at declared conditional complexity k and error eps."""
    eps = Fraction(eps)
    if not 0 <= k <= x.n:
        raise ValueError(f"k={k} outside [0, {x.n}]")
    rows = k + ceil_log2_inv(eps)
    spec = fresh_toeplitz(rows, x.n, stream)
    return Fingerprint(spec, matvec(spec, x), k, eps)


def decode_scan(fp: Fingerprint, candidates) -> DecodeResult:
    """Literal scan over the candidate enumeration in canonical order."""
    found: BitVec | None = None
    checked = 0
    for cand in candidates:
        checked += 1
        if matvec(fp.spec, cand) == fp.value:
            if found is not None:
                return DecodeResult(STATUS_AMBIGUOUS, None, checked)
            found = cand
    if found is None:
        return DecodeResult(STATUS_NOT_FOUND, None, checked)
    return DecodeResult(STATUS_UNIQUE, found, checked)


def decode(fp: Fingerprint, candidates) -> DecodeResult:
    """Find the candidates matching the fingerprint (unique/ambiguous/none).

    The verdict is order-independent, so affine candidate sets are decoded
    by solving H(base xor B u) = value instead of scanning; the solutions
    are re-hashed as a guard.  candidates_checked reports the number of
    candidates the verdict covered.
    """
    aff = candidates.affine() if hasattr(candidates, "affine") else None
    if aff is None:
        return decode_scan(fp, candidates)
    base, basis = aff
    length = candidates.length
    if not basis:
        return decode_scan(fp, candidates)
    hrows = fp.spec.row_ints()
    arows = []
    for r in hrows:
        bits = 0
        for j, vec in enumerate(basis):
            bits |= ((r & vec).bit_count() & 1) << j
        arows.append(bits)
    a = dense_from_rows(arows, len(basis))
    target = fp.value.xor(matvec(fp.spec, BitVec(length, base)))
    sol = solve_affine(a, target)
    total = 1 << len(basis)  # not len(): the coset can exceed a machine index
    if sol is None:
        return DecodeResult(STATUS_NOT_FOUND, None, total)
    particular, kernel = sol
    if kernel:  # candidate bases are independent, so any kernel means >= 2 matches
        return DecodeResult(STATUS_AMBIGUOUS, None, total)
    value = base
    for j, vec in enumerate(basis):
        if (particular >> j) & 1:
            value ^= vec
    out = BitVec(length, value)
    if matvec(fp.spec, out) != fp.value:
        raise AssertionError("affine decode produced a non-matching solution")
    return DecodeResult(STATUS_UNIQUE, out, total)


# ---------------------------------------------------------------------------
# Syndrome coding for Hamming-correlated pairs
# ---------------------------------------------------------------------------


def syndrome_encode(x: BitVec, code: Gf2Matrix) -> BitVec:
    """Syndrome of x under the parity-check matrix (length = code.rows)."""
    return matvec(code, x)


def syndrome_decode(y: BitVec, syndrome: BitVec, code: Gf2Matrix, max_weight: int) -> DecodeResult:
    """Find x = y xor e with weight(e) <= max_weight matching the syndrome.

    Scans the error ball in weight-then-lex order; by linearity the match
    condition is code @ e = syndrome xor code @ y.
    """
    if code.cols != y.n:
        raise ValueError(f"code has {code.cols} columns, word has {y.n} bits")
    target = syndrome.v ^ matvec(code, y).v
    rows = code.row_ints()
    found: int | None = None
    checked = 0
    for e in hamming_ball(y.n, max_weight):
        checked += 1
        s = 0
        for i, r in enumerate(rows):
            s |= ((r & e).bit_count() & 1) << i
        if s == target:
            if found is not None:
                return DecodeResult(STATUS_AMBIGUOUS, None, checked)
            found = e
    if found is None:
        return DecodeResult(STATUS_NOT_FOUND, None, checked)
    return DecodeResult(STATUS_UNIQUE, BitVec(y.n, y.v ^ found), checked)


def hamming_parity_check(r: int) -> Gf2Matrix:
    """Parity-check matrix of the Hamming(2^r - 1, 2^r - 1 - r) code.

    Column j (0-based) is the binary expansion of j + 1, so the syndrome of
    a single error at position j reads j + 1 directly.
    """
    n = (1 << r) - 1
    rows = []
    for i in range(r):
        bits = 0
        for j in range(n):
            bits |= (((j + 1) >> i) & 1) << j
        rows.append(bits)
    return dense_from_rows(rows, n)


def random_linear_code(rows: int, n: int, stream: SeedStream) -> Gf2Matrix:
    return dense_from_rows([stream.bits(n) for _ in range(rows)], n)


# ---------------------------------------------------------------------------
# Joint decoding for omniscience
# ---------------------------------------------------------------------------


def fingerprint_solutions(fp: Fingerprint, length: int, cap_bits: int = 14):
    """All words of `length` bits matching the fingerprint, or None if the
    solution space is larger than 2^cap_bits (degenerate hash seed)."""
    m = fp.spec
    if m.cols != length:
        raise ValueError(f"fingerprint is over {m.cols} bits, want {length}")
    sol = solve_affine(m, fp.value)
    if sol is None:
        return []
    particular, kernel = sol
    if len(kernel) > cap_bits:
        return None
    out = []
    for mask in range(1 << len(kernel)):
        v = particular
        for j, vec in enumerate(kernel):
            if (mask >> j) & 1:
                v ^= vec
        out.append(v)
    out.sort()
    return out


def joint_candidates(model: CorrelationModel, own_index: int, own: BitVec, fps) -> list | None:
    """Tuples consistent with the model, the holder's input, and the other
    parties' (linear) fingerprints, in canonical lexicographic order.

    This is the omniscience decoder's search space: each other party's
    fingerprint cuts GF(2)^(2n) down to a small affine coset, and the
    model constraint filters the cross product.  Returns None when a
    degenerate fingerprint makes a coset too large to enumerate.
    """
    per_party: dict[int, list] = {}
    for i, fp in enumerate(fps, start=1):
        if i == own_index:
            per_party[i] = [own.v]
            continue
        sols = fingerprint_solutions(fp, model.input_len)
        if sols is None:
            return None
        per_party[i] = sols

    tuples: list[tuple] = []

    def rec(i: int, acc: list) -> None:
        if i > model.parties:
            candidate = tuple(BitVec(model.input_len, v) for v in acc)
            if is_consistent(model, candidate):
                tuples.append(candidate)
            return
        for v in per_party[i]:
            rec(i + 1, acc + [v])

    rec(1, [])
    tuples.sort(key=lambda tup: tuple(b.v for b in tup))
    return tuples


def multi_decode(own: BitVec, own_index: int, fps, candidates) -> DecodeResult:
    """Unique joint tuple matching every fingerprint simultaneously;
    `search_limit` when the joint search gave up (candidates is None)."""
    if candidates is None:
        return DecodeResult(STATUS_SEARCH_LIMIT, None, 0)
    found = None
    checked = 0
    for tup in candidates:
        checked += 1
        if tup[own_index - 1] != own:
            continue
        if all(matvec(fp.spec, comp) == fp.value for fp, comp in zip(fps, tup)):
            if found is not None:
                return DecodeResult(STATUS_AMBIGUOUS, None, checked)
            found = tup
    if found is None:
        return DecodeResult(STATUS_NOT_FOUND, None, checked)
    return DecodeResult(STATUS_UNIQUE, found, checked)

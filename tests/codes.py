"""Test-only constructions: dense matrices from packed rows and the entry
and dense-copy references for structured ones, parity-check matrices for
the syndrome-decoding tests, and one-shot seeded hashes and fingerprints
(sessions draw their seeds through ``protocols.draw_seeds``)."""

from fractions import Fraction

from skalab.gf2 import BitVec, Gf2Error, Gf2Matrix, matvec, toeplitz_seed_len
from skalab.hashext import ceil_log2_inv
from skalab.reconcile import Fingerprint
from skalab.rng import SeedStream


def dense_from_rows(rows: list[int], cols: int) -> Gf2Matrix:
    """Dense matrix whose row i is the packed integer rows[i]."""
    v = 0
    for i, r in enumerate(rows):
        if r >> cols:
            raise Gf2Error(f"row {i} wider than {cols} bits")
        v |= r << (i * cols)
    return Gf2Matrix("dense", len(rows), cols, BitVec(len(rows) * cols, v))


def entry(m: Gf2Matrix, i: int, j: int) -> int:
    """Entry (i, j) read straight from the data layout (see ``skalab.gf2``)."""
    if not (0 <= i < m.rows and 0 <= j < m.cols):
        raise Gf2Error(f"entry ({i},{j}) out of range")
    if m.kind == "dense":
        return (m.data.v >> (i * m.cols + j)) & 1
    return (m.data.v >> (i - j + m.cols - 1)) & 1


def to_dense(m: Gf2Matrix) -> Gf2Matrix:
    """Dense copy of any matrix, from its packed rows."""
    return dense_from_rows(m.row_ints(), m.cols)


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


def fresh_toeplitz(rows: int, cols: int, stream: SeedStream) -> Gf2Matrix:
    """Toeplitz hash with a fresh seed drawn from the stream."""
    return Gf2Matrix("toeplitz", rows, cols, stream.bitvec(toeplitz_seed_len(rows, cols)))


def encode(x: BitVec, k: int, eps, stream: SeedStream) -> Fingerprint:
    """Fingerprint x at declared conditional complexity k and error eps."""
    eps = Fraction(eps)
    if not 0 <= k <= x.n:
        raise ValueError(f"k={k} outside [0, {x.n}]")
    rows = k + ceil_log2_inv(eps)
    spec = fresh_toeplitz(rows, x.n, stream)
    return Fingerprint(spec, matvec(spec, x))

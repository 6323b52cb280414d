"""Test-only constructions: parity-check matrices for the syndrome-decoding
tests, and one-shot seeded hashes and fingerprints (sessions draw their
seeds through ``protocols.draw_seeds``)."""

from fractions import Fraction

from skalab.gf2 import BitVec, Gf2Matrix, dense_from_rows, matvec, toeplitz_seed_len
from skalab.hashext import ceil_log2_inv
from skalab.reconcile import Fingerprint
from skalab.rng import SeedStream


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

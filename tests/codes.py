"""Parity-check matrices for the syndrome-decoding tests."""

from skalab.gf2 import Gf2Matrix, dense_from_rows
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

"""Test-only model oracle: the consistency predicate of every correlation
model, the reference that draws, instance enumerations and the joint
decoder are checked against, each two-party model's candidate words,
listed from its definition, which the decoders' verdicts are checked
against, and the Hamming and line-point models' exact per-seed failure
laws."""

import math
from collections import Counter
from fractions import Fraction

from codes import clmul, graph_images, rank, x_power_multiples
from skalab.gf2 import BitVec, _poly_mod, irreducible_poly, matvec, mul_int
from skalab.sources import Hamming, LinePoint, Triple, weight_words


def is_consistent(model, inputs) -> bool:
    """Whether the model can draw the input tuple."""
    n, low = model.n, (1 << model.n) - 1
    if len(inputs) != model.parties or any(v.n != model.input_len for v in inputs):
        return False
    if isinstance(model, LinePoint):
        x, y = inputs
        return y.v >> n == mul_int(x.v & low, y.v & low, n) ^ (x.v >> n)
    if isinstance(model, Hamming):  # identical is Hamming at t = 0
        return (inputs[0].v ^ inputs[1].v).bit_count() == model.t
    assert isinstance(model, Triple)
    (c1, d1), (c2, d2), (c3, d3) = [(p.v & low, p.v >> n) for p in inputs]
    if len({c1, c2, c3}) != 3:
        return False
    # Equal slopes from point 1, cross-multiplied (the abscissas are
    # distinct); reduction is linear, so one reduction of the XOR decides.
    return not _poly_mod(clmul(d1 ^ d2, c1 ^ c3) ^ clmul(d1 ^ d3, c1 ^ c2), irreducible_poly(n))


def packed(inputs) -> BitVec:
    """An input tuple as the one word the key chain hashes, the first input
    in the low bits: what the joint decoder returns."""
    n = inputs[0].n
    return BitVec(len(inputs) * n, sum(x.v << i * n for i, x in enumerate(inputs)))


def candidate_words(model, observation) -> list:
    """Every input of the other party that the model allows next to the
    observation, as BitVecs: for line-point with observation (lo, hi), the
    words (u, lo * u xor hi) for u in increasing order (points on Alice's
    line, or lines through Bob's point); for Hamming, the center xor each
    weight-t word in increasing order, which for identical (t = 0) is the
    observation alone."""
    if isinstance(model, LinePoint):
        n, v = model.n, observation.v
        lo, hi = v & ((1 << n) - 1), v >> n
        return [BitVec(2 * n, u | (mul_int(lo, u, n) ^ hi) << n) for u in range(1 << n)]
    assert isinstance(model, Hamming)
    return [BitVec(model.n, observation.v ^ e) for e in weight_words(model.n, model.t)]


def hamming_failure_probability(h, t) -> Fraction:
    """The probability over a Hamming model's inputs that the receiver's
    decode under the fingerprint hash h fails: the share of the weight-t
    errors whose syndrome h e is shared with another weight-t error.  The
    receiver decodes the sphere at distance t around y = x xor e, which
    finds every weight-t e' with h e' = h e, so x plays no part."""
    syndromes = Counter(matvec(h, BitVec(h.cols, e)).v for e in weight_words(h.cols, t))
    return Fraction(sum(c for c in syndromes.values() if c > 1), math.comb(h.cols, t))


def line_point_failure_probability(h, n) -> Fraction:
    """The probability over a line-point model's inputs that the receiver's
    decode under the fingerprint hash h fails: the share of abscissas c in
    GF(2^n) on whose graph {(u, c u)} h has a nonzero kernel, its rank on
    the graph's basis by elimination below n.  The receiver decodes the
    graph through its point (c, d), which holds the sender's line, so the
    decode is unique iff that kernel is zero, whatever the line."""
    failing = sum(rank(graph_images(h, x_power_multiples(c, n)), h.rows) < n for c in range(1 << n))
    return Fraction(failing, 1 << n)

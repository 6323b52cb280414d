"""Test-only model oracle: the consistency predicate of every correlation
model, the reference that draws, instance enumerations and the joint
decoder are checked against, and each two-party model's candidate words,
listed from its definition, which the decoders' verdicts are checked
against."""

from codes import clmul
from skalab.gf2 import BitVec, _poly_mod, irreducible_poly, mul_int
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

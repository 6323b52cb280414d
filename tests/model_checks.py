"""Test-only model oracle: the consistency predicate of every correlation
model, the reference that draws, instance enumerations and the joint
decoder are checked against."""

from skalab.gf2 import _clmul, _poly_mod, irreducible_poly, mul_int
from skalab.sources import Hamming, Identical, LinePoint, Triple


def is_consistent(model, inputs) -> bool:
    """Whether the model can draw the input tuple."""
    n, low = model.n, (1 << model.n) - 1
    if len(inputs) != model.parties or any(v.n != model.input_len for v in inputs):
        return False
    if isinstance(model, LinePoint):
        x, y = inputs
        return y.v >> n == mul_int(x.v & low, y.v & low, n) ^ (x.v >> n)
    if isinstance(model, Identical):
        return inputs[0] == inputs[1]
    if isinstance(model, Hamming):
        return (inputs[0].v ^ inputs[1].v).bit_count() == model.t
    assert isinstance(model, Triple)
    (c1, d1), (c2, d2), (c3, d3) = [(p.v & low, p.v >> n) for p in inputs]
    if len({c1, c2, c3}) != 3:
        return False
    # Equal slopes from point 1, cross-multiplied (the abscissas are
    # distinct); reduction is linear, so one reduction of the XOR decides.
    return not _poly_mod(_clmul(d1 ^ d2, c1 ^ c3) ^ _clmul(d1 ^ d3, c1 ^ c2), irreducible_poly(n))

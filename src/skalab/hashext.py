"""Universal linear hashing and the seeded strong extractor.

Fingerprinting and privacy amplification both reduce to one primitive: a
seeded GF(2)-linear map, and every one here is a Toeplitz matrix: the family
is universal with rows + cols - 1 seed bits (Mansour, Nisan & Tiwari 1990;
Krawczyk 1994), which is what every protocol here sends on the public
channel; applying one is a window of a carry-less product (see gf2.matvec).

The extractor is the Toeplitz / leftover-hash construction: for min-entropy
k and error eps it outputs m = k - 2*ceil(log2(1/eps)) bits from a seed of
input_len + m - 1 bits.  The (k, eps) strong-extractor guarantee is the
leftover hash lemma; the price relative to optimal constructions is only
the longer (public) seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gf2 import BitVec, Gf2Matrix, matvec


def ceil_log2_inv(eps) -> int:
    """Exact ceil(log2(1/eps)) for rational eps in (0, 1]."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    # The least c with 2^c >= d/n is the least with 2^c >= ceil(d/n).
    return (-(-eps.denominator // eps.numerator) - 1).bit_length()


@dataclass(frozen=True)
class ExtractorSpec:
    """(k, eps) strong extractor via Toeplitz hashing.

    m = k - 2*ceil(log2(1/eps)) and seed_len = input_len + m - 1; m must
    come out >= 1 or the parameters are rejected.
    """

    input_len: int
    min_entropy: int
    eps: Fraction
    output_len: int = field(init=False, compare=False)
    seed_len: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.min_entropy < 0 or self.min_entropy > self.input_len:
            raise ValueError(
                f"min-entropy {self.min_entropy} outside [0, {self.input_len}]"
            )
        # Both lengths are read on every extraction, so they are fixed here.
        m = self.min_entropy - 2 * ceil_log2_inv(self.eps)
        if m < 1:
            raise ValueError(
                f"extractor output m = {m} < 1 "
                f"(k={self.min_entropy}, eps={self.eps})"
            )
        object.__setattr__(self, "output_len", m)
        object.__setattr__(self, "seed_len", self.input_len + m - 1)


def extract(x: BitVec, spec: ExtractorSpec, seed: BitVec) -> BitVec:
    """z = E(x, seed): Toeplitz-hash x down to spec.output_len bits."""
    if x.n != spec.input_len:
        raise ValueError(f"input has {x.n} bits, extractor wants {spec.input_len}")
    if seed.n != spec.seed_len:
        raise ValueError(f"seed has {seed.n} bits, extractor wants {spec.seed_len}")
    return matvec(Gf2Matrix(spec.output_len, spec.input_len, seed), x)

"""Correlated input generators with analytic profiles and candidate sets.

Each correlation model is one frozen dataclass of its parameters, and
``MODELS`` maps the name of a CLI spec string to its class:

* ``line-point:n=16``  Alice holds a random non-vertical line (slope a,
  intercept b) of the affine plane over GF(2^n), Bob a random point on it.
  Inputs pack as slope | intercept << n and abscissa | ordinate << n.
* ``hamming:n=31,t=2`` Bob's word differs from Alice's uniform word by an
  error of Hamming weight exactly t.
* ``triple:n=16``      three distinct random points on a random
  non-vertical line (three parties).
* ``identical:n=16``   hamming at t = 0: both parties hold one uniform word.

A model class checks its own parameters and holds its party count, input
length and spec string, its exact analytic profile (``profile``), its draw
from a seed stream (``draw``), the count and enumeration of its instances
for exhaustive audits and, for the two-party models, the receiver's
candidate set (``candidates``), which is what makes decoding feasible at
desk scale.  Adding a model takes one class and one entry in ``MODELS``;
no other module names a model class.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from itertools import permutations

from .gf2 import BitVec, irreducible_poly, mul_int
from .profiles import ComplexityProfile, all_nonempty_subsets, ceil_log2, make_profile
from .rng import SeedStream


class Model:
    """What every model shares: n >= 2, two parties unless it says
    otherwise, n-bit inputs, and a spec of its init fields (``params``)."""

    name = ""
    parties = 2

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"{self.name} needs n >= 2, got {self.n}")

    @property
    def input_len(self) -> int:
        return self.n

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def spec_string(self) -> str:
        return f"{self.name}:" + ",".join(f"{k}={v}" for k, v in self.params().items())


class _PlaneModel(Model):
    """Inputs are lines or points of the affine plane over GF(2^n), each
    two n-bit coordinates packed as low | high << n."""

    def __post_init__(self) -> None:
        super().__post_init__()
        irreducible_poly(self.n)  # raises FieldConfigError if unsupported

    @property
    def input_len(self) -> int:
        return 2 * self.n

    def _pack(self, low: int, high: int) -> BitVec:
        return BitVec(2 * self.n, low | (high << self.n))


@dataclass(frozen=True)
class LinePoint(_PlaneModel):
    n: int
    name = "line-point"

    def profile(self) -> ComplexityProfile:
        n = self.n
        return make_profile(2, {(1,): 2 * n, (2,): 2 * n, (1, 2): 3 * n})

    def draw(self, stream: SeedStream) -> tuple:
        a, b, c = stream.bits(self.n), stream.bits(self.n), stream.bits(self.n)
        return self._pack(a, b), self._pack(c, mul_int(a, c, self.n) ^ b)

    def instance_count(self) -> int:
        return 1 << 3 * self.n

    def instances(self):
        """Every (a, b, c) that draw ranges over."""
        q = 1 << self.n
        for a in range(q):
            products = [mul_int(a, c, self.n) for c in range(q)]
            for b in range(q):
                x = self._pack(a, b)
                for c, ac in enumerate(products):
                    yield (x, self._pack(c, ac ^ b))

    def candidates(self, observation: BitVec) -> AffineCandidates:
        # Lines through Bob's point (c, d): slope s gives (s, d xor s*c).
        # Points on Alice's line (a, b): abscissa u gives (u, a*u xor b).
        n = self.n
        return AffineCandidates(2 * n, observation.v >> n << n, observation.v & ((1 << n) - 1))


@dataclass(frozen=True)
class Hamming(Model):
    n: int
    t: int = 0
    name = "hamming"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.t < self.n / 2:
            raise ValueError(f"hamming needs 0 <= t < n/2, got t={self.t}")

    def profile(self) -> ComplexityProfile:
        n = self.n
        return make_profile(2, {(1,): n, (2,): n, (1, 2): n + ceil_log2(math.comb(n, self.t))})

    def draw(self, stream: SeedStream) -> tuple:
        x = stream.bitvec(self.n)
        e, moved = 0, {}  # the entries of a Fisher-Yates position list that swaps changed
        for i in range(self.t):  # a prefix of t distinct positions; slot i is never read again
            j = i + stream.randrange(self.n - i)
            e |= 1 << moved.get(j, j)
            moved[j] = moved.get(i, i)
        return x, BitVec(self.n, x.v ^ e) if e else x  # at t = 0 (identical) both hold one word

    def instance_count(self) -> int:
        return math.comb(self.n, self.t) << self.n

    def instances(self):
        """Every (x, error position set) that draw ranges over."""
        errors = list(weight_words(self.n, self.t))
        for v in range(1 << self.n):
            for e in errors:
                yield (BitVec(self.n, v), BitVec(self.n, v ^ e))

    def candidates(self, observation: BitVec) -> HammingSphere:
        return HammingSphere(self.n, observation.v, self.t)


@dataclass(frozen=True)
class Triple(_PlaneModel):
    n: int
    name = "triple"
    parties = 3

    def profile(self) -> ComplexityProfile:
        # One point is 2n bits; two fix the line and two abscissas; the
        # third adds its abscissa.
        n = self.n
        return make_profile(3, {s: (2 * n, 4 * n, 5 * n)[len(s) - 1] for s in all_nonempty_subsets(3)})

    def draw(self, stream: SeedStream) -> tuple:
        a, b = stream.bits(self.n), stream.bits(self.n)
        cs: list[int] = []
        while len(cs) < 3:  # resample abscissas until distinct
            c = stream.bits(self.n)
            if c not in cs:
                cs.append(c)
        return tuple(self._pack(c, mul_int(a, c, self.n) ^ b) for c in cs)

    def instance_count(self) -> int:
        q = 1 << self.n
        return q * q * q * (q - 1) * (q - 2)

    def instances(self):
        """Every (a, b, distinct ordered abscissas) that draw ranges over."""
        q = 1 << self.n
        for a in range(q):
            products = [mul_int(a, c, self.n) for c in range(q)]
            for b in range(q):
                yield from permutations([self._pack(c, ac ^ b) for c, ac in enumerate(products)], 3)


@dataclass(frozen=True)
class Identical(Hamming):
    t: int = field(default=0, init=False, repr=False)
    name = "identical"


MODELS = {cls.name: cls for cls in (LinePoint, Hamming, Triple, Identical)}


def make_model(name: str, params: dict) -> Model:
    """The model that MODELS names, built from params; a parameter that the
    model does not take is an error, not ignored."""
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r} (want one of {sorted(MODELS)})")
    extra = sorted(params.keys() - {f.name for f in fields(MODELS[name]) if f.init})
    if extra:
        raise ValueError(f"{name} takes no {extra[0]} parameter")
    if "n" not in params:
        raise ValueError("model spec needs n=<bits>")
    return MODELS[name](**params)


def parse_model_spec(text: str) -> Model:
    """Parse CLI model strings like ``line-point:n=16`` or ``hamming:n=31,t=2``."""
    name, _, args = text.strip().partition(":")
    params = {}
    for item in args.split(",") if args else ():
        key, _, val = item.partition("=")
        key = key.strip()
        if not (val.isascii() and val.strip().removeprefix("-").isdecimal()):  # int() would also take "1_6", "+1" and non-ASCII digits
            raise ValueError(f"bad model parameter {item!r}")
        if key in params:
            raise ValueError(f"model parameter {key} given twice")
        params[key] = int(val)
    return make_model(name, params)


CorrelatedInstance = namedtuple("CorrelatedInstance", "inputs")


def sample(model: Model, stream: SeedStream) -> CorrelatedInstance:
    """Draw one instance; deterministic given the stream state."""
    return CorrelatedInstance(model.draw(stream))


# ---------------------------------------------------------------------------
# Candidate sets
# ---------------------------------------------------------------------------


class AffineCandidates:
    """The line-point candidate set {base xor (u, multiplier * u) : u in
    GF(2^(length/2))}, the graph of multiplication by the receiver's
    abscissa or slope, shifted.  A description, not a list:
    `reconcile.decode` solves it.  A plain class, as a dataclass would
    cost every import its code generation."""

    def __init__(self, length: int, base: int, multiplier: int) -> None:
        self.length, self.base, self.multiplier = length, base, multiplier


class HammingSphere:
    """The words at Hamming distance exactly t from center; at t = 0 the
    center alone, the identical model's set."""

    def __init__(self, length: int, center: int, t: int) -> None:
        self.length, self.center, self.t = length, center, t


def weight_words(n: int, w: int):
    """Every n-bit word of weight exactly w, in increasing order (Gosper's
    next-combination step)."""
    if w == 0:
        yield 0
        return
    e = (1 << w) - 1
    while not e >> n:
        yield e
        low = e & -e
        ripple = e + low
        e = ripple | (((e ^ ripple) >> 2) // low)

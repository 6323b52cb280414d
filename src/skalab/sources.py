"""Correlated input generators with analytic profiles and candidate sets.

Four correlation models are supported, keyed by CLI spec strings:

* ``line-point:n=16``  Alice holds a random non-vertical line (slope a,
  intercept b) of the affine plane over GF(2^n), Bob a random point on it.
  Inputs pack as slope | intercept << n and abscissa | ordinate << n.
* ``hamming:n=31,t=2`` Bob's word differs from Alice's uniform word by an
  error of Hamming weight exactly t.
* ``triple:n=16``      three distinct random points on a random
  non-vertical line (three parties).
* ``identical:n=16``   both parties hold the same uniform word.

Each model carries an exact analytic profile and, for the two-party
models, an enumerator of the receiver's candidate set, which is what makes
decoding feasible at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .entropy import make_profile
from .gf2 import BitVec, _clmul, _poly_mod, irreducible_poly, mul_int, x_power_multiples
from .profiles import ComplexityProfile
from .rng import SeedStream

LINE_POINT = "line_point"
HAMMING_PAIR = "hamming_pair"
COLLINEAR_TRIPLE = "collinear_triple"
IDENTICAL_PAIR = "identical_pair"

_SPEC_NAMES = {
    "line-point": LINE_POINT,
    "hamming": HAMMING_PAIR,
    "triple": COLLINEAR_TRIPLE,
    "identical": IDENTICAL_PAIR,
}
_SPEC_NAMES_REV = {v: k for k, v in _SPEC_NAMES.items()}


@dataclass(frozen=True)
class CorrelationModel:
    kind: str
    n: int
    t: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (LINE_POINT, HAMMING_PAIR, COLLINEAR_TRIPLE, IDENTICAL_PAIR):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n < 2:
            raise ValueError(f"model needs n >= 2, got {self.n}")
        if self.kind == HAMMING_PAIR:
            if not 0 <= self.t < self.n / 2:
                raise ValueError(f"hamming model needs 0 <= t < n/2, got t={self.t}")
        elif self.t:
            raise ValueError(f"{self.kind} takes no t parameter")
        if self.kind in (LINE_POINT, COLLINEAR_TRIPLE):
            irreducible_poly(self.n)  # raises FieldConfigError if unsupported

    @property
    def parties(self) -> int:
        return 3 if self.kind == COLLINEAR_TRIPLE else 2

    @property
    def input_len(self) -> int:
        return 2 * self.n if self.kind in (LINE_POINT, COLLINEAR_TRIPLE) else self.n

    def spec_string(self) -> str:
        base = f"{_SPEC_NAMES_REV[self.kind]}:n={self.n}"
        return f"{base},t={self.t}" if self.kind == HAMMING_PAIR else base


def parse_model_spec(text: str) -> CorrelationModel:
    """Parse CLI model strings like ``line-point:n=16`` or ``hamming:n=31,t=2``."""
    name, _, args = text.strip().partition(":")
    if name not in _SPEC_NAMES:
        raise ValueError(f"unknown model {name!r} (want one of {sorted(_SPEC_NAMES)})")
    params = {}
    if args:
        for item in args.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"bad model parameter {item!r}")
            params[key.strip()] = int(val)
    unknown = set(params) - {"n", "t"}
    if unknown:
        raise ValueError(f"unknown model parameters {sorted(unknown)}")
    if "n" not in params:
        raise ValueError("model spec needs n=<bits>")
    return CorrelationModel(_SPEC_NAMES[name], params["n"], params.get("t", 0))


@dataclass(frozen=True)
class CorrelatedInstance:
    model: CorrelationModel
    inputs: tuple
    profile: ComplexityProfile

    def __post_init__(self) -> None:
        if len(self.inputs) != self.model.parties:
            raise ValueError("wrong number of party inputs")
        if not is_consistent(self.model, self.inputs):
            raise ValueError("inputs violate the model constraint")


@lru_cache(maxsize=256)
def analytic_profile(model: CorrelationModel) -> ComplexityProfile:
    n = model.n
    if model.kind == LINE_POINT:
        return make_profile(2, {(1,): 2 * n, (2,): 2 * n, (1, 2): 3 * n})
    if model.kind == IDENTICAL_PAIR:
        return make_profile(2, {(1,): n, (2,): n, (1, 2): n})
    if model.kind == HAMMING_PAIR:
        joint = n + ceil_log2(math.comb(n, model.t))
        return make_profile(2, {(1,): n, (2,): n, (1, 2): joint})
    return make_profile(
        3,
        {
            (1,): 2 * n,
            (2,): 2 * n,
            (3,): 2 * n,
            (1, 2): 4 * n,
            (1, 3): 4 * n,
            (2, 3): 4 * n,
            (1, 2, 3): 5 * n,
        },
    )


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 of non-positive value")
    return (x - 1).bit_length()


def _pack_point(c: int, d: int, n: int) -> BitVec:
    return BitVec(2 * n, c | (d << n))


def _unpack(v: BitVec, n: int) -> tuple[int, int]:
    return v.v & ((1 << n) - 1), v.v >> n


def sample(model: CorrelationModel, stream: SeedStream) -> CorrelatedInstance:
    """Draw one instance; deterministic given the stream state."""
    n = model.n
    profile = analytic_profile(model)
    if model.kind == LINE_POINT:
        a, b, c = stream.bits(n), stream.bits(n), stream.bits(n)
        d = mul_int(a, c, n) ^ b
        x = _pack_point(a, b, n)
        y = _pack_point(c, d, n)
        return CorrelatedInstance(model, (x, y), profile)
    if model.kind == IDENTICAL_PAIR:
        x = stream.bitvec(n)
        return CorrelatedInstance(model, (x, x), profile)
    if model.kind == HAMMING_PAIR:
        x = stream.bitvec(n)
        e = 0
        positions = list(range(n))
        for i in range(model.t):  # Fisher-Yates prefix for t distinct positions
            j = i + stream.randrange(n - i)
            positions[i], positions[j] = positions[j], positions[i]
            e |= 1 << positions[i]
        return CorrelatedInstance(model, (x, BitVec(n, x.v ^ e)), profile)
    a, b = stream.bits(n), stream.bits(n)
    cs: list[int] = []
    while len(cs) < 3:  # resample abscissas until distinct
        c = stream.bits(n)
        if c not in cs:
            cs.append(c)
    points = tuple(_pack_point(c, mul_int(a, c, n) ^ b, n) for c in cs)
    return CorrelatedInstance(model, points, profile)


def is_consistent(model: CorrelationModel, inputs) -> bool:
    n = model.n
    if any(v.n != model.input_len for v in inputs):
        return False
    if model.kind == LINE_POINT:
        (a, b), (c, d) = _unpack(inputs[0], n), _unpack(inputs[1], n)
        return d == mul_int(a, c, n) ^ b
    if model.kind == IDENTICAL_PAIR:
        return inputs[0] == inputs[1]
    if model.kind == HAMMING_PAIR:
        return (inputs[0].v ^ inputs[1].v).bit_count() == model.t
    points = [_unpack(p, n) for p in inputs]
    cs = [c for c, _ in points]
    if len(set(cs)) != 3:
        return False
    (c1, d1), (c2, d2), (c3, d3) = points
    # Equal slopes from point 1, cross-multiplied (the abscissas are
    # distinct); reduction is linear, so one reduction of the XOR decides.
    return not _poly_mod(_clmul(d1 ^ d2, c1 ^ c3) ^ _clmul(d1 ^ d3, c1 ^ c2), irreducible_poly(n))


def instance_count(model: CorrelationModel) -> int:
    """Number of tuples enumerate_instances yields, without enumerating."""
    q = 1 << model.n
    if model.kind == LINE_POINT:
        return q**3
    if model.kind == IDENTICAL_PAIR:
        return q
    if model.kind == HAMMING_PAIR:
        return q * math.comb(model.n, model.t)
    return q * q * q * (q - 1) * (q - 2)


def enumerate_instances(model: CorrelationModel):
    """Every instance of the model, in sampling-uniform order.

    The tuples enumerated here have exactly the distribution of sample():
    line-point ranges over (a, b, c), hamming over (x, error position
    set), the triple over (a, b, distinct ordered abscissas).  Intended
    for exhaustive small-n audits only.
    """
    n = model.n
    if model.kind == LINE_POINT:
        for a in range(1 << n):
            for b in range(1 << n):
                x = _pack_point(a, b, n)
                for c in range(1 << n):
                    yield (x, _pack_point(c, mul_int(a, c, n) ^ b, n))
    elif model.kind == IDENTICAL_PAIR:
        for v in range(1 << n):
            x = BitVec(n, v)
            yield (x, x)
    elif model.kind == HAMMING_PAIR:
        errors = list(weight_words(n, model.t))
        for v in range(1 << n):
            for e in errors:
                yield (BitVec(n, v), BitVec(n, v ^ e))
    else:
        for a in range(1 << n):
            for b in range(1 << n):
                ds = [mul_int(a, c, n) ^ b for c in range(1 << n)]
                for c1 in range(1 << n):
                    for c2 in range(1 << n):
                        if c2 == c1:
                            continue
                        for c3 in range(1 << n):
                            if c3 == c1 or c3 == c2:
                                continue
                            yield (
                                _pack_point(c1, ds[c1], n),
                                _pack_point(c2, ds[c2], n),
                                _pack_point(c3, ds[c3], n),
                            )


# ---------------------------------------------------------------------------
# Candidate sets
# ---------------------------------------------------------------------------


class AffineCandidates:
    """Candidate coset {base xor subset-XOR(basis)}, iterated in
    coefficient-lex order (for line-point sets this is slope order).  The
    basis is the graph of multiplication by `multiplier` on GF(2^(length/2))
    (see `_multiplier_basis`), or empty, for a single word, when the
    multiplier is None."""

    def __init__(self, length: int, base: int, multiplier: int | None = None) -> None:
        self.length = length
        self.base = base
        self.multiplier = multiplier
        self.basis = () if multiplier is None else _multiplier_basis(length // 2, multiplier)

    def log2_size(self) -> float:
        return float(len(self.basis))

    def __iter__(self):
        cur = self.base
        yield BitVec(self.length, cur)
        for a in range(1, 1 << len(self.basis)):
            changed = a ^ (a - 1)
            j = 0
            while changed:
                if changed & 1:
                    cur ^= self.basis[j]
                changed >>= 1
                j += 1
            yield BitVec(self.length, cur)


class HammingSphere:
    """The words at Hamming distance exactly t from center, iterated in
    increasing order of the error word center xor candidate."""

    def __init__(self, length: int, center: int, t: int) -> None:
        self.length = length
        self.center = center
        self.t = t

    def log2_size(self) -> float:
        return math.log2(math.comb(self.length, self.t))

    def __iter__(self):
        return (BitVec(self.length, self.center ^ e) for e in weight_words(self.length, self.t))


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


def enumerate_candidates(model: CorrelationModel, observer: int, observation: BitVec):
    """Candidates for the unknown input, given one party's observation.

    Party indices are 1-based.  For the collinear triple the joint
    candidate set is handled by reconcile.multi_decode instead.
    """
    n = model.n
    if observation.n != model.input_len:
        raise ValueError(f"observation has {observation.n} bits, model wants {model.input_len}")
    if model.kind == COLLINEAR_TRIPLE:
        raise ValueError("joint candidates for the triple are built by the reconciler")
    if observer not in (1, 2):
        raise ValueError(f"observer must be 1 or 2, got {observer}")
    if model.kind == IDENTICAL_PAIR:
        return AffineCandidates(n, observation.v)
    if model.kind == HAMMING_PAIR:
        return HammingSphere(n, observation.v, model.t)
    # Lines through Bob's point (c, d): slope s gives (s, d xor s*c).
    # Points on Alice's line (a, b): abscissa u gives (u, a*u xor b).
    c_or_a, d_or_b = _unpack(observation, n)
    return AffineCandidates(2 * n, d_or_b << n, c_or_a)


@lru_cache(maxsize=64)
def _multiplier_basis(n: int, m: int) -> tuple:
    """The graph {(u, m*u)} of multiplication by m on GF(2^n), one vector
    per unit u = 2^j, with m * 2^j by doubling.  The coset's direction
    depends only on the observed abscissa or slope, so a fixed-seed audit
    builds each once."""
    return tuple((1 << j) | (w << n) for j, w in enumerate(x_power_multiples(m, n)))

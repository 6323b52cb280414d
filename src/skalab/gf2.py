"""Bit vectors, GF(2) matrices, and GF(2^n) field arithmetic.

Representation conventions (used everywhere in this package):

* A bit vector of length ``n`` is stored as a Python integer ``v`` with
  ``0 <= v < 2**n``.  Bit ``i`` of the vector is ``(v >> i) & 1``, i.e.
  index 0 is the least significant bit and the first bit of the sequence.
  ``BitVec`` is a named tuple that checks its fields in ``__new__``.  It
  equals the pair (n, v) and hashes and sorts as that pair, in C: the
  audits' tables hash vectors by the million.
* Hex serialization is length-prefixed, ``len:hex``, where the hex digits
  encode the bytes ``v & 0xff``, ``(v >> 8) & 0xff``, ... in order
  (little-endian within byte, least significant byte first).
* Every ``Gf2Matrix`` is Toeplitz: a ``rows x cols`` one stores
  ``rows + cols - 1`` diagonal bits; entry (i, j) is diagonal bit
  ``i - j + cols - 1``, so every descending diagonal is constant.  Its
  product with x is the window [cols - 1, cols - 1 + rows) of the
  carry-less product seed(z) * x(z), so hashing builds no rows: each hash
  keeps only its seed in spread form (below), and a product is one integer
  multiply per 255 bits of x and a read of the window's parity bytes, made
  once per hash and x: a hash keeps its products.  Columns, which are seed
  windows too, are derived on demand for the Hamming sphere decode.
* GF(2^n) elements are n-bit polynomials over GF(2) in the monomial basis
  (bit i = coefficient of x^i), reduced modulo the lexicographically-first
  irreducible polynomial of degree n (see ``irreducible_poly``).
* A GF(2)[z] polynomial in byte-spread form (``spread``) has bit i in
  byte i of an int.  The integer product of two spread operands of degree
  < n then sums at most n terms into each byte, so while n <= 255 no sum
  carries into the next byte and each byte's parity is a coefficient of
  the carry-less product: one multiply and a mask, not a loop over bits.
  It is the package's one polynomial product: Toeplitz hashing, both
  lattices, field multiplication (``mul_int``) and the irreducibility
  search multiply in this form, and ``spread_reducer`` reduces modulo f
  in it.
* Solves reduce lattices over GF(2)[z] in the spread layout: coefficient d
  of field k sits at bit 8d + k, so a lead bit p names field p & 7 at
  degree p >> 3, ties going to the higher field, and one helper
  (``_field``) reads a field back through a byte table.  Two lattices use
  it.  m x = t for a Toeplitz m (``solve_affine``) says a window of
  seed(z) * x(z) is t: two rows, x in field 0 and seed * x in field 1
  (Brent, Gustavson & Yun 1980).  H on the graph of multiplication by m on
  GF(2^n) (``graph_basis``, ``solve_graph``, the line-point decode) is a
  simultaneous Pade problem (Beckermann & Labahn 1994): three rows, u,
  m u mod f and the window of H.  One insertion (``_weak_popov``) brings
  either to weak Popov form (Mulders & Storjohann 2003), cancelling each
  row's lead against the row leading in that field, one bit_length and one
  shift-XOR a step, until the leads lie in distinct fields.  A vector's
  lead is then the largest of its terms', so the vectors below a degree
  bound are spanned by the rows below it, shifted up to the bound, and one
  reduction (``_reduce``) of a target by the rows leaves a solution below
  the bound, or meets a lead whose row leads higher: there is none.  A
  solve of r rows and N columns costs O(r + N) shift-XORs, not min(r, N)
  pivots of a dense matrix.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache


class Gf2Error(ValueError):
    """Contract violation in a GF(2) operation (dimension or value mismatch)."""


class BitVec(namedtuple("BitVec", "n v")):
    """Immutable bit vector: ``n`` bits stored LSB-first in the integer ``v``."""

    __slots__ = ()

    def __new__(cls, n: int, v: int) -> "BitVec":
        if n < 0:
            raise Gf2Error(f"negative length {n}")
        if v < 0 or v >> n:
            raise Gf2Error(f"value {v:#x} does not fit in {n} bits")
        return tuple.__new__(cls, (n, v))

    _make = classmethod(lambda cls, fields: cls(*fields))  # the tuple's own, which _replace calls, skips __new__

    def slice(self, start: int, stop: int) -> "BitVec":
        if not 0 <= start <= stop <= self.n:
            raise Gf2Error(f"slice [{start}:{stop}] out of range for length {self.n}")
        width = stop - start
        return BitVec(width, (self.v >> start) & ((1 << width) - 1))

    def to_hex(self) -> str:
        """Length-prefixed hex form ``len:hex`` (LSB-first bytes)."""
        nbytes = (self.n + 7) // 8
        return f"{self.n}:{self.v.to_bytes(nbytes, 'little').hex()}"

    def __str__(self) -> str:
        return self.to_hex()


# A product of two spread operands of degree < n sums at most n terms into a
# byte, so a byte slot holds every column sum up to this degree.
_SPREAD_SLOT_MAX = 255
_SLOT_CHUNK = (1 << _SPREAD_SLOT_MAX) - 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")
# Bytes to the ASCII binary digit of field k, bit k of the byte.  Field 0's
# digit is also the parity of a column sum: a product's coefficient.
_FIELD_DIGITS = tuple(bytes(b"01"[b >> k & 1] for b in range(256)) for k in (0, 1))


def spread(a: int) -> int:
    """Byte-spread form of a packed GF(2)[z] polynomial: bit i becomes byte
    i.  The binary digits of a, as ASCII bytes mapped to 0 and 1 and read
    big-endian, put bit i at byte i."""
    return int.from_bytes(format(a, "b").encode().translate(_DIGIT_BYTES), "big")


def _field(v: int, n: int, k: int = 0) -> int:
    """Coefficients [0, n) of field k of a spread-layout int, packed: byte
    d, read through a table, is the binary digit of coefficient d."""
    return int((v & ((1 << 8 * n) - 1)).to_bytes(n, "big").translate(_FIELD_DIGITS[k]) or b"0", 2)


def toeplitz_seed_len(rows: int, cols: int) -> int:
    """Diagonal bits of a rows x cols Toeplitz matrix: rows + cols - 1, or
    none for an empty shape."""
    return rows + cols - 1 if rows and cols else 0


@dataclass(frozen=True)
class Gf2Matrix:
    """Toeplitz GF(2) matrix whose rows + cols - 1 diagonal bits are `data`.

    This is the seeded linear hash of the protocols: the data is the seed,
    the bits a session broadcasts.  `spread_seed` is the seed in ``spread``
    form, made once per hash for `matvec` and both lattices, `products` holds
    `matvec`'s products by x, `graph_bases` `graph_basis`'s reductions by
    multiplier and `cosets` `reconcile.solutions`' solves by right-hand
    side; none takes part in equality or hashing, and all go with it.
    """

    rows: int
    cols: int
    data: BitVec
    spread_seed: int = field(init=False, repr=False, compare=False)
    products: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    graph_bases: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    cosets: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise Gf2Error(f"negative shape {self.rows}x{self.cols}")
        want = toeplitz_seed_len(self.rows, self.cols)
        if self.data.n != want:
            raise Gf2Error(f"toeplitz {self.rows}x{self.cols} needs a seed of {want} bits, got {self.data.n}")
        object.__setattr__(self, "spread_seed", spread(self.data.v))

    def column_ints(self) -> list[int]:
        """Columns as packed integers (bit i of column j = entry (i, j)):
        column j is the seed window [cols - 1 - j, cols - 1 - j + rows)."""
        mask = (1 << self.rows) - 1
        return [(self.data.v >> (self.cols - 1 - j)) & mask for j in range(self.cols)]


def matvec(m: Gf2Matrix, x: BitVec) -> BitVec:
    """GF(2) matrix-vector product; result bit i is <row i, x> mod 2.

    The window [cols - 1, cols - 1 + rows) of seed(z) * x(z), taken in
    spread form: x goes in chunks of at most 255 bits, so no byte of a
    chunk's product with the spread seed sums more than 255 terms, and the
    chunks' products, each shifted down to the window, XOR into bytes whose
    parities are the result bits.  The product is kept in ``m.products`` by
    x, so a word is multiplied once per hash; a re-hash of any other word,
    as by a guard that fails, misses it and is multiplied.

    Against the window of a bitwise product (the seed shifted by every set
    bit of x, XORed together), with the seed spread beforehand, it ran
    1.9x as fast at seed x x bits 217x124 and 1.7x at 127x64 (pair-affine),
    1.6x at 105x63 and 1.3x at 75x31 (pair-hamming), 2.3x at 198x180 and
    1.7x at 125x64 (triple-omni), and 0.6-0.8x on the audits' 8- and 4-bit
    x (13x8, 11x8, 30x4), where the string conversions outweigh a few
    shift-XORs (timeit, median of 40 interleaved rounds of 5,000 calls,
    CPython 3.11.7, 2-core x86-64 VM)."""
    if x.n != m.cols:
        raise Gf2Error(f"matvec: vector length {x.n} != cols {m.cols}")
    if x.v not in m.products:
        cols, window = m.cols, 0
        for k in range(0, cols, _SPREAD_SLOT_MAX):
            window ^= m.spread_seed * spread(x.v >> k & _SLOT_CHUNK) >> 8 * (cols - 1 - k)
        m.products[x.v] = BitVec(m.rows, _field(window, m.rows))
    return m.products[x.v]


def _weak_popov(rows) -> tuple:
    """Weak Popov form of independent lattice rows in the spread layout:
    slot k holds (row, lead bit) of the one row leading in field k.  Each
    row is inserted by cancelling its lead against the row in that field's
    slot, keeping the lower-leading of the two there, until it leads in an
    empty field; independent rows never reduce to zero."""
    slots = [None] * len(rows)
    for row in rows:
        lead = row.bit_length() - 1
        while slots[lead & 7] is not None:
            other, other_lead = slots[lead & 7]
            if other_lead > lead:
                slots[lead & 7] = row, lead
                row, lead, other, other_lead = other, other_lead, row, lead
            row ^= other << (lead - other_lead)
            lead = row.bit_length() - 1
        slots[lead & 7] = row, lead
    return tuple(slots)


def _reduce(slots, v: int, stop: int):
    """v less lattice vectors, its lead cancelled against the slot of the
    lead's field until the lead bit falls below stop; None when that slot's
    row leads higher, so no lattice vector cancels the lead."""
    lead = v.bit_length() - 1
    try:
        while lead >= stop:
            row, row_lead = slots[lead & 7]
            v ^= row << (lead - row_lead)  # a negative shift raises: the row cannot cancel the lead
            lead = v.bit_length() - 1
    except ValueError:
        return None
    return v


def solve_affine(m: Gf2Matrix, target: BitVec):
    """All solutions of m x = target: (particular, kernel basis tuple) as
    ints of m.cols bits, or None if the system is inconsistent.

    For r rows, N columns, seed s and L = r + N - 1, m x is the window
    [N - 1, L) of s x.  So x solves it iff (x, y) = (x, s x mod z^L), a
    vector of the lattice spanned by (1, s) and (0, z^L), added to the
    target (0, z^(N-1) target) leaves degree < N, with y counted one degree
    up.  The kernel is the x parts of z^k b for every reduced row b and
    k < N - deg b."""
    rows, cols = m.rows, m.cols
    if target.n != rows:
        raise Gf2Error(f"solve: target of {target.n} bits for a matrix of {rows} rows")
    slots = _weak_popov((1 | m.spread_seed << 9, 1 << 8 * (rows + cols) + 1))
    kernel = []
    for row, lead in slots:
        x = _field(row, cols)
        kernel += [x << k for k in range(cols - (lead >> 3))]
    v = _reduce(slots, spread(target.v) << 8 * cols + 1, 8 * cols)
    return None if v is None else (_field(v, cols), tuple(kernel))


# ---------------------------------------------------------------------------
# GF(2^n) field arithmetic
# ---------------------------------------------------------------------------


class FieldConfigError(ValueError):
    """No irreducible polynomial is registered/computable for the degree."""


_MAX_FIELD_DEGREE = 64


def _poly_mod(a: int, f: int) -> int:
    fl = f.bit_length()
    while a.bit_length() >= fl:
        a ^= f << (a.bit_length() - fl)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _spread_fold(f: int):
    """The reduction modulo f, of degree n <= 255, on spread form.

    Its argument holds coefficient i in the parity of byte i, up to degree
    2n - 2: the product of two spread operands of degree < n, or an XOR of
    such products, since no column sum of a product (at most n) carries
    into the next byte.  It masks every byte to its parity, then folds the
    part at and above x^n back through f's low terms (x^n = f xor x^n modulo
    f) with the same multiply and mask, until nothing is left there.  The
    result is the spread form of the residue.
    """
    n = f.bit_length() - 1
    shift = 8 * n
    ones = ((1 << (8 * (2 * n - 1))) - 1) // 0xFF  # bit 0 of each of 2n - 1 bytes
    keep, low = (1 << shift) - 1, spread(f ^ (1 << n))

    def reduce(p: int) -> int:
        p &= ones
        while p > keep:
            p = (p & keep) ^ ((p >> shift) * low & ones)
        return p

    return reduce


def _is_irreducible(f: int, n: int) -> bool:
    # Ben-Or (1981): f of degree n is irreducible over GF(2) iff gcd(x^(2^i)
    # - x, f) == 1 for every i <= n / 2, since an irreducible factor of
    # degree i divides x^(2^i) - x.  x is squared in spread form; only the
    # gcd after each square reads a residue back.
    reduce = _spread_fold(f)
    t = spread(0b10)
    for _ in range(n // 2):
        t = reduce(t * t)
        if _poly_gcd(_field(t, n) ^ 0b10, f) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def irreducible_poly(n: int) -> int:
    """Lexicographically-first irreducible polynomial of degree n over GF(2).

    Returned as an integer with bit i = coefficient of x^i (bit n always
    set).  Fixing the lex-first choice makes every transcript reproducible.
    """
    if not 2 <= n <= _MAX_FIELD_DEGREE:
        raise FieldConfigError(f"no irreducible polynomial registered for degree {n}")
    base = 1 << n
    # Candidates need a constant term, else divisible by x.
    for low in range(1, 1 << n, 2):
        f = base | low
        if _is_irreducible(f, n):
            return f
    raise FieldConfigError(f"no irreducible polynomial found for degree {n}")


def mul_int(a: int, b: int, n: int) -> int:
    """Multiplication in GF(2^n) on raw n-bit ints, in spread form."""
    return _field(spread_reducer(n)(spread(a) * spread(b)), n)


@lru_cache(maxsize=None)
def spread_reducer(n: int):
    """`_spread_fold` of the degree-n field polynomial, built once a degree.

    Spreading costs a string conversion per operand, more than a few
    shift-XORs on operands of a few bits, so an operand that is reused is
    spread once: a Toeplitz hash keeps its seed spread
    (`Gf2Matrix.spread_seed`) and `matvec` spreads only x, the joint
    decode's collinearity form spreads far's coordinates once per decode,
    both lattices (`solve_affine`, `graph_basis`) read the hash's spread
    seed, and the models' enumerations compute a line's products once per
    slope, not once per intercept.
    """
    if n > _SPREAD_SLOT_MAX:
        raise Gf2Error(f"spread form holds column sums up to {_SPREAD_SLOT_MAX}, not degree {n}")
    return _spread_fold(irreducible_poly(n))


def graph_basis(h: Gf2Matrix, m: int):
    """(kernel dimension, basis) of H on the graph {u + z^n (m u mod f)} of
    multiplication by m on GF(2^n), n = h.cols / 2, f the field polynomial.

    H x is the window [2n - 1, L) of s x, s the seed and L = h.rows + 2n - 1.
    With m u mod f = m u + q f, the lattice rows (z^(n-1), m z^(n-1),
    s (1 + z^n m) mod z^L), (0, f z^(n-1), z^n s f mod z^L) and (0, 0, z^L)
    span vectors whose first two fields are u and m u mod f shifted up by
    n - 1, and whose third is s (u + z^n (m u mod f)) mod z^L.  In weak
    Popov form, the vectors of degree < 2n - 1, the graph's kernel under H,
    span sum(2n - 1 - deg b) over the rows b below that degree.  The basis,
    the reduced rows and n, is a function of (H, m) alone, so H keeps it in
    `graph_bases` by m: an audit decodes many syndromes on each m."""
    if m in h.graph_bases:
        return h.graph_bases[m]
    n = h.cols // 2
    if h.cols != 2 * n:
        raise Gf2Error(f"a graph basis needs a hash of 2n columns, got {h.rows}x{h.cols}")
    length = h.rows + h.cols - 1
    ones = ((1 << (8 * length)) - 1) // 0xFF  # bit 0 of bytes [0, L): a product's parities mod z^L
    s, sm, sf, top = h.spread_seed, spread(m), spread(irreducible_poly(n)), 8 * (n - 1)
    slots = _weak_popov((
        1 << top | sm << (top + 1) | ((s ^ s * sm << 8 * n) & ones) << 2,
        sf << (top + 1) | (s * sf << 8 * n & ones) << 2,
        1 << (8 * length + 2),
    ))
    kernel_dim = sum(2 * n - 1 - (lead >> 3) for _, lead in slots if lead < 8 * (2 * n - 1))
    basis = h.graph_bases[m] = kernel_dim, (slots, n)
    return basis


def _graph_word(v: int, n: int) -> int:
    """The packed graph word of a lattice vector of degree < 2n - 1."""
    v >>= 8 * (n - 1)
    return _field(v, n, 1) << n | _field(v, n)


def solve_graph(basis, syndrome: int):
    """A graph word g with H g = syndrome, given `graph_basis(H, m)`'s
    basis, or None: the target (0, 0, z^(2n - 1) syndrome), reduced below
    degree 2n - 1, holds g's halves in its first two fields."""
    slots, n = basis
    stop = 8 * (2 * n - 1)
    v = _reduce(slots, spread(syndrome) << stop + 2, stop)
    return None if v is None else _graph_word(v, n)


def graph_kernel_word(basis) -> int:
    """A nonzero graph word in H's kernel, given a basis of nonzero kernel
    dimension: the word of its lowest-leading row, below degree 2n - 1."""
    slots, n = basis
    return _graph_word(min(slots, key=lambda slot: slot[1])[0], n)

"""Test-only constructions: the bitwise GF(2)[z] product and the
irreducibility search by it, the references for the spread products; the
entry and dense-copy references for Toeplitz hashes, dense codes as packed
rows (bit j of row i is entry (i, j)) with their rank, forward
elimination, affine solve and syndrome decoder, the line-point decode by
elimination that the graph lattice is checked against, one-shot seeded
hashes and fingerprints (sessions draw their seeds through
``protocols.draw_seeds``), and the literal scan of a candidate list that
the structured decoders are checked against."""

import math
from fractions import Fraction
from itertools import chain

from skalab.gf2 import BitVec, Gf2Error, Gf2Matrix, _poly_gcd, _poly_mod, irreducible_poly, matvec, toeplitz_seed_len
from skalab.profiles import ceil_log2
from skalab.reconcile import STATUS_AMBIGUOUS, STATUS_NOT_FOUND, STATUS_UNIQUE, DecodeResult, Fingerprint, _error_matches, _verdict
from skalab.rng import SeedStream


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[z]) product of two packed polynomials: a shifted
    by every set bit of b, XORed together."""
    r = 0
    for i, bit in enumerate(bin(b)[:1:-1]):
        if bit == "1":
            r ^= a << i
    return r


def bitloop_irreducible_poly(n: int) -> int:
    """The lexicographically-first irreducible polynomial of degree n, found
    by Rabin's test with every square taken by `clmul` and reduced bit by
    bit: the first x^n + low, low odd, with x^(2^n) = x mod f and
    gcd(x^(2^(n/p)) - x, f) = 1 for every prime p dividing n."""

    def x_power(f: int, k: int) -> int:  # x^(2^k) mod f
        t = 0b10
        for _ in range(k):
            t = _poly_mod(clmul(t, t), f)
        return t

    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
    for low in range(1, 1 << n, 2):
        f = 1 << n | low
        if x_power(f, n) == 0b10 and all(_poly_gcd(x_power(f, n // p) ^ 0b10, f) == 1 for p in primes):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {n}")


def entry(m: Gf2Matrix, i: int, j: int) -> int:
    """Entry (i, j) read straight from the seed layout (see ``skalab.gf2``)."""
    if not (0 <= i < m.rows and 0 <= j < m.cols):
        raise Gf2Error(f"entry ({i},{j}) out of range")
    return (m.data.v >> (i - j + m.cols - 1)) & 1


def to_dense(m: Gf2Matrix) -> list[int]:
    """Packed rows of a Toeplitz matrix, built entry by entry."""
    return [sum(entry(m, i, j) << j for j in range(m.cols)) for i in range(m.rows)]


def dense_matvec(rows: list[int], x: BitVec) -> BitVec:
    """Product of packed rows with x; bit i is <row i, x> mod 2."""
    if any(r >> x.n for r in rows):
        raise Gf2Error(f"a row is wider than the {x.n}-bit vector")
    return BitVec(len(rows), sum(((r & x.v).bit_count() & 1) << i for i, r in enumerate(rows)))


def dense_column_ints(rows: list[int], cols: int) -> list[int]:
    """Columns of packed rows (bit i of column j = entry (i, j))."""
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(cols)]


def rank(rows: list[int], cols: int) -> int:
    """GF(2) rank of packed rows over their first cols columns: the size of
    an XOR basis of the masked rows, one basis row per leading bit.  The
    reference for the lattice solves' kernel dimensions and the secrecy
    certificates."""
    mask, basis = (1 << cols) - 1, {}
    for row in rows:
        row &= mask
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def eliminate(rows: list[int], cols: int):
    """Forward elimination of packed rows; returns (rows, pivot column
    list), the pivot rows in pivot order, then the others in any order.
    Pivot row i has its lowest set bit at pivots[i], so it is zero at every
    earlier pivot column; the others are zero below cols.  Bits at
    positions >= cols (a right-hand side) are never pivots.

    The unpivoted rows pack into one integer, row i in bits [i*w, (i+1)*w)
    for the width w of the widest row.  For column j, ``(m >> j) & ones``
    has bit 0 of slot i set iff row i holds j; the highest such slot is the
    pivot, and XORing ``col * pivot_row`` clears j from every row at once,
    as M4RI does per machine word (Albrecht, Bard & Hart, ACM TOMS 2010).
    """
    w = max(max(rows, default=0).bit_length(), 1)
    m = 0
    for i, r in enumerate(rows):
        m |= r << (i * w)
    left = len(rows)  # unpivoted rows, in slots [0, left)
    ones = ((1 << (left * w)) - 1) // ((1 << w) - 1)  # bit 0 of every slot
    row_mask = (1 << w) - 1
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for j in range(min(cols, w)):  # no row holds a column at or past w
        if not left:
            break
        col = (m >> j) & ones
        if not col:
            continue
        top = col.bit_length() - 1  # the highest slot holding j
        row = (m >> top) & row_mask
        m ^= col * row  # zeroes the pivot's slot too
        left -= 1
        hi = left * w
        if top != hi:  # the top slot moves into the freed one
            m = (m & ((1 << hi) - 1)) | ((m >> hi) << top)
        pivot_rows.append(row)
        pivots.append(j)
    return pivot_rows + [(m >> (i * w)) & row_mask for i in range(left)], pivots


def dense_solve_affine(rows: list[int], cols: int, target: BitVec):
    """All solutions of M x = target, M given as packed rows of cols bits:
    the elimination reference for the Toeplitz lattice solve.

    Returns (particular, kernel_basis) with everything packed as ints of
    cols bits, or None if the system is inconsistent.  The full solution
    set is {particular XOR any subset-XOR of kernel_basis}: free columns all
    0, or free column f alone 1, with the pivot columns filled in by
    back-substitution over the echelon rows, last first.
    """
    if target.n != len(rows) or any(r >> cols for r in rows):
        raise Gf2Error(f"solve: target of {target.n} bits for {len(rows)} rows of {cols} bits")
    t = target.v
    aug = [r | (((t >> i) & 1) << cols) for i, r in enumerate(rows)]
    red, pivots = eliminate(aug, cols)
    rank_ = len(pivots)
    if any(red[rank_:]):  # a leftover row reads 0 = 1
        return None
    back = [(1 << j, r) for j, r in zip(reversed(pivots), reversed(red[:rank_]))]

    def substitute(vec: int) -> int:
        for bit, r in back:
            if (r & vec).bit_count() & 1:
                vec |= bit
        return vec

    particular = substitute(1 << cols) ^ (1 << cols)  # the target rides in column cols
    pivot_set = set(pivots)
    basis = [substitute(1 << f) for f in range(cols) if f not in pivot_set]
    return particular, basis


def x_power_multiples(m: int, n: int) -> list[int]:
    """m * x^j in GF(2^n) for every j < n, by doubling: shift, then reduce
    by the field polynomial when the top bit overflows."""
    f, top = irreducible_poly(n), 1 << (n - 1)
    out = []
    for _ in range(n):
        out.append(m)
        m = (m << 1) ^ f if m & top else m << 1
    return out


def graph_images(h: Gf2Matrix, multiples) -> list[int]:
    """H b_j for every j < n, where b_j = 2^j | multiples[j] << n and
    multiples[j] = m * x^j (``x_power_multiples``): the basis of the graph
    {(u, m*u)} of multiplication by m on GF(2^n); H has 2n columns.

    H v is a window of seed * v, and seed * b_j = (seed << j) ^ (q_j << n)
    with q_j = seed * (m * x^j).  Doubling m * x^j doubles q_j, and its
    reduction by f on overflow (its top bit) adds seed * f, so the two
    carry-less products seed * m and seed * f give all n images.
    """
    n = len(multiples)
    if h.cols != 2 * n:
        raise Gf2Error(f"graph images need a hash of {2 * n} columns, got {h.rows}x{h.cols}")
    seed, top = h.data.v, 1 << (n - 1)
    seed_f, q = clmul(seed, irreducible_poly(n)), clmul(seed, multiples[0])
    shift, mask = h.cols - 1, (1 << h.rows) - 1
    out = []
    for j, w in enumerate(multiples):
        out.append((((seed << j) ^ (q << n)) >> shift) & mask)
        q = (q << 1) ^ seed_f if w & top else q << 1
    return out


def decode_line_by_elimination(fp: Fingerprint, candidates) -> DecodeResult:
    """The line-point decode by elimination, the reference for the graph
    lattice: the images H b_j of the graph basis b_j = 2^j | (m * x^j) << n,
    each tagged with bit rows + j, eliminated forward over the first rows
    columns into echelon form.  Reducing H(base) xor value by these rows in
    order leaves zero below bit rows iff it is in the span, and the tags
    above are then its coefficients u; m * u is the XOR of the multiples
    that u selects."""
    spec, base, rows = fp.spec, candidates.base, fp.spec.rows
    multiples = x_power_multiples(candidates.multiplier, spec.cols // 2)
    images = graph_images(spec, multiples)
    red, cols = eliminate([img | (1 << (rows + j)) for j, img in enumerate(images)], rows)
    t = fp.value.v ^ matvec(spec, BitVec(candidates.length, base)).v
    for col, row in zip(cols, red):  # in echelon order, a later row never sets an earlier column
        if (t >> col) & 1:
            t ^= row
    n = len(multiples)
    total = 1 << n
    if t & ((1 << rows) - 1):
        return DecodeResult(STATUS_NOT_FOUND, None, total)
    if len(cols) < n:  # the basis is independent: a kernel means >= 2 matches
        return DecodeResult(STATUS_AMBIGUOUS, None, total)
    u = t >> rows
    mu = 0
    for j, w in enumerate(multiples):
        if (u >> j) & 1:
            mu ^= w
    return DecodeResult(STATUS_UNIQUE, BitVec(candidates.length, base ^ u ^ (mu << n)), total)


def hamming_parity_check(r: int) -> list[int]:
    """Parity-check rows of the Hamming(2^r - 1, 2^r - 1 - r) code.

    Column j (0-based) is the binary expansion of j + 1, so the syndrome of
    a single error at position j reads j + 1 directly.
    """
    n = (1 << r) - 1
    return [sum((((j + 1) >> i) & 1) << j for j in range(n)) for i in range(r)]


def random_linear_code(rows: int, n: int, stream: SeedStream) -> list[int]:
    return [stream.bits(n) for _ in range(rows)]


def syndrome_decode(y: BitVec, syndrome: BitVec, code: list[int], max_weight: int) -> DecodeResult:
    """Find x = y xor e with weight(e) <= max_weight matching the syndrome
    under the code's parity-check rows.

    By linearity the match condition is code @ e = syndrome xor code @ y;
    the ball's errors are e = 0 when that target is 0, then those of each
    weight 1 ... max_weight from the Hamming sphere decode's
    meet-in-the-middle search.
    """
    target = syndrome.v ^ dense_matvec(code, y).v
    cols = dense_column_ints(code, y.n)
    ball = sum(math.comb(y.n, w) for w in range(max_weight + 1))
    errors = chain([] if target else [0], *(_error_matches(cols, target, w) for w in range(1, max_weight + 1)))
    return _verdict(errors, y, ball)


def fresh_toeplitz(rows: int, cols: int, stream: SeedStream) -> Gf2Matrix:
    """Toeplitz hash with a fresh seed drawn from the stream."""
    return Gf2Matrix(rows, cols, stream.bitvec(toeplitz_seed_len(rows, cols)))


def encode(x: BitVec, k: int, eps, stream: SeedStream) -> Fingerprint:
    """Fingerprint x at declared conditional complexity k and error eps."""
    eps = Fraction(eps)
    if not 0 <= k <= x.n:
        raise ValueError(f"k={k} outside [0, {x.n}]")
    rows = k + ceil_log2(1 / eps)
    spec = fresh_toeplitz(rows, x.n, stream)
    return Fingerprint(spec, matvec(spec, x))


def decode_scan(fp: Fingerprint, candidates) -> DecodeResult:
    """Literal scan: hash every candidate word, in order, and compare."""
    found: BitVec | None = None
    checked = 0
    for cand in candidates:
        checked += 1
        if matvec(fp.spec, cand) == fp.value:
            if found is not None:
                return DecodeResult(STATUS_AMBIGUOUS, None, checked)
            found = cand
    if found is None:
        return DecodeResult(STATUS_NOT_FOUND, None, checked)
    return DecodeResult(STATUS_UNIQUE, found, checked)

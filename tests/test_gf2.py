import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skalab import gf2
from skalab.gf2 import (
    BitVec,
    FieldConfigError,
    Gf2Error,
    Gf2Matrix,
    irreducible_poly,
    matvec,
    mul_int,
    solve_affine,
    spread,
    spread_reducer,
    toeplitz_seed_len,
)
from codes import (
    bitloop_irreducible_poly,
    clmul,
    dense_column_ints,
    dense_matvec,
    dense_solve_affine,
    eliminate,
    entry,
    graph_images,
    rank,
    to_dense,
    x_power_multiples,
)
from skalab.rng import SeedStream


# ---------------------------------------------------------
# BitVec basics and serialization
# ---------------------------------------------------------

def test_bitvec_bit_order():
    v = BitVec(4, 0b1101)
    assert [(v.v >> i) & 1 for i in range(4)] == [1, 0, 1, 1]


def test_bitvec_rejects_wide_values():
    with pytest.raises(Gf2Error):
        BitVec(3, 0b1000)
    with pytest.raises(Gf2Error):
        BitVec(0, 1)


@pytest.mark.parametrize(
    "n, v, message",
    [(-1, 0, "negative length -1"), (3, 0b1000, "value 0x8 does not fit in 3 bits"), (3, -1, "value -0x1 does not fit in 3 bits")],
)
def test_bitvec_errors_name_the_bad_field(n, v, message):
    with pytest.raises(Gf2Error) as err:
        BitVec(n, v)
    assert str(err.value) == message


def test_bitvec_is_a_checked_immutable_pair():
    b = BitVec(8, 3)
    assert repr(b) == "BitVec(n=8, v=3)" and str(b) == "8:03"
    assert b == (8, 3) and hash(b) == hash((8, 3))  # a BitVec equals the pair it holds
    assert not hasattr(b, "__dict__")
    with pytest.raises(AttributeError):
        b.v = 4
    for copied in (copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
        assert copied == b and type(copied) is BitVec
    assert sorted([BitVec(3, 1), BitVec(2, 3), BitVec(3, 0), BitVec(0, 0)]) == [BitVec(0, 0), BitVec(2, 3), BitVec(3, 0), BitVec(3, 1)]


def test_bitvec_replace_and_make_run_the_checks():
    assert BitVec(4, 1)._replace(v=15) == BitVec(4, 15)
    with pytest.raises(Gf2Error):
        BitVec(4, 1)._replace(v=16)
    with pytest.raises(Gf2Error):
        BitVec._make((-2, 0))


def test_hex_roundtrip_lsb_first():
    v = BitVec(12, 0b101100001111)
    assert v.to_hex() == "12:0f0b"
    assert BitVec.from_hex(v.to_hex()) == v
    assert BitVec(0, 0).to_hex() == "0:"
    assert BitVec.from_hex("0:") == BitVec(0, 0)


@given(st.integers(0, 200), st.data())
def test_hex_roundtrip_random(n, data):
    v = BitVec(n, data.draw(st.integers(0, (1 << n) - 1)) if n else 0)
    assert BitVec.from_hex(v.to_hex()) == v


# ---------------------------------------------------------
# matvec: spec examples
# ---------------------------------------------------------

def test_matvec_identity():
    # Seed bit cols - 1 alone is the main diagonal.
    x = BitVec(4, 0b1101)
    assert matvec(Gf2Matrix(4, 4, BitVec(7, 1 << 3)), x) == x


def test_matvec_zero_vector():
    m = Gf2Matrix(4, 5, BitVec(8, 0b10110101))
    assert matvec(m, BitVec(5, 0)) == BitVec(4, 0)


def test_matvec_dense_2x3_hand_xor():
    # seed bits 0,1,1,0 give rows (1,1,0) and (0,1,1) as bit sequences;
    # x = 101 hits one 1 on each row: output (1, 1)
    m = Gf2Matrix(2, 3, BitVec(4, 0b0110))
    assert to_dense(m) == [0b011, 0b110]
    assert matvec(m, BitVec(3, 0b101)) == BitVec(2, 0b11)


def test_matvec_dimension_mismatch():
    with pytest.raises(Gf2Error):
        matvec(Gf2Matrix(4, 4, BitVec(7, 1 << 3)), BitVec(3, 0))


@settings(max_examples=60)
@given(st.integers(1, 24), st.integers(1, 24), st.data())
def test_matvec_linearity(rows, cols, data):
    stream = SeedStream("linearity", rows, cols, data.draw(st.integers(0, 2**16)))
    m = Gf2Matrix(rows, cols, stream.bitvec(rows + cols - 1))
    x = stream.bitvec(cols)
    y = stream.bitvec(cols)
    assert matvec(m, BitVec(cols, x.v ^ y.v)).v == matvec(m, x).v ^ matvec(m, y).v


# ---------------------------------------------------------
# Toeplitz construction: spec examples
# ---------------------------------------------------------

def test_toeplitz_1x1():
    m = Gf2Matrix(1, 1, BitVec(1, 1))
    assert entry(m, 0, 0) == 1


def test_toeplitz_2x2_diagonal_layout():
    # seed bits 1,0,1 give rows (0,1) and (1,0)
    m = Gf2Matrix(2, 2, BitVec(3, 0b101))
    assert [[entry(m, i, j) for j in range(2)] for i in range(2)] == [[0, 1], [1, 0]]


def test_toeplitz_seed_length_contract():
    with pytest.raises(Gf2Error):
        Gf2Matrix(3, 4, BitVec(5, 0))  # needs 6 bits
    with pytest.raises(Gf2Error):
        Gf2Matrix(-1, 4, BitVec(2, 0))
    Gf2Matrix(3, 4, BitVec(6, 0))
    Gf2Matrix(0, 4, BitVec(0, 0))  # an empty shape has no diagonals


def test_toeplitz_constant_diagonals():
    stream = SeedStream("diag")
    m = Gf2Matrix(5, 6, stream.bitvec(10))
    for i in range(1, 5):
        for j in range(1, 6):
            assert entry(m, i, j) == entry(m, i - 1, j - 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 10**9))
# Protocol shapes: light and two_phase fingerprints, extractors, key hashes.
@example(156, 124, 0)
@example(43, 63, 1)
@example(24, 128, 2)
@example(200, 384, 3)
@example(1, 1, 4)
def test_toeplitz_dense_expansion_matvec_agree(rows, cols, salt):
    # The dense reference is built entry by entry, independently of both
    # the product window that matvec takes and the seed windows that
    # column_ints reads; so are the columns.
    stream = SeedStream("expand", salt)
    m = Gf2Matrix(rows, cols, stream.bitvec(rows + cols - 1))
    ref = to_dense(m)
    columns = [sum(entry(m, i, j) << i for i in range(rows)) for j in range(cols)]
    assert m.column_ints() == dense_column_ints(ref, cols) == columns
    for x in (stream.bitvec(cols), stream.bitvec(cols), BitVec(cols, (1 << cols) - 1)):
        assert matvec(m, x) == dense_matvec(ref, x)


def test_row_block_of_toeplitz_matches_dense_slice():
    # Rows [start, stop) of a Toeplitz matrix are the Toeplitz matrix of its
    # seed window at offset start: the cut the session plan's hash layout
    # makes when light's two hashes share one seed.
    def block(m, start, stop):
        return Gf2Matrix(stop - start, m.cols, m.data.slice(start, start + gf2.toeplitz_seed_len(stop - start, m.cols)))

    stream = SeedStream("blocks")
    m = Gf2Matrix(8, 7, stream.bitvec(14))
    x = stream.bitvec(7)
    full = matvec(m, x)
    top = matvec(block(m, 0, 3), x)
    bottom = matvec(block(m, 3, 8), x)
    assert full == BitVec(8, top.v | bottom.v << 3)
    assert to_dense(block(m, 0, 3)) + to_dense(block(m, 3, 8)) == to_dense(m)
    assert matvec(block(m, 8, 8), x) == BitVec(0, 0)
    with pytest.raises(Gf2Error):
        block(m, 3, 9)


# ---------------------------------------------------------
# rank
# ---------------------------------------------------------

def test_rank_zero_and_identity():
    assert rank([0, 0, 0], 4) == 0
    assert rank([1 << i for i in range(5)], 5) == 5


def test_rank_duplicate_rows():
    assert rank([0b11, 0b11], 2) == 1


def test_solve_affine_roundtrip():
    stream = SeedStream("solve")
    for _ in range(50):
        rows, cols = 1 + stream.randrange(10), 1 + stream.randrange(10)
        m = Gf2Matrix(rows, cols, stream.bitvec(rows + cols - 1))
        x = stream.bitvec(cols)
        t = matvec(m, x)
        sol = solve_affine(m, t)
        assert sol is not None
        particular, basis = sol
        # every element of the coset solves the system; x is among them
        assert matvec(m, BitVec(cols, particular)) == t
        for b in basis:
            assert matvec(m, BitVec(cols, particular ^ b)) == t
        span = {particular}
        for b in basis:
            span |= {s ^ b for s in span}
        assert x.v in span
        assert len(span) == 1 << (cols - rank(to_dense(m), cols))


def test_solve_affine_inconsistent():
    # Rows (1) and (1): x = 0 and x = 1 simultaneously
    assert solve_affine(Gf2Matrix(2, 1, BitVec(2, 0b11)), BitVec(2, 0b10)) is None
    # No columns: only the zero target is reached
    assert solve_affine(Gf2Matrix(3, 0, BitVec(0, 0)), BitVec(3, 0b100)) is None


def test_solve_affine_shape_contract():
    with pytest.raises(Gf2Error):
        solve_affine(Gf2Matrix(2, 1, BitVec(2, 0b11)), BitVec(3, 0))  # one target bit per row
    with pytest.raises(Gf2Error):
        solve_affine(Gf2Matrix(0, 4, BitVec(0, 0)), BitVec(1, 0))


def eliminate_reference(rows, cols):
    """The row-at-a-time Gauss-Jordan loop: pivot row swapped up, then
    XORed into every other row holding the pivot column."""
    rows = list(rows)
    pivots = []
    rank_ = 0
    for j in range(cols):
        pivot = None
        for i in range(rank_, len(rows)):
            if (rows[i] >> j) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank_], rows[pivot] = rows[pivot], rows[rank_]
        for i in range(len(rows)):
            if i != rank_ and (rows[i] >> j) & 1:
                rows[i] ^= rows[rank_]
        pivots.append(j)
        rank_ += 1
    return rows, pivots


def _elimination_shapes():
    rng = random.Random(20101)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (3, 70), (70, 3), (130, 130), (129, 64), (64, 129)]
    shapes += [(rng.randrange(0, 20), rng.randrange(0, 20)) for _ in range(300)]
    shapes += [(rng.randrange(20, 131), rng.randrange(20, 131)) for _ in range(40)]
    for rows, cols in shapes:
        # Up to 3 bits at or above cols, and some all-zero or repeated rows.
        extra = rng.randrange(4)
        mat = [rng.getrandbits(cols + extra) for _ in range(rows)]
        for i in range(rows):
            if rng.random() < 0.15:
                mat[i] = 0 if rng.random() < 0.5 else mat[rng.randrange(rows)]
        yield rng, mat, cols


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40), st.integers(0, 12), st.data())
def test_rank_equals_reference_pivot_count(cols, nrows, data):
    # Rows may carry bits at or above cols, which rank ignores.
    rows = data.draw(st.lists(st.integers(0, (1 << (cols + 3)) - 1), min_size=nrows, max_size=nrows))
    assert rank(rows, cols) == len(eliminate_reference(rows, cols)[1])


def test_eliminate_matches_reference():
    # eliminate returns echelon rows, not reduced ones: pivot row i has
    # its lowest set bit at pivots[i], so it is zero at every earlier pivot
    # column, and the leftover rows are zero below cols.
    for rng, mat, cols in _elimination_shapes():
        red, pivots = eliminate(mat, cols)
        ref, ref_pivots = eliminate_reference(mat, cols)
        assert pivots == ref_pivots
        assert len(red) == len(mat)
        assert rank([r & ((1 << cols) - 1) for r in mat], cols) == len(ref_pivots)
        rank_ = len(pivots)
        for row, j in zip(red, pivots):
            assert (row & -row).bit_length() - 1 == j
        assert all(r & ((1 << cols) - 1) == 0 for r in red[rank_:])
        # Row operations keep the row space, payload bits included.
        assert eliminate_reference(red, cols + 4)[0] == eliminate_reference(mat, cols + 4)[0]
        # Consistent when the bits >= cols are a combination of the rows:
        # then the pivot rows span the whole row space, and its reduced
        # form is unique, payload bits included.
        if all(r >> cols == 0 for r in ref[rank_:]):
            assert eliminate_reference(red[:rank_], cols)[0] == ref[:rank_]
            assert all(r == 0 for r in red[rank_:])


def assert_same_solutions(m, target):
    """The lattice solve against the elimination reference: the same
    verdict and kernel dimension, a particular solution in the reference
    coset, and kernel vectors of cols bits that are independent and span
    only the reference kernel.  Returns the verdict."""
    got = solve_affine(m, target)
    ref = dense_solve_affine(to_dense(m), m.cols, target)
    assert (got is None) == (ref is None), (m, target)
    if got is None:
        return False
    (particular, kernel), (ref_particular, ref_kernel) = got, ref
    assert len(kernel) == len(ref_kernel) == m.cols - rank(to_dense(m), m.cols)
    assert not any(v >> m.cols for v in [particular, *kernel])
    assert rank(ref_kernel + [particular ^ ref_particular], m.cols) == len(ref_kernel)
    assert rank(kernel, m.cols) == len(kernel)
    assert rank(ref_kernel + kernel, m.cols) == len(ref_kernel)
    assert matvec(m, BitVec(m.cols, particular)) == target
    return True


def _seeds(rng, n):
    """Random, zero, one-bit, all-ones and sparse seeds of n bits."""
    yield rng.getrandbits(n)
    yield 0
    if n:
        yield 1 << rng.randrange(n)
        yield (1 << n) - 1
        yield rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)


def test_solve_affine_matches_reference_elimination():
    rng = random.Random(20101)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (3, 70), (70, 3), (130, 130), (129, 64), (64, 129), (130, 140)]
    shapes += [(rng.randrange(0, 20), rng.randrange(0, 20)) for _ in range(300)]
    shapes += [(rng.randrange(20, 131), rng.randrange(20, 141)) for _ in range(40)]
    outcomes = set()
    for rows, cols in shapes:
        n = gf2.toeplitz_seed_len(rows, cols)
        for seed in _seeds(rng, n):
            m = Gf2Matrix(rows, cols, BitVec(n, seed))
            consistent = matvec(m, BitVec(cols, rng.getrandbits(cols)))
            for target in (consistent, BitVec(rows, rng.getrandbits(rows))):
                outcomes.add(assert_same_solutions(m, target))
            assert solve_affine(m, consistent) is not None
    assert outcomes == {True, False}


def _session_seeds(stream, n):
    """Two random seeds of n bits, then the zero, one-bit and all-ones
    seeds: Toeplitz matrices of full, deficient and zero rank."""
    return [("random", stream.bits(n)), ("random", stream.bits(n)), ("zero", 0), ("one bit", 1 << (n // 2)), ("all ones", (1 << n) - 1)]


# Omniscience on triple:n=32 solves 62 x 64 fingerprints and on triple:n=30
# 59 x 60; light on hamming:n=31,t=3 at eps = 2^-32 walks a 45 x 31 coset,
# and light on hamming:n=1023,t=2 fingerprints with 51 x 1023; the others
# are wide (a kernel past the coset cap) and very tall.
@pytest.mark.parametrize("rows,cols", [(62, 64), (59, 60), (94, 124), (45, 31), (27, 4), (51, 1023)])
def test_solve_affine_on_session_shapes_matches_reference(rows, cols):
    # Each matrix with a consistent target and a random one.
    stream = SeedStream("session-shapes", rows, cols)
    n = rows + cols - 1
    seeds = _session_seeds(stream, n)
    for name, seed in seeds:
        m = Gf2Matrix(rows, cols, BitVec(n, seed))
        assert assert_same_solutions(m, matvec(m, stream.bitvec(cols))), name
        assert_same_solutions(m, stream.bitvec(rows))
    ranks = {name: rank(to_dense(Gf2Matrix(rows, cols, BitVec(n, seed))), cols) for name, seed in seeds}
    assert ranks["zero"] == 0 and ranks["all ones"] == 1 and ranks["one bit"] > 0


def test_solve_affine_on_the_widest_session_shape():
    # The whole H of light on hamming:n=1023,t=2 at eps = 2^-32, 1055 x 1023,
    # where the dense reference costs seconds a solve.  Instead: a solution
    # solves, the kernel is independent and in ker m with cols - rank
    # vectors, and a target is consistent iff it leaves the column rank as it is.
    rows, cols = 1055, 1023
    stream = SeedStream("session-shapes", rows, cols)
    for name, seed in _session_seeds(stream, rows + cols - 1):
        m = Gf2Matrix(rows, cols, BitVec(rows + cols - 1, seed))
        columns = m.column_ints()
        for target in (matvec(m, stream.bitvec(cols)), stream.bitvec(rows)):
            got = solve_affine(m, target)
            assert (got is not None) == (rank(columns + [target.v], rows) == rank(columns, rows)), name
            if got is not None:
                particular, kernel = got
                assert matvec(m, BitVec(cols, particular)) == target
                assert all(matvec(m, BitVec(cols, v)).v == 0 for v in kernel)
                assert len(kernel) == rank(kernel, cols) == cols - rank(columns, rows)


# ---------------------------------------------------------
# GF(2^n) field
# ---------------------------------------------------------

def test_registered_polynomials_pinned():
    assert irreducible_poly(2) == 0b111
    assert irreducible_poly(3) == 0b1011
    assert irreducible_poly(4) == 0b10011
    assert irreducible_poly(8) == 0x11B
    assert irreducible_poly(16) == 0x1002B
    assert irreducible_poly(32) == (1 << 32) | 0b10001101
    assert irreducible_poly(64) == (1 << 64) | 0b11011


@pytest.mark.parametrize("n", range(2, gf2._MAX_FIELD_DEGREE + 1))
def test_irreducible_poly_matches_the_bitloop_search(n):
    # Every degree the parser accepts, the bench's 30, 32 and 62 among them:
    # the spread squarings pick the polynomial the bitwise search picks.
    assert irreducible_poly(n) == bitloop_irreducible_poly(n)


def _field_operands(n, rng):
    """Every element for n <= 5; else the edge ones (0, 1, all-ones, the
    top bit, f's low part, which is x^n itself modulo f) and random ones."""
    if n <= 5:
        return range(1 << n)
    low = irreducible_poly(n) ^ (1 << n)
    return [0, 1, (1 << n) - 1, 1 << (n - 1), low] + [rng.getrandbits(n) for _ in range(20)]


@pytest.mark.parametrize("n", range(2, gf2._MAX_FIELD_DEGREE + 1))
def test_mul_int_matches_the_clmul_reference(n):
    f, rng = irreducible_poly(n), random.Random(n)
    operands = _field_operands(n, rng)
    for a in operands:
        for b in operands:
            assert mul_int(a, b, n) == gf2._poly_mod(clmul(a, b), f), (a, b)


def test_field_degree_configuration_error():
    with pytest.raises(FieldConfigError):
        irreducible_poly(65)
    with pytest.raises(FieldConfigError):
        mul_int(0, 0, 1)


def test_field_mul_identity_and_spec_examples():
    x = 0b010
    assert mul_int(x, 1, 3) == x
    assert mul_int(x, x, 3) == 0b100  # x*x = x^2, no reduction
    assert mul_int(0b100, x, 3) == 0b011  # x^3 = x+1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_field_axioms_exhaustive(n):
    elems = range(1 << n)
    for a in elems:
        assert mul_int(a, 1, n) == a
        for b in elems:
            assert mul_int(a, b, n) == mul_int(b, a, n)
            for c in elems[:: max(1, n - 1)]:
                assert mul_int(mul_int(a, b, n), c, n) == mul_int(a, mul_int(b, c, n), n)
                assert mul_int(a ^ b, c, n) == mul_int(a, c, n) ^ mul_int(b, c, n)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_field_inverses_exhaustive(n):
    # Every nonzero element has exactly one inverse; zero has none.
    for a in range(1 << n):
        inverses = [b for b in range(1 << n) if mul_int(a, b, n) == 1]
        assert len(inverses) == (1 if a else 0)


# ---------------------------------------------------------
# Byte-spread products
# ---------------------------------------------------------


def test_spread_puts_bit_i_at_byte_i():
    assert spread(0) == 0
    assert spread(1) == 1
    assert spread(0b1011) == 0x01000101
    rng = random.Random(7)
    for _ in range(200):
        a = rng.getrandbits(rng.randrange(1, 300))
        assert spread(a) == sum(((a >> i) & 1) << (8 * i) for i in range(a.bit_length()))


@pytest.mark.parametrize("n", range(2, gf2._MAX_FIELD_DEGREE + 1))
def test_spread_product_reduces_to_mul_int(n):
    # The fold against the bitwise product reduced bit by bit, not against
    # mul_int, which is the fold itself.
    reduce, f, rng = spread_reducer(n), irreducible_poly(n), random.Random(n)
    operands = _field_operands(n, rng)
    for a in operands:
        for b in operands:
            assert reduce(spread(a) * spread(b)) == spread(gf2._poly_mod(clmul(a, b), f)), (a, b)
    # The collinearity form: an XOR of two products, reduced once.
    for _ in range(50):
        a, b, c, d = (rng.getrandbits(n) for _ in range(4))
        want = gf2._poly_mod(clmul(a, b) ^ clmul(c, d), f)
        assert reduce(spread(a) * spread(b) ^ spread(c) * spread(d)) == spread(want)


_CHUNK_EDGES = (1, 254, 255, 256, 510, 511, 512, 766)


@pytest.mark.parametrize("rows,cols", sorted({(rows, cols) for cols in _CHUNK_EDGES for rows in (0, 1, cols)}))
def test_spread_matvec_at_chunk_boundaries(rows, cols):
    # matvec multiplies x in chunks of at most 255 bits, so that no byte of
    # a product sums more than 255 terms.  An all-ones seed and x give every
    # column sum its largest value, where a carry into the next byte would
    # flip a parity; a drawn seed and x cover the rest.
    bits = toeplitz_seed_len(rows, cols)
    stream = SeedStream("chunk-edges", rows, cols)
    for seed, x in [((1 << bits) - 1, (1 << cols) - 1), (stream.bits(bits), stream.bits(cols))]:
        m = Gf2Matrix(rows, cols, BitVec(bits, seed))
        assert matvec(m, BitVec(cols, x)) == dense_matvec(to_dense(m), BitVec(cols, x)), (seed, x)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 600), st.integers(1, 600), st.data())
def test_spread_matvec_is_the_clmul_window(rows, cols, data):
    # The bitwise reference: the window [cols - 1, cols - 1 + rows) of the
    # carry-less product that `clmul` forms one set bit of x at a time.
    bits = toeplitz_seed_len(rows, cols)
    seed = data.draw(st.integers(0, (1 << bits) - 1))
    x = data.draw(st.integers(0, (1 << cols) - 1))
    got = matvec(Gf2Matrix(rows, cols, BitVec(bits, seed)), BitVec(cols, x))
    assert got.v == (clmul(seed, x) >> (cols - 1)) & ((1 << rows) - 1)


@pytest.mark.parametrize("cols", [124, 300])
def test_matvec_spreads_only_x(monkeypatch, cols):
    # A hash spreads its seed once, when it is built; every matvec after
    # that spreads x alone, one chunk of at most 255 bits at a time.
    stream = SeedStream("spread-once", cols)
    m = Gf2Matrix(94, cols, stream.bitvec(93 + cols))
    assert m.spread_seed == spread(m.data.v)
    matvec(m, stream.bitvec(cols))
    spread_args = []
    monkeypatch.setattr(gf2, "spread", lambda a: spread_args.append(a) or spread(a))
    x = stream.bitvec(cols)
    assert matvec(m, x) == dense_matvec(to_dense(m), x)
    assert spread_args == [x.v >> k & ((1 << 255) - 1) for k in range(0, cols, 255)]


def test_spread_slot_bound():
    # A product sums up to n terms into one byte, so the field cap must stay
    # within the byte's range, and the reducer refuses any degree past it.
    assert gf2._MAX_FIELD_DEGREE <= gf2._SPREAD_SLOT_MAX == 255
    with pytest.raises(Gf2Error, match="column sums"):
        spread_reducer(256)


# ---------------------------------------------------------
# Graph of multiplication by m: the elimination reference's doubling and
# Toeplitz images (tests/codes.py)
# ---------------------------------------------------------

GRAPH_DEGREES = [2, 3, 4, 5, 8, 31, 62, 63, 64]


def _multipliers(n, stream):
    return 0, 1, (1 << n) - 1, stream.bits(n)


@pytest.mark.parametrize("n", GRAPH_DEGREES)
def test_x_power_multiples_match_field_products(n):
    stream = SeedStream("doubling", n)
    for m in _multipliers(n, stream):
        assert x_power_multiples(m, n) == [mul_int(m, 1 << j, n) for j in range(n)]


def _graph_multiples(m, n):
    return [mul_int(m, 1 << j, n) for j in range(n)]


@pytest.mark.parametrize("n", GRAPH_DEGREES)
def test_graph_images_match_matvec(n):
    # Every row count from 1 to 2n + 30: fewer rows than the basis, as many,
    # and more than the 2n columns.
    stream = SeedStream("graph-images", n)
    for m in _multipliers(n, stream):
        multiples = _graph_multiples(m, n)
        basis = [(1 << j) | (w << n) for j, w in enumerate(multiples)]
        for rows in range(1, 2 * n + 31):
            h = Gf2Matrix(rows, 2 * n, stream.bitvec(rows + 2 * n - 1))
            assert graph_images(h, multiples) == [matvec(h, BitVec(2 * n, b)).v for b in basis], (m, rows)


def test_graph_images_need_a_toeplitz_hash_of_2n_columns():
    with pytest.raises(Gf2Error):
        graph_images(Gf2Matrix(3, 8, BitVec(10, 0)), _graph_multiples(3, 5))


def test_graph_basis_needs_a_hash_of_2n_columns():
    with pytest.raises(Gf2Error, match="2n columns"):
        gf2.graph_basis(Gf2Matrix(3, 9, BitVec(11, 0)), 3)

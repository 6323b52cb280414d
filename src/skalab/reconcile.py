"""One-way information reconciliation.

The sender fingerprints its input with a fresh seeded linear hash; the
receiver searches its candidate set for the unique preimage.  That search
replaces the (uncomputable) search over short programs: for every model in
this package the candidate set *is* the conditional support of the
sender's input, so a fingerprint of k + ceil(log2(1/eps)) bits pins the
true value except with probability eps (union bound).

Decoding reports `unique`, `ambiguous`, or `not_found` explicitly, and
`search_limit` when a coset or a Hamming sphere is too large to search;
sessions count anything but a correct `unique` against their error budget.
A candidate set is a description (`sources.AffineCandidates`,
`sources.HammingSphere`), never a list, and no decode scans one.  A
one-word set (the identical model's, a Hamming sphere of radius 0) is
settled by the hash of its word.  A line-point set is the
graph of multiplication by the receiver's abscissa or slope m, shifted.
Both the graph and the Toeplitz hash are polynomial products, so H on the
graph is a simultaneous Pade problem over GF(2)[z] (Beckermann & Labahn
1994): a lattice of three rows, reduced to weak Popov form once per
(hash, m) by `gf2.graph_basis` and kept on the hash, whose short vectors
are the graph's words and their hashes.  A decode reduces one target by
its rows (`gf2.solve_graph`) in O(rows) shift-XORs, and the kernel
dimension read off the rows separates unique from ambiguous.  A larger
Hamming sphere (the words at distance exactly t from the receiver's) is
decoded by finding the weight-t errors e with H e = fingerprint xor H y,
by the cheaper of two searches, chosen from the shape alone: when the
2^(n - rows) words of the smallest possible solution coset are fewer than
the subsets in the larger half of a meet in the middle on H's column
images, one affine solve and a walk over the coset; else the meet in the
middle.  H is Toeplitz, so a solve (`gf2.solve_affine`, which the tracer
times by this module's name for it) reduces a two-row lattice over
GF(2)[z] by the graph lattice's weak Popov reducer, O(rows + n)
shift-XORs.  One cap of 2^20 words or
subsets bounds whichever runs, and the decode ends `search_limit` only
when both are past it.

Joint decoding (`multi_decode`, omniscience on the collinear triple)
solves each other party's fingerprint for the affine coset of inputs that
match it, kept on the fingerprint's hash by value as its (particular,
kernel), and never filters their product tuple by tuple.  Through the
holder's point P and a word W of the smaller coset passes one line; the
third point lies on it iff one GF(2)-linear form of that point vanishes.
The form's values on the larger coset are its value at one word xor its
values at the kernel vectors, so a decode costs 1 + s field products per word of the smaller
coset and one XOR per word of the product, s the larger coset's kernel
dimension.  The products run on byte-spread operands (`gf2.spread`), each
spread once per decode or once per word of the smaller coset, so a product
is one integer multiply, a mask and a fold by the field polynomial, not a
loop over bits.  The XORs cover the whole product, so a coset of more than
2^14 words ends the decode `search_limit`: 2^28 XORs at most.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import compress, islice
from operator import not_

from .gf2 import BitVec, Gf2Matrix, graph_basis, matvec, solve_affine, solve_graph, spread, spread_reducer
from .sources import HammingSphere, Model

STATUS_UNIQUE = "unique"
STATUS_AMBIGUOUS = "ambiguous"
STATUS_NOT_FOUND = "not_found"
STATUS_SEARCH_LIMIT = "search_limit"


@dataclass(frozen=True)
class Fingerprint:
    """Seeded hash plus value; the reconciliation message for one input.
    The session plan sizes the hash; the value comes off the channel, so
    only its length is checked against the hash.  `fingerprint_coset`'s
    solve is kept on the hash (`Gf2Matrix.cosets`), by value."""

    spec: Gf2Matrix
    value: BitVec

    def __post_init__(self) -> None:
        if self.value.n != self.spec.rows:
            raise ValueError(f"fingerprint length {self.value.n} != hash rows {self.spec.rows}")


class DecodeResult(namedtuple("DecodeResult", "status value candidates_checked")):
    """Outcome of a candidate search; value, present exactly when the
    status is unique, is the packed inputs of the fingerprint senders, party
    1 in the low bits: one input for `decode`, the tuple for `multi_decode`."""

    __slots__ = ()

    def __new__(cls, status: str, value: BitVec | None, candidates_checked: int) -> "DecodeResult":
        if (value is not None) != (status == STATUS_UNIQUE):
            raise ValueError("value present iff status is unique")
        return tuple.__new__(cls, (status, value, candidates_checked))

    _make = classmethod(lambda cls, fields: cls(*fields))  # through __new__, as `gf2.BitVec._make`


def decode(fp: Fingerprint, candidates) -> DecodeResult:
    """Find the candidates matching the fingerprint (unique/ambiguous/none).

    The verdict is order-independent, so no candidate set is scanned: a
    line-point set is settled by reducing one target by the reduced basis of
    its graph lattice, a radius-0 Hamming sphere (the identical model's one
    word) by the hash of its center, and a larger sphere by a walk over the
    solution coset or a meet in the middle on H's column images, whichever
    is smaller (`search_limit` when both are past _SPHERE_CAP_SUBSETS).
    Either search's result is re-hashed as a guard.  candidates_checked
    reports the number of candidates the verdict covered.
    """
    if isinstance(candidates, HammingSphere):
        return _decode_sphere(fp, candidates)
    base, length = candidates.base, candidates.length
    kernel_dim, basis = graph_basis(fp.spec, candidates.multiplier)
    total = 1 << (length // 2)  # not len(): the coset can exceed a machine index
    word = solve_graph(basis, fp.value.v, base)
    if word is None:
        return DecodeResult(STATUS_NOT_FOUND, None, total)
    if kernel_dim:  # a nonzero kernel means >= 2 matches
        return DecodeResult(STATUS_AMBIGUOUS, None, total)
    out = BitVec(length, word)
    _guard(fp, out)
    return DecodeResult(STATUS_UNIQUE, out, total)


def _guard(fp: Fingerprint, out: BitVec) -> None:
    if matvec(fp.spec, out) != fp.value:
        raise AssertionError("structured decode produced a non-matching solution")


# ---------------------------------------------------------------------------
# Low-weight errors by meet in the middle on column images
# ---------------------------------------------------------------------------


def _subset_images(cols: list[int], max_size: int):
    """Yield (support, XOR of its columns) for every subset of at most
    max_size columns, depth first: only the branches still to visit are
    held, at most len(cols) * max_size of them."""
    yield 0, 0
    stack = [(0, 0, 0, max_size)] if max_size else []  # (support, image, first unused column, room)
    while stack:
        sup, img, start, room = stack.pop()
        for j in range(start, len(cols)):
            sub, sub_img = sup | (1 << j), img ^ cols[j]
            yield sub, sub_img
            if room > 1:
                stack.append((sub, sub_img, j + 1, room - 1))


def _error_matches(cols: list[int], target: int, t: int):
    """Yield, once each, every error e of weight <= t whose column images
    XOR to target.

    Birthday split as in information-set decoding (Stern 1989): tabulate
    target xor the image of every subset of at most floor(t/2) columns,
    then probe with the images of the subsets of at most ceil(t/2) columns;
    a disjoint pair that meets is a match.  This costs about
    C(n, floor(t/2)) + C(n, ceil(t/2)) dict operations where a scan of the
    ball costs sum_{w<=t} C(n, w) hashes, and holds only the table.
    """
    table: dict[int, list[int]] = {}
    for sup, img in _subset_images(cols, t // 2):
        table.setdefault(img ^ target, []).append(sup)
    seen = set()
    for sup, img in _subset_images(cols, t - t // 2):
        for other in table.get(img, ()):
            e = other | sup
            if not other & sup and e not in seen:
                seen.add(e)
                yield e


def _verdict(errors, center: BitVec, checked: int) -> DecodeResult:
    """Verdict on center xor error from the first two distinct errors."""
    found = list(islice(errors, 2))
    if not found:
        return DecodeResult(STATUS_NOT_FOUND, None, checked)
    if len(found) > 1:
        return DecodeResult(STATUS_AMBIGUOUS, None, checked)
    return DecodeResult(STATUS_UNIQUE, BitVec(center.n, center.v ^ found[0]), checked)


def _coset_walk(particular: int, kernel: list[int]):
    """Yield every word of particular xor span(kernel), once each, in Gray
    code order: each word is the last one xor a single kernel vector."""
    word = particular
    yield word
    for i in range(1, 1 << len(kernel)):
        word ^= kernel[(i & -i).bit_length() - 1]
        yield word


# One cap on whichever sphere search runs: a walk of at most this many coset
# words, or a meet in the middle whose larger half has at most this many
# subsets; past both the decode ends search_limit.  hamming:n=63,t=8 at
# eps=1/256 tabulates 637,393 subsets (about 140 MB and 1.3 s in CPython
# 3.11); t=9 walks 2^20 words in about 0.2 s, where its table would hold
# 7.7 million subsets, ten times that memory.  The joint search's
# _COSET_CAP_BITS stays separate: it multiplies cosets.
_SPHERE_CAP_SUBSETS = 1 << 20


def _decode_sphere(fp: Fingerprint, sphere: HammingSphere) -> DecodeResult:
    # x = y xor e with H e = fingerprint xor H y and weight(e) exactly t.
    # The solutions of H e = target form a coset of 2^d words, d >= n - rows.
    # Walk it, as information-set decoding does (Prange 1962), when it is
    # smaller than the larger half of the split; else meet in the middle.
    # half is clamped at one past the cap, so neither search runs past it.
    n, t, rows = sphere.length, sphere.t, fp.spec.rows
    center = BitVec(n, sphere.center)
    target = fp.value.v ^ matvec(fp.spec, center).v
    if not t:  # the center alone: its hash settles it, with no search and no guard
        return DecodeResult(STATUS_NOT_FOUND, None, 1) if target else DecodeResult(STATUS_UNIQUE, center, 1)
    half = min(sum(math.comb(n, w) for w in range(t - t // 2 + 1)), _SPHERE_CAP_SUBSETS + 1)
    words = None
    if 1 << max(0, n - rows) < half:
        sol = solve_affine(fp.spec, BitVec(rows, target))
        if sol is None:
            words = ()
        elif 1 << len(sol[1]) < half:  # a rank-deficient H can leave a larger coset
            words = _coset_walk(*sol)
    if words is None:
        if half > _SPHERE_CAP_SUBSETS:
            return DecodeResult(STATUS_SEARCH_LIMIT, None, 0)
        words = _error_matches(fp.spec.column_ints(), target, t)
    errors = (e for e in words if e.bit_count() == t)
    res = _verdict(errors, center, math.comb(n, t))
    if res.status == STATUS_UNIQUE:
        _guard(fp, res.value)
    return res


# ---------------------------------------------------------------------------
# Joint decoding for omniscience
# ---------------------------------------------------------------------------


# Past this many kernel dimensions a fingerprint's coset is not searched.
_COSET_CAP_BITS = 14


def fingerprint_coset(fp: Fingerprint) -> tuple | None:
    """The solutions of H x = fingerprint as `solve_affine`'s (particular,
    kernel tuple); () when there are none, None past _COSET_CAP_BITS kernel
    vectors (degenerate hash seed).  Both other parties of an omniscience
    session solve each fingerprint, and a fixed-seed audit sees each sender
    input many times, but the solve depends only on the hash and the value,
    so it is made once per (hash, value) and kept in the hash's `cosets`."""
    cosets, v = fp.spec.cosets, fp.value.v
    if v not in cosets:
        sol = solve_affine(fp.spec, fp.value)
        if sol is None:
            cosets[v] = ()
        else:
            cosets[v] = None if len(sol[1]) > _COSET_CAP_BITS else (sol[0], tuple(sol[1]))
    return cosets[v]


def _collinear_matches(n: int, own: int, near: tuple, far: tuple):
    """Yield (w, q) for every word w of the coset near and q of the coset
    far, each (particular, kernel) of packed points, such that own, w and q
    are three collinear points with distinct abscissas.

    near is walked by `_coset_walk`, far expanded once by doubling over its
    kernel.  For w off own's abscissa, a point q = (c, d) lies on the line
    through own = (c_o, d_o) and w iff u (c xor c_o) xor v (d xor d_o) = 0
    in GF(2^n), where u = d_w xor d_o and v = c_w xor c_o.  That form is
    GF(2)-linear in q, so its values on far are its value at far's
    particular word xor those at the kernel vectors, doubled as far's words
    are: 1 + s field products and one XOR per word.  A zero on own's
    abscissa is own itself, and one on w's is w itself.

    Products run on byte-spread operands: far's coordinates are spread once
    per decode, u and v once per word of near, so each value is two integer
    multiplies, an XOR and one `spread_reducer` fold.  The table holds
    spread residues, zero iff the form is.
    """
    reduce, mask = spread_reducer(n), (1 << n) - 1
    base, kernel = far
    words = [base]
    for k in kernel:
        words += [q ^ k for q in words]
    c_o, rel = own & mask, base ^ own  # far's particular word relative to own
    c_0, d_0 = spread(rel & mask), spread(rel >> n)
    spread_kernel = [(spread(k & mask), spread(k >> n)) for k in kernel]
    for w in _coset_walk(*near):
        c_w = w & mask
        if c_w == c_o:  # w shares own's abscissa: no line of the model holds both
            continue
        u, v = spread((w ^ own) >> n), spread(c_w ^ c_o)
        # u c xor v d on a packed point, reduced once: reduction is linear
        vals = [reduce(u * c_0 ^ v * d_0)]
        for kc, kd in spread_kernel:
            g = reduce(u * kc ^ v * kd)
            vals += [x ^ g for x in vals]
        for q in compress(words, map(not_, vals)):
            if (q & mask) not in (c_o, c_w):
                yield w, q


def multi_decode(model: Model, own_index: int, own: BitVec, fps) -> DecodeResult:
    """The unique input tuple of a collinear triple consistent with the
    holder's input and every fingerprint, packed with party 1 in the low
    bits: the word the key chain hashes.

    The holder's own fingerprint must match its input, else not_found
    before any other fingerprint is solved.  Each other party's
    fingerprint cuts its input down to a coset (`fingerprint_coset`;
    `search_limit` when one is past the cap).  For each word w of the
    smaller coset, the third point must lie on the line through the
    holder's point and w, one GF(2)-linear condition, evaluated on the
    larger coset by XORs alone (`_collinear_matches`); no tuple of the
    product is checked on its own, and no coset word becomes a BitVec.
    candidates_checked reports the size of the product the verdict covered.
    """
    if model.parties != 3:
        raise ValueError(f"joint decoding needs a collinear triple, got {model.spec_string()}")
    own_fp = fps[own_index - 1]
    if matvec(own_fp.spec, own) != own_fp.value:
        return DecodeResult(STATUS_NOT_FOUND, None, 0)
    cosets = {i: fingerprint_coset(fp) for i, fp in enumerate(fps) if i != own_index - 1}
    if None in cosets.values():
        return DecodeResult(STATUS_SEARCH_LIMIT, None, 0)
    if () in cosets.values():  # an empty coset: no tuple matches
        return DecodeResult(STATUS_NOT_FOUND, None, 0)
    near, far = sorted(cosets, key=lambda i: len(cosets[i][1]))
    total = 1 << (len(cosets[near][1]) + len(cosets[far][1]))
    found = list(islice(_collinear_matches(model.n, own.v, cosets[near], cosets[far]), 2))
    if len(found) != 1:
        return DecodeResult(STATUS_AMBIGUOUS if found else STATUS_NOT_FOUND, None, total)
    words = [own.v] * len(fps)
    words[near], words[far] = found[0]
    for i in cosets:  # own was checked against its fingerprint above
        _guard(fps[i], BitVec(own.n, words[i]))
    packed = sum(w << i * own.n for i, w in enumerate(words))  # disjoint bits: a sum is an OR
    return DecodeResult(STATUS_UNIQUE, BitVec(len(words) * own.n, packed), total)

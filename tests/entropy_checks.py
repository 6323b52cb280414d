"""Test-only entropy tools: exact entropy profiles, the empirical TV
distance from uniform, shared constructions for the exact
entropy-inequality suites, and the linear-algebra secrecy certificate of a
fixed-seed two-party session, for light also by two lattice solves."""

from fractions import Fraction

from skalab.audit import fixed_seeds
from skalab.entropy import JointDistribution, LogExpr
from codes import rank
from skalab.gf2 import BitVec, Gf2Matrix, matvec, solve_affine
from skalab.profiles import ComplexityProfile, all_nonempty_subsets
from skalab.protocols import toeplitz_hashes


def bv(n, v):
    return BitVec(n, v)


def entropy_expr(probs) -> LogExpr:
    """Exact Shannon entropy (bits) of rational point masses, one term pair
    per mass: the per-value reference for ``JointDistribution.entropy_of``."""
    h = LogExpr()
    for p in probs:
        p = Fraction(p)
        if p < 0:
            raise ValueError("negative probability")
        if p == 0:
            continue
        # p * log2(1/p) = p * (log2 den - log2 num)
        h.add_log(p.denominator, p)
        h.add_log(p.numerator, -p)
    return h


def random_joint(ell, stream, max_support=12, bits=3):
    """Random joint distribution with integer weights 1..12."""
    size = 2 + stream.randrange(max_support - 1)
    tuples = set()
    while len(tuples) < size:
        tuples.add(tuple(bv(bits, stream.bits(bits)) for _ in range(ell)))
    weights = [1 + stream.randrange(12) for _ in tuples]
    return JointDistribution.from_weights(ell, zip(sorted(tuples, key=str), weights))


def extend_with(dist, fn, bits):
    """Append a deterministic component fn(inputs) to every atom."""
    return JointDistribution.from_weights(dist.ell + 1, ((t + (bv(bits, fn(t)),), w) for t, w in dist.support))


def h_of(dist, idxs):
    """Entropy of the components with (1-based) indices in idxs."""
    idx = sorted(set(idxs))
    return dist.entropy_of(lambda t: tuple(t[i - 1] for i in idx))


def exact_profile_symbolic(dist):
    """Subset -> LogExpr entropy map (the exact entropy profile)."""
    return {s: h_of(dist, s) for s in all_nonempty_subsets(dist.ell)}


def exact_profile(dist):
    """Shannon-entropy profile of the joint distribution.

    Subsets with exactly-rational entropy (e.g. uniform marginals on a
    power-of-two support) are stored exactly; irrational entropies are
    stored as the nearest double (well inside the documented 1e-12
    equality tolerance for float-backed values).
    """
    values = {}
    for s, expr in exact_profile_symbolic(dist).items():
        values[s] = expr.rat if not expr.terms else Fraction(expr.to_float())
    return ComplexityProfile(dist.ell, values)


def profile_is_polymatroid_exact(dist):
    """Polymatroid axioms decided exactly on the symbolic entropy profile."""
    sym = exact_profile_symbolic(dist)
    sym[frozenset()] = LogExpr()
    subsets = list(sym)
    for a in subsets:
        for b in subsets:
            if a < b and (sym[b] - sym[a]).sign() < 0:
                return False
            gap = sym[a] + sym[b] - sym[a | b] - sym[a & b]
            if gap.sign() < 0:
                return False
    return True


def tv_distance(samples, m):
    """Total-variation distance of the empirical distribution from uniform
    on m-bit strings.  Tabulates all 2^m cells, so m is capped at 24."""
    if m > 24:
        raise ValueError(f"m={m} too large to tabulate (cap 24)")
    counts = [0] * (1 << m)
    total = 0
    for s in samples:
        if s.n != m:
            raise ValueError(f"sample of length {s.n}, want {m}")
        counts[s.v] += 1
        total += 1
    if total == 0:
        raise ValueError("no samples")
    target = total / (1 << m)
    return sum(abs(c - target) for c in counts) / (2 * total)


def check_common_information_bound(dist):
    """H(z) <= H(z|xA) + H(z|xB) + I(xA:xB) with z the third component."""
    h_z = h_of(dist, [3])
    h_za = h_of(dist, [1, 3]) - h_of(dist, [1])
    h_zb = h_of(dist, [2, 3]) - h_of(dist, [2])
    i_ab = h_of(dist, [1]) + h_of(dist, [2]) - h_of(dist, [1, 2])
    return (h_za + h_zb + i_ab - h_z).sign() >= 0


def make_common_information_dist(stream, zbits=2):
    table_dist = random_joint(2, stream)
    table = {t: stream.bits(zbits) for t, _ in table_dist.support}
    return extend_with(table_dist, lambda t: table[t], zbits)


def check_half_sum_bound(dist):
    """2 H(z) <= H(x1) + H(x2) + H(x3) - H(x1,x2,x3), z the 4th component."""
    lhs = h_of(dist, [4]).scaled(2)
    rhs = h_of(dist, [1]) + h_of(dist, [2]) + h_of(dist, [3]) - h_of(dist, [1, 2, 3])
    return (rhs - lhs).sign() >= 0


def make_shared_component_dist(stream, zbits=2):
    """Three parties sharing a common part w; z computable from each."""
    size = 3 + stream.randrange(8)
    atoms = {}
    for _ in range(size):
        w = stream.bits(2)
        t = (
            bv(5, w | (stream.bits(3) << 2)),
            bv(5, w | (stream.bits(3) << 2)),
            bv(5, w | (stream.bits(3) << 2)),
        )
        atoms[t] = atoms.get(t, 0) + 1 + stream.randrange(6)
    base = JointDistribution.from_weights(3, atoms.items())
    table = {w: stream.bits(zbits) for w in range(4)}
    return extend_with(base, lambda t: table[t[0].v & 0b11], zbits)


def check_z_function_of_each(dist, party_count=3, z_index=4):
    for i in range(1, party_count + 1):
        if (h_of(dist, [i, z_index]) - h_of(dist, [i])).sign() != 0:
            return False
    return True


def check_calculation_identity_a(dist):
    """H(w|x)+H(w|y)+I(x:y)-I(x:y|w)-H(w|x,y) = H(w), w the 3rd component."""
    h = lambda ix: h_of(dist, ix)  # noqa: E731
    lhs = (
        (h([1, 3]) - h([1]))
        + (h([2, 3]) - h([2]))
        + (h([1]) + h([2]) - h([1, 2]))
        - (h([1, 3]) + h([2, 3]) - h([1, 2, 3]) - h([3]))
        - (h([1, 2, 3]) - h([1, 2]))
    )
    return (lhs - h([3])).sign() == 0


def check_calculation_identity_b(dist):
    """I(x:y|z,t) = I(x:y|t) - H(z|t) when z is computable from (x,t) and
    from (y,t); components are (x, y, t, z)."""
    h = lambda ix: h_of(dist, ix)  # noqa: E731
    lhs = h([1, 3, 4]) + h([2, 3, 4]) - h([1, 2, 3, 4]) - h([3, 4])
    rhs = (h([1, 3]) + h([2, 3]) - h([1, 2, 3]) - h([3])) - (h([3, 4]) - h([3]))
    return (lhs - rhs).sign() == 0


def make_identity_b_dist(stream):
    """x and y share u; t = f(x,y); z = g(u, t)."""
    size = 3 + stream.randrange(8)
    atoms = {}
    for _ in range(size):
        u = stream.bits(2)
        x = bv(5, u | (stream.bits(3) << 2))
        y = bv(5, u | (stream.bits(3) << 2))
        atoms[(x, y)] = atoms.get((x, y), 0) + 1 + stream.randrange(6)
    base = JointDistribution.from_weights(2, atoms.items())
    t_table = {t: stream.bits(2) for t, _ in base.support}
    with_t = extend_with(base, lambda t: t_table[t], 2)
    z_table = {(u, tv): stream.bits(2) for u in range(4) for tv in range(4)}
    return extend_with(with_t, lambda t: z_table[(t[0].v & 0b11, t[2].v)], 2)


def rectangle_violations_by_scan(ell, t_of):
    """Reference rectangle check: every support point against the box of
    every other transcript, in support order and then box order."""
    boxes = {}
    for inputs, t in t_of.items():
        box = boxes.setdefault(t, [set() for _ in range(ell)])
        for k, comp in enumerate(inputs):
            box[k].add(comp)
    violations = []
    for inputs, t in t_of.items():
        for t2, box in boxes.items():
            if t2 != t and all(comp in box[k] for k, comp in enumerate(inputs)):
                violations.append((inputs, t2))
    return violations


def key_entropy_certificate(config, public_label) -> int:
    """H(Z|T) of a two-party session on the exact audit's fixed seeds, by
    linear algebra alone.  With the seeds fixed, the transcript's only
    input-dependent payload is the fingerprint A x, and the key Z is K x for
    the key chain K; x is uniform over the instances, so given A x = q it is
    uniform on a coset of ker A, and Z uniform on a coset of K(ker A).
    H(Z|T) is therefore the rank of the key chain's images of a basis of
    ker A."""
    plan, seeds = fixed_seeds(config, public_label)
    (fingerprint,), chain = toeplitz_hashes(plan.hash_layout, tuple(r.payload for r in seeds))
    _particular, kernel = solve_affine(fingerprint, BitVec(fingerprint.rows, 0))
    images = []
    for v in kernel:
        z = BitVec(fingerprint.cols, v)
        for h in chain:
            z = matvec(h, z)
        images.append(z.v)
    return rank(images, plan.key_len)


def light_key_entropy_by_two_solves(config, public_label) -> int:
    """`key_entropy_certificate` for light by two lattice solves.  Light
    cuts its fingerprint rows A and key rows K from one seed, at offsets 0
    and fp_rows, so [A; K] is the one Toeplitz matrix H of that seed, and
    H(Z|T) = rank H - rank A = dim ker A - dim ker H."""
    plan, (record,) = fixed_seeds(config, public_label)
    seed = record.payload
    ((fingerprint,), (key_hash,)) = toeplitz_hashes(plan.hash_layout, (seed,))
    h = Gf2Matrix(fingerprint.rows + key_hash.rows, fingerprint.cols, seed)
    if (fingerprint.data, key_hash.data) != (seed.slice(0, fingerprint.data.n), seed.slice(fingerprint.rows, seed.n)):
        raise AssertionError("light's hashes are not the two row blocks of its seed's matrix")
    return len(solve_affine(fingerprint, BitVec(fingerprint.rows, 0))[1]) - len(solve_affine(h, BitVec(h.rows, 0))[1])

"""Shared constructions for the exact entropy-inequality suites."""

from fractions import Fraction

from skalab.entropy import JointDistribution
from skalab.gf2 import BitVec


def bv(n, v):
    return BitVec(n, v)


def random_joint(ell, stream, max_support=12, bits=3):
    """Random joint distribution with exact rational probabilities."""
    size = 2 + stream.randrange(max_support - 1)
    tuples = set()
    while len(tuples) < size:
        tuples.add(tuple(bv(bits, stream.bits(bits)) for _ in range(ell)))
    weights = [1 + stream.randrange(12) for _ in tuples]
    total = sum(weights)
    return JointDistribution.from_atoms(
        ell, ((t, Fraction(w, total)) for t, w in zip(sorted(tuples, key=str), weights))
    )


def extend_with(dist, fn, bits):
    """Append a deterministic component fn(inputs) to every atom."""
    atoms = [((t + (bv(bits, fn(t)),)), p) for t, p in dist.support]
    return JointDistribution.from_atoms(dist.ell + 1, atoms)


def h_of(dist, idxs):
    return dist.subset_entropy(set(idxs))


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
    total = sum(atoms.values())
    base = JointDistribution.from_atoms(
        3, ((t, Fraction(c, total)) for t, c in atoms.items())
    )
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
    total = sum(atoms.values())
    base = JointDistribution.from_atoms(
        2, ((t, Fraction(c, total)) for t, c in atoms.items())
    )
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


def marginal_by_fraction_sums(dist, proj):
    """Reference marginal: Fraction sums in support order."""
    out = {}
    for inputs, p in dist.support:
        key = proj(inputs)
        out[key] = out.get(key, Fraction(0)) + p
    return out

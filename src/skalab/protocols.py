"""Executable secret-key-agreement sessions over the public channel.

All three protocols run on one driver, in three steps:

1. plan       ``session_plan(config)`` sizes the session from the analytic
   profile, once per (model, protocol, eps, margins) and without the seed.
   The plan alone sizes it: each fingerprint gets k + ceil(log2(1/eps))
   rows, k the complexity its message covers, and nothing downstream
   re-checks that count.
   It also lays out every public seed and every hash as plain data, and
   no later step knows the protocol by name.
2. broadcast  ``draw_seeds(plan, public_stream)`` draws the public Toeplitz
   seeds, and ``SessionDriver(plan, seeds).run(inputs)`` records them in
   the one-round transcript, each fingerprint right after the seed its
   hash is cut from.  Audits hold the public seeds fixed, so they draw
   them once and keep one driver.
3. party key  each party recovers the fingerprint senders' inputs from its
   own input and the fingerprints and passes them through the key chain,
   in ``SessionDriver.party_key``, which ``run`` and
   ``party_key_from_transcript`` (the transcript alone) both call.  Given
   the seeds, a fingerprint is a pure function of its sender's input, a
   recovery (its decode and guard) of the party's own input and the
   fingerprints, and a key chain of the recovered word, so a driver
   memoizes each under plain ints: (sender slot, input), (party, own
   input, fingerprint values) and the packed word; below them each hash
   keeps its products (``gf2.matvec``), so a guard's re-hash is a lookup.
   The plan and seeds fix the bit counts, which the driver counts once.

Every hash is a seeded Toeplitz matrix (``gf2.Gf2Matrix``), a universal
family with rows + cols - 1 seed bits (Mansour, Nisan & Tiwari 1990;
Krawczyk 1994).  The key chain is light's key rows of H, or the key-material
hash followed by the extractor: a Toeplitz matrix of m = k -
2*ceil(log2(1/eps)) rows over the material, for min-entropy k and
extractor error eps, from a seed of material_len + m - 1 bits.  The (k, eps)
strong-extractor guarantee is the leftover hash lemma (Hastad, Impagliazzo,
Levin & Luby 1999); the price relative to optimal constructions is only the
longer public seed.

* ``light``      party 1 sends one Toeplitz seed H with C(x|y) +
  ceil(log2(1/eps)) fingerprint rows over the key rows, and the top block
  applied to x; the key is the bottom block applied to x.
* ``two_phase``  a fingerprint sized from the profile, then hashed key
  material and a seeded strong extractor.
* ``omniscience`` three parties fingerprint at the optimal Slepian-Wolf
  rates, jointly decode the tuple, then hash and extract as two_phase.

Every asymptotic O(log(n/eps)) term is pinned to an explicit margin (see
Margins).  The shared tail of a session checks agreement and asserts that
no transcript payload equals a party input, key material, or a key.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .channel import Transcript, TranscriptRecord
from .gf2 import BitVec, Gf2Matrix, matvec, toeplitz_seed_len
from .profiles import ceil_log2, cond, mutual
from .rateregion import co_lp, sw_constraints
from .reconcile import STATUS_UNIQUE, Fingerprint, decode, multi_decode
from .rng import SeedStream
from .sources import Model, sample

LIGHT = "light"
TWO_PHASE = "two_phase"
OMNISCIENCE = "omniscience"
PROTOCOLS = (LIGHT, TWO_PHASE, OMNISCIENCE)


@dataclass(frozen=True)
class Margins:
    """Explicit slack bits standing in for the analysis' O(log(n/eps)) terms.

    k_slack:    added to C(x,y) - C(y) when sizing the reconciliation
                fingerprint (the "+ 4 log n" of the two-phase step 1).
    phase1:     key-material length above the key target (the c' log(n/eps)
                slack of phase 1).
    deficiency: subtracted from the key-material length to get the
                extractor's min-entropy parameter (the residual deficiency
                the extractor must absorb).
    extractor_eps: error bound of the extractor itself, in (0, 1]; None
                means the session eps.  By the leftover hash lemma,
                material of min-entropy k = material_len - deficiency
                yields m = k - 2*ceil(log2(1/extractor_eps)) key bits
                within extractor_eps of uniform given the seed.
    """

    k_slack: int
    phase1: int
    deficiency: int
    extractor_eps: Fraction | None = None

    @staticmethod
    def defaults(n: int, eps) -> "Margins":
        return Margins(
            k_slack=(n**4 - 1).bit_length(),  # ceil(4 log2 n)
            phase1=ceil_log2(n / Fraction(eps)),
            deficiency=2 * ceil_log2(1 / Fraction(eps)),
        )


@dataclass(frozen=True)
class SessionConfig:
    model: Model
    protocol: str
    eps: Fraction
    seed: int
    margins: Margins | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", Fraction(self.eps))
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        two_party = self.model.parties == 2
        if self.protocol == OMNISCIENCE:
            if two_party:
                raise ValueError("omniscience needs a three-party model")
        elif not two_party:
            raise ValueError(f"{self.protocol} needs a two-party model")
        if self.margins is None:
            object.__setattr__(self, "margins", Margins.defaults(self.model.n, self.eps))


SessionOutcome = namedtuple("SessionOutcome", "keys transcript agreed key_len comm_bits target_key_len target_comm decode_status payload_bits")


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionPlan:
    """Seed-independent sizing and layout of one (model, protocol, eps, margins).

    The plan alone sizes a session.  Parties 1..len(fp_rows) send
    fingerprints of fp_rows = k + ceil(log2(1/eps)) rows each, k the
    (rounded) conditional complexity the sender's message must cover; light
    sends 0 rows when nothing needs reconciling.  Every party hashes the
    senders' packed inputs to material_len bits; the extractor, absent for
    light, turns those into the key_len-bit key.  seed_slots lists every
    public seed as (sender, kind, stream labels, bits), in broadcast order.
    hash_layout is (fingerprint hashes, key chain), each hash (rows, cols,
    slot, offset): the Toeplitz matrix whose seed is bits [offset, offset +
    rows + cols - 1) of that slot's payload.  Sender i's fingerprint hash,
    at index i - 1, is cut from slot i - 1, and its fingerprint follows
    that slot's record.  Light cuts both its hashes from its one seed H, at
    offsets 0 and fp_rows; every other hash is a whole slot.
    """

    model: Model
    fp_rows: tuple
    material_len: int
    key_len: int
    target_key_len: Fraction
    target_comm: Fraction
    seed_slots: tuple
    hash_layout: tuple


def session_plan(config: SessionConfig) -> SessionPlan:
    """The config's plan; raises ValueError when the margins leave no key."""
    return _plan(config.model, config.protocol, config.eps, config.margins)


@lru_cache(maxsize=256)
def _plan(model: Model, protocol: str, eps: Fraction, margins: Margins) -> SessionPlan:
    profile = model.profile()
    xlen = model.input_len
    c = ceil_log2(1 / eps)
    ext_eps = eps if margins.extractor_eps is None else Fraction(margins.extractor_eps)
    if not 0 < ext_eps <= 1:
        raise ValueError(f"extractor eps must be in (0, 1], got {ext_eps}")
    if protocol == LIGHT:
        # One seed H: its top k + c rows fingerprint x at k = C(x|y), its
        # other C(x) - k rows hash the key.
        n1 = int(profile.c({1}))
        k = int(cond(profile, {1}, {2}))
        key_rows = n1 - k
        if key_rows < 1:
            raise ValueError("light protocol margins leave no key bits")
        if n1 > xlen:
            raise ValueError("profile claims more complexity than input bits")
        fp_rows = k + c if k else 0
        slots = ((1, "hash_spec", ("light", "H"), toeplitz_seed_len(fp_rows + key_rows, xlen)),)
        layout = ((fp_rows, xlen, 0, 0),), ((key_rows, xlen, 0, fp_rows),)
        return SessionPlan(model, (fp_rows,), key_rows, key_rows, mutual(profile, {1}, {2}), Fraction(fp_rows), slots, layout)
    if protocol == TWO_PHASE:
        # Fingerprint x, which Bob decodes, at C(x|y) = C(x,y) - C(y) +
        # k_slack, then key material at I(x:y) + phase1.
        label = "two_phase"
        k_fp = int(cond(profile, {1}, {2})) + margins.k_slack
        fp_rows = (max(0, min(k_fp, xlen)) + c,)
        fp_kinds = ((1, "fp_spec", (label, "fp")),)
        target_key_len, target_comm = mutual(profile, {1}, {2}), cond(profile, {1}, {2})
        material_len = int(target_key_len) + margins.phase1
    else:
        # Fingerprints at the optimal Slepian-Wolf rates, rounded up, then key
        # material at the key capacity C(x_[3]) - CO + phase1.
        label = "omni"
        target_comm, rates = co_lp(sw_constraints(profile))
        fp_rows = tuple(k + c for k in rates.ceil())
        fp_kinds = tuple((i, "fp_spec", (label, "fp", i)) for i in range(1, len(fp_rows) + 1))
        target_key_len = profile.c(profile.full()) - target_comm
        material_len = int(target_key_len) + margins.phase1  # key capacities here are integral
    if material_len < 1:
        raise ValueError(f"{protocol} margins leave no key material")
    # The extractor: min-entropy k of the material, m = k - 2*ceil(log2(1/eps)).
    k = material_len - margins.deficiency
    if not 0 <= k <= material_len:
        raise ValueError(f"min-entropy {k} outside [0, {material_len}]")
    key_len = k - 2 * ceil_log2(1 / ext_eps)
    if key_len < 1:
        raise ValueError(f"extractor output m = {key_len} < 1 (k={k}, eps={ext_eps})")
    # Each sender's fingerprint seed, then the key-material hash over the
    # senders' packed inputs and the extractor, each hash a whole slot.
    senders = len(fp_rows)
    shapes = tuple((rows, xlen) for rows in fp_rows) + ((material_len, senders * xlen), (key_len, material_len))
    kinds = fp_kinds + ((1, "keymat_spec", (label, "keymat")), (1, "ext_seed", (label, "ext")))
    slots = tuple((*kind, toeplitz_seed_len(*shape)) for kind, shape in zip(kinds, shapes))
    hashes = tuple((*shape, slot, 0) for slot, shape in enumerate(shapes))
    layout = hashes[:senders], hashes[senders:]
    return SessionPlan(model, fp_rows, material_len, key_len, target_key_len, target_comm, slots, layout)


# ---------------------------------------------------------------------------
# Public seeds and hashes
# ---------------------------------------------------------------------------


def draw_seeds(plan: SessionPlan, public: SeedStream) -> tuple:
    """Every public seed of a session as (sender, kind, payload), in
    broadcast order, each drawn from its own child of the public stream."""
    return tuple((sender, kind, public.child(*labels).bitvec(bits)) for sender, kind, labels, bits in plan.seed_slots)


def toeplitz_hashes(layout: tuple, payloads: tuple) -> tuple:
    """(fingerprint hashes, key chain) that a plan's hash_layout cuts from
    a session's seed payloads.  A `SessionDriver` calls it once and holds
    the hashes, with everything later derived from them (`gf2.graph_basis`
    reductions, fingerprints and their cosets), so all of it goes with the
    driver.  Building a hash spreads its seed, so each seed is spread once
    per driver: once per session, and once per audit for all its
    instances."""
    out = []
    for hashes in layout:
        built = []
        for rows, cols, slot, offset in hashes:
            seed, bits = payloads[slot], toeplitz_seed_len(rows, cols)
            if offset or bits != seed.n:  # a window; a whole slot is the payload as it is
                seed = seed.slice(offset, offset + bits)
            built.append(Gf2Matrix(rows, cols, seed))
        out.append(tuple(built))
    return tuple(out)


def _reconcile(plan: SessionPlan, party: int, own: BitVec, fps):
    """(status, packed inputs of every fingerprint sender) as the party
    recovers them: jointly when more than one party sends a fingerprint,
    else party 1 holds the sender's input and the others decode it.  The
    packed value is None unless the status is unique."""
    if len(fps) > 1:
        res = multi_decode(plan.model, party, own, fps)
    elif party == 1:
        return STATUS_UNIQUE, own
    else:
        res = decode(fps[0], plan.model.candidates(own))
    return res.status, res.value


# ---------------------------------------------------------------------------
# Session driver
# ---------------------------------------------------------------------------

_LEAK_CHECK_MIN_BITS = 16


def _forbid_secret_payloads(transcript: Transcript, secrets) -> None:
    # Structural guard against broadcasting a secret verbatim.  Secrets
    # shorter than 16 bits are skipped: at toy sizes a hash value can
    # coincide with an input by chance, which is not a leak.
    guarded = {s for s in secrets if s is not None and s.n >= _LEAK_CHECK_MIN_BITS}
    for rec in transcript.records:
        if rec.payload in guarded:
            raise AssertionError(f"transcript record {rec.kind!r} leaks a secret verbatim")


class SessionDriver:
    """Sessions on one plan and public seeds (from ``draw_seeds``): ``run``
    broadcasts, gives every party its key and runs the shared agreement and
    leak checks.  Step 3's memos live on the driver, and those of its
    hashes (products, graph bases, fingerprint cosets) on them, so all go
    with the driver, which counts the transcript's bits once: the seeds'
    and each fingerprint hash's rows, whether the session agrees or not."""

    def __init__(self, plan: SessionPlan, seeds: tuple) -> None:
        self.plan = plan
        self.fp_hashes, self.chain = toeplitz_hashes(plan.hash_layout, tuple(payload for _sender, _kind, payload in seeds))
        self._seed_records = [TranscriptRecord(1, sender, kind, payload) for sender, kind, payload in seeds]
        self._payload_bits = sum(h.rows for h in self.fp_hashes)
        self._comm_bits = sum(payload.n for _sender, _kind, payload in seeds) + self._payload_bits
        self._fingerprints, self._recovered, self._keys = {}, {}, {}

    def fingerprint(self, slot: int, x: BitVec) -> tuple:
        """(fingerprint, its transcript record) of sender slot + 1's input x."""
        hit = self._fingerprints.get((slot, x.v))
        if hit is None:
            h = self.fp_hashes[slot]
            fp = Fingerprint(h, matvec(h, x))
            hit = self._fingerprints[slot, x.v] = fp, TranscriptRecord(1, slot + 1, "fingerprint", fp.value)
        return hit

    def party_key(self, party: int, own: BitVec, fps):
        """(key, status, key material) of one party from its own input and
        the senders' fingerprints; the material is the chain's first hash
        output, and key and material are None unless the status is unique."""
        view = (party, own.v, tuple(fp.value.v for fp in fps))
        recovered = self._recovered.get(view)
        if recovered is None:
            recovered = self._recovered[view] = _reconcile(self.plan, party, own, fps)
        status, known = recovered
        if status != STATUS_UNIQUE:
            return None, status, None
        chained = self._keys.get(known.v)
        if chained is None:
            key = material = matvec(self.chain[0], known)
            for h in self.chain[1:]:
                key = matvec(h, key)
            chained = self._keys[known.v] = key, STATUS_UNIQUE, material
        return chained

    def run(self, inputs: tuple) -> SessionOutcome:
        records, fps = [], []
        for slot, record in enumerate(self._seed_records):
            records.append(record)
            if slot < len(self.fp_hashes):  # sender slot + 1's fingerprint hash is cut from this slot
                fp, fp_record = self.fingerprint(slot, inputs[slot])
                fps.append(fp)
                records.append(fp_record)
        transcript = Transcript(records)
        keys, statuses, materials = zip(*[self.party_key(i, own, fps) for i, own in enumerate(inputs, start=1)])
        failed = [s for s in statuses if s != STATUS_UNIQUE]
        _forbid_secret_payloads(transcript, (*inputs, *materials, *keys))
        return SessionOutcome(
            keys, transcript, not failed and len(set(keys)) == 1, self.plan.key_len, self._comm_bits,
            self.plan.target_key_len, self.plan.target_comm, failed[0] if failed else STATUS_UNIQUE, self._payload_bits)


def session_streams(config: SessionConfig, trial: int):
    """Per-trial (input, public) sub-streams: inputs and public hash and
    extractor seeds both vary by trial.  The audits hold the public seeds
    fixed and draw them from their own streams (``audit.fixed_seeds``)."""
    master = SeedStream("skalab", config.seed)
    return input_stream(master, trial), master.child("session", trial, "public")


def input_stream(master: SeedStream, trial: int) -> SeedStream:
    """The trial's input sub-stream of the master stream
    ``SeedStream("skalab", config.seed)``."""
    return master.child("session", trial, "input")


def run_session(config: SessionConfig, trial: int) -> SessionOutcome:
    input_stream, public_stream = session_streams(config, trial)
    plan = session_plan(config)
    inputs = sample(config.model, input_stream).inputs
    return SessionDriver(plan, draw_seeds(plan, public_stream)).run(inputs)


def party_key_from_transcript(config: SessionConfig, party: int, own: BitVec, transcript: Transcript):
    """A party's (key, status) from its own input and the transcript alone:
    the hashes that the plan's layout cuts from the seed records (a fresh
    driver's ``toeplitz_hashes``) and the senders' fingerprint records.
    ``run`` feeds ``party_key`` the same objects from its broadcast
    instead.  A seed record of any other length than its plan slot's is a
    ValueError."""
    plan = session_plan(config)
    seeds = []
    for sender, kind, _labels, bits in plan.seed_slots:
        payload = transcript.one(kind, sender).payload
        if payload.n != bits:
            raise ValueError(f"{kind} record of party {sender} has {payload.n} bits, its plan slot {bits}")
        seeds.append((sender, kind, payload))
    driver = SessionDriver(plan, tuple(seeds))
    fps = [Fingerprint(h, transcript.one("fingerprint", i).payload) for i, h in enumerate(driver.fp_hashes, start=1)]
    key, status, _material = driver.party_key(party, own, fps)
    return key, status

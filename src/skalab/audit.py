"""Empirical secrecy and performance audits of protocol sessions.

Secrecy is audited distributionally: Kolmogorov complexity of an
individual key is uncomputable, but over the model's input distribution
the key given the adversary's view should be near-uniform, and for fully
enumerable small-n models the relevant entropy inequalities can be checked
exactly.  The adversary's view is the whole public transcript.  Each audit
draws the public hash and extractor seeds once, from its own fixed stream
(``fixed_seeds``), and tabulates (transcript, key) counts over its input
tuples.  With the seeds fixed a session is a pure function of its input
tuple, so each distinct tuple runs once, and a repeat only adds to its
count.  All tuples share one ``protocols.SessionDriver``, which computes
each fingerprint once per sender input, and each decode and key chain once
per (party, own input, fingerprints): nothing else enters them.  Two
instruments read that table:

* ``conditional_uniformity`` Monte-Carlo: resample inputs each trial; with
  the seeds fixed the transcript varies only through input-dependent
  payloads.  Stratify the key by the whole transcript and judge every
  large enough stratum's TV-from-uniform against the exact mean + 4 sd of
  the TV of as many uniform draws (``tv_moments``); the threshold is
  computed, not sampled, so it needs no seed.
* ``exact_small_n_audit``: enumerate every instance and compute
  I(x:y) - I(x:y|T), H(Z|T) = H(T, Z) - H(T), and the preimage-rectangle
  verification of the transcript map exactly.  Each entropy adds one term
  pair per distinct weight of its values (``JointDistribution.entropy_of``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .entropy import JointDistribution, TranscriptAudit, transcript_inequality_audit
from .protocols import SessionConfig, SessionDriver, SessionPlan, draw_seeds, input_stream, session_plan
from .rng import SeedStream
from .sources import sample

MIN_STRATUM_SAMPLES = 30
Z_PASS = 4.0


@dataclass
class AuditReport:
    trials: int
    agreement_rate: float
    est_tv: float = math.nan
    est_min_entropy: float = math.nan
    leakage_bits: float = 0.0
    passed: bool = False
    inconclusive: bool = False
    key_len: int = 0
    stratum_count: int = 0
    worst_stratum_size: int = 0
    baseline_tv_mean: float = 0.0
    baseline_tv_sd: float = 0.0
    extra: dict = field(default_factory=dict)

    def records(self) -> str:
        """One key=value line per field in order, flags as 0 or 1, then the
        extra keys."""
        fields = {k: v for k, v in vars(self).items() if k != "extra"} | self.extra
        return "".join(f"{k}={int(v) if isinstance(v, bool) else v}\n" for k, v in fields.items())


def empirical_tv(counts: dict, m: int) -> float:
    """TV from uniform on m bits of the empirical distribution of counts."""
    total = sum(counts.values())
    cells = 1 << m
    target = total / cells
    covered = sum(abs(c - target) for c in counts.values())
    missing = (cells - len(counts)) * target
    return (covered + missing) / (2 * total)


def _binom_pmf(n: int, k: int, p: float) -> float:
    """P(Bin(n, p) = k), through log-gamma so that large n does not overflow."""
    if p == 1 or not 0 <= k <= n:
        return float(p == 1 and k == n)
    log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log_comb + k * math.log(p) + (n - k) * math.log1p(-p))


def _distinct_moments(n: int, key_len: int) -> tuple:
    """(E TV, sd TV, E[n - K], sd K) for n <= M = 2^key_len uniform draws on
    M values, where TV = 1 - K/M and K counts the distinct values drawn;
    each is an exact integer over M^n or M^2n, rounded once."""
    cells, scale = 1 << key_len, key_len * n
    missed, missed2 = (cells - 1) ** n, (cells - 2) ** n
    var = cells * (((cells - 1) * missed2 + missed) << scale) - cells * cells * missed * missed
    repeats, sd = ((n - cells) << scale) + cells * missed, math.sqrt(var / (1 << 2 * scale))
    return missed / (1 << scale), math.ldexp(sd, -key_len), repeats / (1 << scale), sd


def tv_moments(n: int, key_len: int) -> tuple:
    """Exact (mean, sd) of the empirical TV from uniform of n uniform draws
    on M = 2^key_len values, key_len >= 1: the pass threshold's calibration.

    With c = n/M and m = floor(c), TV = (1/n) sum over the cells of
    (c - X)^+.  Each count X is Bin(n, 1/M), and given X1 = j, X2 is
    Bin(n - j, 1/(M - 1)).  De Moivre's identity sum_{j<=m} (Np - j) b(j) =
    (1 - p)(m + 1) b(m + 1) turns each partial mean deviation into one pmf
    value and one CDF, so both moments cost O(m) terms (Diaconis and Zabell,
    Statist. Sci. 1991).  For n <= M they come from exact integers.
    """
    cells = 1 << key_len
    if n <= cells:
        return _distinct_moments(n, key_len)[:2]
    p, q, c, m = 1 / cells, 1 / (cells - 1), n / cells, n // cells
    dev = (1 - p) * (m + 1) * _binom_pmf(n, m + 1, p)  # E (c - X1)^+
    dev2 = sum((c - j) ** 2 * _binom_pmf(n, j, p) for j in range(m + 1))
    cdf = sum(_binom_pmf(n, k, q) for k in range(m + 1))  # P(Bin(n - j, q) <= m), j = 0
    cross = 0.0  # E (c - X1)^+ (c - X2)^+
    for j in range(m + 1):
        if j:
            cdf += q * _binom_pmf(n - j, m, q)
        dev_given_j = (c - (n - j) * q) * cdf + (1 - q) * (m + 1) * _binom_pmf(n - j, m + 1, q)
        cross += (c - j) * _binom_pmf(n, j, p) * dev_given_j
    mean = cells * dev / n
    return mean, math.sqrt((cells * dev2 + cells * (cells - 1) * cross) / n**2 - mean**2)


def stratum_score(keys: dict, key_len: int) -> tuple:
    """(z, tv, mean, sd) of one stratum's {key value: count}: its empirical
    TV, the exact mean and sd of the TV of as many uniform draws, and the
    z-score (tv - mean) / sd.  For n <= M both TVs are close to 1, so the
    z-score is taken from the number of repeated key values instead."""
    n = sum(keys.values())
    tv = empirical_tv(keys, key_len)
    if n > 1 << key_len:
        mean, sd = tv_moments(n, key_len)
        return (tv - mean) / sd, tv, mean, sd
    mean, sd, repeats, sd_distinct = _distinct_moments(n, key_len)
    return (n - len(keys) - repeats) / sd_distinct, tv, mean, sd


def worst_stratum(strata: list, key_len: int):
    """(index, stratum_score) of the stratum with the largest z-score among
    those of at least MIN_STRATUM_SAMPLES trials, the first on ties; None
    when no stratum is that large.  The audit passes iff that z-score is at
    most Z_PASS, so every judged stratum meets its own threshold."""
    judged = ((i, stratum_score(keys, key_len)) for i, keys in enumerate(strata) if sum(keys.values()) >= MIN_STRATUM_SAMPLES)
    return max(judged, key=lambda scored: scored[1][0], default=None)


def fixed_seeds(config: SessionConfig, public_label: int | None = None) -> tuple:
    """(plan, public seed records) that an audit holds fixed: the
    Monte-Carlo audit's one draw, or the exact audit's draw for
    public_label."""
    plan = session_plan(config)
    if public_label is None:
        public = SeedStream("skalab", config.seed).child("public", "fixed")
    else:
        public = SeedStream("skalab", config.seed, "exact-audit", public_label).child("public")
    return plan, draw_seeds(plan, public)


def _tabulate(plan: SessionPlan, seeds: tuple, inputs) -> tuple:
    """Run each distinct input tuple once, with its own transcript,
    agreement and leak check, on one driver of the fixed seeds, which
    shares fingerprints, decodes and key chains among the tuples.  Returns
    ({inputs: ((transcript, party 1's key or None), agreed)}, {(transcript,
    key): count} in order of first occurrence, number of sessions that
    agreed).  Both tables key by the session's transcript itself, a tuple
    of named-tuple records that hashes in C.

    With the seeds fixed a session is a pure function of its inputs, so a
    repeated tuple adds its memoized cell and agreement again instead of
    re-running the session.  The first trial to reach a cell is always a
    tuple's first occurrence, so the cell order is the per-trial order."""
    driver = SessionDriver(plan, seeds)
    memo: dict = {}
    counts: dict = {}
    agreed = 0
    for x in inputs:
        hit = memo.get(x)
        if hit is None:
            o = driver.run(x)
            hit = memo[x] = ((o.transcript, o.keys[0]), o.agreed)
        cell, ok = hit
        counts[cell] = counts.get(cell, 0) + 1
        agreed += ok
    return memo, counts, agreed


def conditional_uniformity(config: SessionConfig, trials: int) -> AuditReport:
    """TV of the key from uniform given the transcript, judged per stratum.

    Public seeds are fixed across trials, so only input-dependent payloads
    vary and a stratum is one transcript; a trial without a key for party 1
    joins none, so when no trial gives party 1 a key there is no stratum
    and no verdict.  Every stratum of at least MIN_STRATUM_SAMPLES trials
    must have a TV within Z_PASS sd of the exact mean for its size; the
    threshold is exact and draws no randomness.  The report describes the
    stratum of the largest z-score, indexed in order of first occurrence;
    its leakage_bits counts the fingerprint rows, the only broadcast bits
    that depend on the inputs.
    """
    plan, seeds = fixed_seeds(config)
    master = SeedStream("skalab", config.seed)
    inputs = (sample(config.model, input_stream(master, t)).inputs for t in range(trials))
    _memo, counts, agreed = _tabulate(plan, seeds, inputs)
    by_transcript: dict = {}  # transcript -> {key value: count}
    for (t, key), c in counts.items():
        if key is not None:
            by_transcript.setdefault(t, {})[key.v] = c
    strata = list(by_transcript.values())
    worst = worst_stratum(strata, plan.key_len)
    report = AuditReport(
        trials=trials,
        agreement_rate=agreed / trials,
        leakage_bits=float(sum(plan.fp_rows)),
        inconclusive=worst is None,
        key_len=plan.key_len,
        stratum_count=len(strata),
    )
    if worst is None:
        return report
    index, (z, tv, mean, sd) = worst
    keys = strata[index]
    size = sum(keys.values())
    return replace(
        report, est_tv=tv, est_min_entropy=-math.log2(max(keys.values()) / size), passed=z <= Z_PASS,
        worst_stratum_size=size, baseline_tv_mean=mean, baseline_tv_sd=sd,
        extra={"threshold": mean + Z_PASS * sd, "worst_z": z, "worst_stratum": index},
    )


@dataclass
class ExactAuditResult:
    """Exact entropies for one fixed-seed protocol over the full input space."""

    audit: TranscriptAudit
    h_key_given_view: float
    key_len: int
    instances: int
    agreement_rate: float


_MAX_ENUM_INSTANCES = 1 << 18


def exact_small_n_audit(config: SessionConfig, public_label: int = 0) -> ExactAuditResult:
    """Enumerate every model instance, run the protocol with fixed seeds,
    and audit the exact joint distribution of (inputs, transcript, key)."""
    count = config.model.instance_count()
    if count > _MAX_ENUM_INSTANCES:
        raise ValueError(f"input space of {count} tuples exceeds the cap")
    plan, seeds = fixed_seeds(config, public_label)
    memo, counts, agreed = _tabulate(plan, seeds, config.model.instances())
    if all(key is None for _t, key in counts):
        raise RuntimeError("no instance produced a key for party 1")
    dist = JointDistribution.uniform(config.model.parties, memo)
    cell = lambda inputs: memo[inputs][0]  # (transcript, party 1's key or None)
    return ExactAuditResult(
        audit=transcript_inequality_audit(dist, lambda *inputs: cell(inputs)[0]),
        h_key_given_view=(dist.entropy_of(cell) - dist.entropy_of(lambda inputs: cell(inputs)[0])).to_float(),
        key_len=plan.key_len,
        instances=len(memo),
        agreement_rate=agreed / len(memo),
    )

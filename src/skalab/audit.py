"""Empirical secrecy and performance audits of protocol sessions.

Secrecy is audited distributionally: Kolmogorov complexity of an
individual key is uncomputable, but over the model's input distribution
the key given the adversary's view should be near-uniform, and for fully
enumerable small-n models the relevant entropy inequalities can be checked
exactly.  The adversary's view is the whole public transcript.  Each audit
draws the public hash and extractor seeds once, from its own fixed stream
(``fixed_seeds``), and tabulates (transcript, key) counts over its input
tuples.  With the seeds fixed a session is a pure function of its input
tuple, so each distinct tuple runs once and a repeat only adds to its
count.  Two instruments read that table:

* ``conditional_uniformity`` Monte-Carlo: resample inputs each trial; with
  the seeds fixed the transcript varies only through input-dependent
  payloads.  Stratify the key by the whole transcript and compare the
  worst stratum's TV-from-uniform against a calibrated sampling-noise
  baseline.
* ``exact_small_n_audit``: enumerate every instance and compute
  I(x:y) - I(x:y|T), H(Z|T), and the preimage-rectangle verification of
  the transcript map exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .entropy import (
    JointDistribution,
    TranscriptAudit,
    conditional_entropy_bits,
    transcript_inequality_audit,
)
from .protocols import SessionConfig, SessionPlan, draw_seeds, execute, input_stream, session_plan
from .rng import SeedStream
from .sources import enumerate_instances, instance_count, sample

MIN_STRATUM_SAMPLES = 30


@dataclass
class AuditReport:
    trials: int
    agreement_rate: float
    est_tv: float
    est_min_entropy: float
    leakage_bits: float
    passed: bool
    inconclusive: bool = False
    key_len: int = 0
    stratum_count: int = 0
    worst_stratum_size: int = 0
    baseline_tv_mean: float = 0.0
    baseline_tv_sd: float = 0.0
    extra: dict = field(default_factory=dict)

    def records(self) -> str:
        fields = {
            "trials": self.trials,
            "agreement_rate": self.agreement_rate,
            "est_tv": self.est_tv,
            "est_min_entropy": self.est_min_entropy,
            "leakage_bits": self.leakage_bits,
            "passed": int(self.passed),
            "inconclusive": int(self.inconclusive),
            "key_len": self.key_len,
            "stratum_count": self.stratum_count,
            "worst_stratum_size": self.worst_stratum_size,
            "baseline_tv_mean": self.baseline_tv_mean,
            "baseline_tv_sd": self.baseline_tv_sd,
            **self.extra,
        }
        return "\n".join(f"{k}={v}" for k, v in fields.items()) + "\n"


def empirical_tv(counts: dict, m: int) -> float:
    """TV from uniform on m bits of the empirical distribution of counts."""
    total = sum(counts.values())
    cells = 1 << m
    target = total / cells
    covered = sum(abs(c - target) for c in counts.values())
    missing = (cells - len(counts)) * target
    return (covered + missing) / (2 * total)


def uniform_tv_baseline(n_samples: int, m: int, stream: SeedStream, reps: int = 200):
    """Sampling distribution (mean, sd) of empirical TV when the key truly
    is uniform on m bits: the calibration oracle for the pass threshold."""
    cells = 1 << m
    rng = np.random.default_rng(stream.bits(64))
    draws = rng.multinomial(n_samples, np.full(cells, 1.0 / cells), size=reps)
    tv = np.abs(draws - n_samples / cells).sum(axis=1) / (2.0 * n_samples)
    return float(tv.mean()), float(tv.std())


def fixed_seeds(config: SessionConfig, public_label: int | None = None) -> tuple:
    """(plan, public seeds) that an audit holds fixed: the Monte-Carlo
    audit's one draw, or the exact audit's draw for public_label."""
    plan = session_plan(config)
    if public_label is None:
        public = SeedStream("skalab", config.seed).child("public", "fixed")
    else:
        public = SeedStream("skalab", config.seed, "exact-audit", public_label).child("public")
    return plan, draw_seeds(plan, public)


def _tabulate(plan: SessionPlan, seeds: tuple, inputs) -> tuple:
    """Run each distinct input tuple once on the fixed seeds.  Returns
    ({inputs: ((transcript, party 1's key or None), agreed)}, {(transcript,
    key): count} in order of first occurrence, number of sessions that
    agreed); a transcript is its records' (kind, bits, value) triples.

    With the seeds fixed a session is a pure function of its inputs, so a
    repeated tuple adds its memoized cell and agreement again instead of
    re-running the session.  The first trial to reach a cell is always a
    tuple's first occurrence, so the cell order is the per-trial order."""
    memo: dict = {}
    counts: dict = {}
    agreed = 0
    for x in inputs:
        hit = memo.get(x)
        if hit is None:
            o = execute(plan, x, seeds)
            t = tuple((r.kind, r.payload.n, r.payload.v) for r in o.transcript.records)
            hit = memo[x] = ((t, o.keys[0]), o.agreed)
        cell, ok = hit
        counts[cell] = counts.get(cell, 0) + 1
        agreed += ok
    return memo, counts, agreed


def conditional_uniformity(config: SessionConfig, trials: int) -> AuditReport:
    """Worst-stratum TV of the key given the transcript.

    Public seeds are fixed across trials, so only input-dependent payloads
    vary and a stratum is one transcript; a trial without a key for party 1
    joins none.  The pass threshold is the uniform-sampling baseline mean +
    4 sd.
    """
    plan, seeds = fixed_seeds(config)
    master = SeedStream("skalab", config.seed)
    inputs = (sample(config.model, input_stream(master, t)).inputs for t in range(trials))
    _memo, counts, agreed = _tabulate(plan, seeds, inputs)
    strata: dict = {}  # transcript -> {key value: count}
    for (t, key), c in counts.items():
        if key is not None:
            strata.setdefault(t, {})[key.v] = c
    if not strata:
        raise RuntimeError("no session produced a key")
    big = [keys for keys in strata.values() if sum(keys.values()) >= MIN_STRATUM_SAMPLES]
    report = AuditReport(
        trials=trials,
        agreement_rate=agreed / trials,
        est_tv=float("nan"),
        est_min_entropy=float("nan"),
        leakage_bits=sum(c * sum(bits for _kind, bits, _v in t) for (t, _key), c in counts.items()) / trials,
        passed=False,
        inconclusive=not big,
        key_len=plan.key_len,
        stratum_count=len(strata),
    )
    if not big:
        return report
    tvs = [(empirical_tv(keys, plan.key_len), keys) for keys in big]
    worst_tv, worst = max(tvs, key=lambda tv_keys: tv_keys[0])  # the first of largest TV
    size = sum(worst.values())
    base_mean, base_sd = uniform_tv_baseline(size, plan.key_len, SeedStream("skalab", config.seed, "tv-baseline"))
    threshold = base_mean + 4.0 * base_sd
    return replace(
        report,
        est_tv=worst_tv,
        est_min_entropy=-math.log2(max(worst.values()) / size),
        passed=worst_tv <= threshold,
        worst_stratum_size=size,
        baseline_tv_mean=base_mean,
        baseline_tv_sd=base_sd,
        extra={"threshold": threshold},
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
    count = instance_count(config.model)
    if count > _MAX_ENUM_INSTANCES:
        raise ValueError(f"input space of {count} tuples exceeds the cap")
    plan, seeds = fixed_seeds(config, public_label)
    memo, counts, agreed = _tabulate(plan, seeds, enumerate_instances(config.model))
    if all(key is None for _t, key in counts):
        raise RuntimeError("no instance produced a key for party 1")
    dist = JointDistribution.uniform(config.model.parties, memo)
    return ExactAuditResult(
        audit=transcript_inequality_audit(dist, lambda *inputs: memo[inputs][0][0]),
        h_key_given_view=conditional_entropy_bits(counts),
        key_len=plan.key_len,
        instances=len(memo),
        agreement_rate=agreed / len(memo),
    )

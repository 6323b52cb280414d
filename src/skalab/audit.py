"""Empirical secrecy and performance audits of protocol sessions.

Secrecy is audited distributionally: Kolmogorov complexity of an
individual key is uncomputable, but over the model's input distribution
the key given the adversary's view should be near-uniform, and for fully
enumerable small-n models the relevant entropy inequalities can be checked
exactly.  Two instruments:

* ``conditional_uniformity`` Monte-Carlo: resample inputs each trial with
  all public hash/extractor seeds held fixed, so the adversary's view
  varies only through input-dependent payloads; stratify the key by those
  payloads and compare the worst stratum's TV-from-uniform against a
  calibrated sampling-noise baseline.
* ``exact_small_n_audit``: enumerate every instance, run the protocol
  deterministically, and compute I(x:y) - I(x:y|T), H(Z|T), and the
  preimage-rectangle verification of the transcript map exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import Transcript
from .entropy import (
    JointDistribution,
    TranscriptAudit,
    conditional_entropy_bits,
    transcript_inequality_audit,
)
from .protocols import SessionConfig, draw_seeds, execute, session_plan, session_streams
from .rng import SeedStream
from .sources import enumerate_instances, instance_count, sample

MIN_STRATUM_SAMPLES = 30


@dataclass(frozen=True)
class AdversaryView:
    """Exactly the public-channel content; nothing from private state."""

    transcript: Transcript

    def stratum_key(self, varying: tuple) -> tuple:
        recs = self.transcript.records
        return tuple((recs[i].payload.n, recs[i].payload.v) for i in varying)


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


def min_entropy_estimate(samples) -> float:
    """-log2 of the largest empirical frequency (small-sample caveat: this
    is an underestimate of the true min-entropy for few samples)."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    counts: dict = {}
    for s in samples:
        counts[s.v] = counts.get(s.v, 0) + 1
    return -math.log2(max(counts.values()) / len(samples))


def empirical_tv(counts: dict, m: int, total: int) -> float:
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


def conditional_uniformity(
    config: SessionConfig,
    trials: int,
    session_fn=None,
    tv_slack: float = 0.0,
) -> AuditReport:
    """Worst-stratum TV of the key given the input-dependent public view.

    Public seeds are fixed across trials, so only input-dependent payloads
    vary; the stratum of a trial is the tuple of those payloads.  The pass
    threshold is the uniform-sampling baseline mean + 4 sd (+ slack for
    protocols with a genuine extractor error).
    """
    if session_fn is None:
        # The seeds are the same for every trial, so they are drawn once.
        plan = session_plan(config)
        seeds = draw_seeds(plan, session_streams(config, 0, fresh_public_seeds=False)[1])
        outcomes = [
            execute(plan, sample(config.model, session_streams(config, t)[0]).inputs, seeds) for t in range(trials)
        ]
    else:
        outcomes = [session_fn(config, t, False) for t in range(trials)]
    agreed = sum(1 for o in outcomes if o.agreed)
    keyed = [o for o in outcomes if o.keys[0] is not None]
    if not keyed:
        raise RuntimeError("no session produced a key")
    m = keyed[0].keys[0].n

    # Transcript positions whose payloads vary across trials: with seeds
    # fixed these are exactly the input-dependent records (normally the
    # fingerprints).  Anything else varying would itself be a leak, and
    # automatically joins the stratification.
    n_records = len(keyed[0].transcript.records)
    seen = [set() for _ in range(n_records)]
    for o in keyed:
        if len(o.transcript.records) != n_records:
            raise RuntimeError("transcript shape varies across trials")
        for i, rec in enumerate(o.transcript.records):
            seen[i].add((rec.payload.n, rec.payload.v))
    varying = tuple(i for i in range(n_records) if len(seen[i]) > 1)

    strata: dict = {}
    for o in keyed:
        key = AdversaryView(o.transcript).stratum_key(varying)
        strata.setdefault(key, []).append(o.keys[0])
    big = {k: v for k, v in strata.items() if len(v) >= MIN_STRATUM_SAMPLES}
    leakage = sum(o.comm_bits for o in outcomes) / len(outcomes)

    if not big:
        return AuditReport(
            trials=trials,
            agreement_rate=agreed / trials,
            est_tv=float("nan"),
            est_min_entropy=float("nan"),
            leakage_bits=leakage,
            passed=False,
            inconclusive=True,
            key_len=m,
            stratum_count=len(strata),
        )

    worst_tv = -1.0
    worst_keys = None
    for keys in big.values():
        counts: dict = {}
        for k in keys:
            counts[k.v] = counts.get(k.v, 0) + 1
        tv = empirical_tv(counts, m, len(keys))
        if tv > worst_tv:
            worst_tv = tv
            worst_keys = keys
    base_mean, base_sd = uniform_tv_baseline(
        len(worst_keys), m, SeedStream("skalab", config.seed, "tv-baseline")
    )
    threshold = base_mean + 4.0 * base_sd + tv_slack
    return AuditReport(
        trials=trials,
        agreement_rate=agreed / trials,
        est_tv=worst_tv,
        est_min_entropy=min_entropy_estimate(worst_keys),
        leakage_bits=leakage,
        passed=worst_tv <= threshold,
        key_len=m,
        stratum_count=len(strata),
        worst_stratum_size=len(worst_keys),
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
    instances = list(enumerate_instances(config.model))
    plan = session_plan(config)
    seeds = draw_seeds(plan, SeedStream("skalab", config.seed, "exact-audit", public_label).child("public"))
    # Keep only what the audit reads of each instance.
    t_index: dict = {}
    counts: dict = {}
    agreed = 0
    for inputs in instances:
        o = execute(plan, inputs, seeds)
        t = t_index[inputs] = _hashable_transcript(o.transcript)
        key = o.keys[0]
        cell = (t, (key.n, key.v) if key is not None else ("fail",))
        counts[cell] = counts.get(cell, 0) + 1
        agreed += o.agreed
    if all(kv == ("fail",) for _t, kv in counts):
        raise RuntimeError("no instance produced a key for party 1")

    dist = JointDistribution.uniform(config.model.parties, instances)
    audit = transcript_inequality_audit(dist, lambda *inputs: t_index[inputs])
    return ExactAuditResult(
        audit=audit,
        h_key_given_view=conditional_entropy_bits(counts),
        key_len=plan.key_len,
        instances=len(instances),
        agreement_rate=agreed / len(instances),
    )


def _hashable_transcript(t: Transcript) -> tuple:
    return tuple((r.kind, r.payload.n, r.payload.v) for r in t.records)

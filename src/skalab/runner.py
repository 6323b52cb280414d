"""Sweeps of sessions, formatted as per-trial CSV text and summaries.

Outputs are bit-for-bit reproducible from the configs: all session
randomness derives from named sub-streams of each config's seed, and rows
come in deterministic order.  Nothing here writes a file; the command line
does.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from fractions import Fraction

from .protocols import SessionConfig, run_session, session_plan
from .sources import make_model, parse_model_spec

TRIAL_COLUMNS = (
    "trial",
    "agreed",
    "key_len",
    "comm_bits",
    "target_key_len",
    "target_comm",
    "decode_status",
)


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def sweep_configs(
    model_spec: str,
    ns,
    ts,
    eps_list,
    protocol: str,
    seed: int,
    margins=None,
) -> list:
    """Cross product of the sweep axes as session configs; an axis left
    empty keeps the spec's value.  margins(n, eps), when given, sizes each
    config's margins, or leaves the defaults by returning None."""
    base = parse_model_spec(model_spec)
    configs = []
    for n in ns or [base.n]:
        for t in ts or [None]:
            axes = {"n": n} if t is None else {"n": n, "t": t}
            model = make_model(base.name, base.params() | axes)  # rejects a t on a model that takes none
            for eps in map(Fraction, eps_list):
                configs.append(SessionConfig(model, protocol, eps, seed, margins and margins(n, eps)))
    return configs


def summarize(config: SessionConfig, outcomes) -> dict:
    """One config's summary; decode_statuses counts each session's decode
    status in order of first appearance, e.g. unique:18,search_limit:2.
    The key length, bit counts and targets are the plan's; the bit counts
    read 0.0 when no session ran."""
    n = len(outcomes)
    plan = session_plan(config)
    agreed = sum(1 for o in outcomes if o.agreed)
    return {
        "model": config.model.spec_string(),
        "protocol": config.protocol,
        "eps": _fmt(config.eps),
        "trials": n,
        "agreement_rate": agreed / n if n else 0.0,
        "key_len": plan.key_len,
        "target_key_len": _fmt(plan.target_key_len),
        "mean_comm_bits": float(plan.comm_bits) if n else 0.0,
        "mean_payload_bits": float(sum(plan.fp_rows)) if n else 0.0,
        "target_comm": _fmt(plan.target_comm),
        "decode_statuses": ",".join(f"{s}:{c}" for s, c in Counter(o.decode_status for o in outcomes).items()),
    }


def trial_rows(outcomes, config: SessionConfig):
    """One CSV row per session outcome, led by the config's model,
    protocol and eps; the targets are the plan's."""
    plan = session_plan(config)
    lead = {"model": config.model.spec_string(), "protocol": config.protocol, "eps": _fmt(config.eps)}
    for t, o in enumerate(outcomes):
        yield {
            **lead,
            "trial": t,
            "agreed": _fmt(o.agreed),
            "key_len": o.key_len,
            "comm_bits": o.comm_bits,
            "target_key_len": _fmt(plan.target_key_len),
            "target_comm": _fmt(plan.target_comm),
            "decode_status": o.decode_status,
        }


def run_plan(configs, trials: int) -> dict:
    """Run trials sessions of each config; returns {"csv": str, "summaries":
    [dict]}.  With more than one config each row leads with its config;
    a single config's rows leave those columns out."""
    columns = (("model", "protocol", "eps") if len(configs) > 1 else ()) + TRIAL_COLUMNS
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    summaries = []
    for config in configs:
        outcomes = [run_session(config, t) for t in range(trials)]
        writer.writerows(trial_rows(outcomes, config))
        summaries.append(summarize(config, outcomes))
    return {"csv": buf.getvalue(), "summaries": summaries}

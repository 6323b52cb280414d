"""Span tracer for the benchmark's traced run.

`install` replaces module (and class) attributes at their call sites with
timing wrappers, e.g. `skalab.protocols.decode` and
`skalab.reconcile.hash_bits`, so that every span opens and closes at a layer
boundary.  Nothing inside a layer is wrapped: no span surrounds `mul_int` or
`field_mul`.  A call site that a later version of the program renamed or
removed is skipped, and the metrics fed by it read zero.

Each span holds its id, its parent's id, the unit (session or audit) it
belongs to, its name and its start and end in ns.  A span's self time is its
duration minus the time its child spans cover; its layer is the part of its
name before the first dot.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

GENERATOR = "generator"


class Tracer:
    def __init__(self, span_cap: int) -> None:
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.unit = 0
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()  # outermost spans of each name only
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_id]
        self._open: Counter = Counter()
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._open[name] += 1
        self._stack.append([name, time.perf_counter_ns(), 0, self._next_id])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, span_id = self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if not self._open[name]:
            self.incl_ns[name] += duration
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent_id, self.unit, name, start, end))
        else:
            self.dropped += 1

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".", 1)[0] == layer)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent_id, unit, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent_id, "unit": unit, "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


# Counters kept at the same boundaries.  Each hook runs after its span has
# closed and reads only the call's arguments and result.


def _hash(t: Tracer, args, out) -> None:
    t.counts["hashext.hash_calls"] += 1
    t.counts["hashext.bit_ops"] += args[0].rows * args[0].cols


def _extract(t: Tracer, args, out) -> None:
    spec = args[1]
    t.counts["hashext.bit_ops"] += spec.output_len * spec.input_len


def _bits(t: Tracer, args, out) -> None:
    t.counts["rng.bits_drawn"] += args[1]


def _candidates(t: Tracer, args, out) -> None:
    log2_size = getattr(out, "log2_size", None)
    if log2_size is not None:
        t.counts["sources.candidate_sets"] += 1
        t.counts["sources.candidate_log2_sum"] += log2_size()


def _consistency(t: Tracer, args, out) -> None:
    t.counts["sources.consistency_checks"] += 1


def _joint_tuple(t: Tracer, args, out) -> None:
    t.counts["sources.consistency_checks"] += 1
    t.counts["reconcile.joint_tuples_tested"] += 1


def _joint_kept(t: Tracer, args, out) -> None:
    if out is not None:
        t.counts["reconcile.joint_tuples_kept"] += len(out)


def _decode_status(t: Tracer, args, out) -> None:
    if getattr(out, "status", "unique") != "unique":
        t.counts["reconcile.non_unique"] += 1


def _scan(t: Tracer, args, out) -> None:
    t.counts["reconcile.scan_checked"] += getattr(out, "candidates_checked", 0)


def _solve(t: Tracer, args, out) -> None:
    t.counts["gf2.solve_calls"] += 1
    if out is not None:
        t.counts["gf2.solutions"] += 1
        t.counts["gf2.kernel_dim_sum"] += len(out[1])
    if t.parent_name() == "reconcile.decode":
        t.counts["reconcile.affine_solves"] += 1


def _lp(t: Tracer, args, out) -> None:
    t.counts["rateregion.lp_calls"] += 1


def _dimensions(t: Tracer, args, out) -> None:
    t.counts["protocols.dimension_calls"] += 1


# (module, attribute at the call site, span names from outer to inner, hook)
CALL_SITES = (
    ("skalab.protocols", "sample", ("sources.sample",), None),
    ("skalab.protocols", "enumerate_candidates", ("sources.candidates",), _candidates),
    ("skalab.sources", "is_consistent", ("sources.consistency",), _consistency),
    ("skalab.reconcile", "is_consistent", ("sources.consistency",), _joint_tuple),
    ("skalab.protocols", "encode", ("reconcile.encode",), None),
    ("skalab.protocols", "decode", ("reconcile.decode",), _decode_status),
    ("skalab.reconcile", "decode_scan", ("reconcile.scan",), _scan),
    ("skalab.protocols", "joint_candidates", ("reconcile.joint",), _joint_kept),
    ("skalab.reconcile", "fingerprint_solutions", ("reconcile.joint",), None),
    ("skalab.protocols", "multi_decode", ("reconcile.multi_decode",), _decode_status),
    ("skalab.protocols", "hash_bits", ("hashext.hash",), _hash),
    ("skalab.protocols", "matvec", ("hashext.hash",), _hash),
    ("skalab.reconcile", "hash_bits", ("hashext.hash",), _hash),
    ("skalab.protocols", "fresh_toeplitz", ("hashext.seed",), None),
    ("skalab.reconcile", "fresh_toeplitz", ("hashext.seed",), None),
    ("skalab.protocols", "extract", ("hashext.extract",), _extract),
    ("skalab.reconcile", "solve_affine", ("gf2.solve",), _solve),
    ("skalab.protocols", "sw_constraints", ("rateregion.sw",), None),
    ("skalab.protocols", "co_lp", ("rateregion.lp",), _lp),
    ("skalab.protocols", "light_dimensions", ("protocols.dimensions",), _dimensions),
    ("skalab.protocols", "two_phase_dimensions", ("protocols.dimensions",), _dimensions),
    ("skalab.protocols", "omniscience_dimensions", ("protocols.dimensions",), _dimensions),
    # The exact audit reaches the protocol runners through these names.
    ("skalab.protocols", "run_light", ("protocols.session",), None),
    ("skalab.protocols", "run_two_phase", ("protocols.session",), None),
    ("skalab.protocols", "run_omniscience", ("protocols.session",), None),
    ("skalab.rng", "SeedStream.__init__", ("rng.stream",), None),
    ("skalab.rng", "SeedStream.child", ("rng.stream",), None),
    ("skalab.rng", "SeedStream.bits", ("rng.bits",), _bits),
    ("skalab.channel", "Channel.broadcast", ("channel.broadcast",), None),
    ("skalab.channel", "Channel.close", ("channel.close",), None),
    ("skalab.channel", "Transcript.one", ("channel.read",), None),
    ("skalab.audit", "run_session", ("audit.run", "protocols.session"), None),
    ("skalab.audit", "_run_on_inputs", ("audit.run",), None),
    ("skalab.audit", "enumerate_instances", ("audit.enumerate",), GENERATOR),
    ("skalab.audit", "uniform_tv_baseline", ("audit.baseline",), None),
    ("skalab.audit", "transcript_inequality_audit", ("entropy.inequality",), None),
    ("skalab.audit", "conditional_entropy_bits", ("entropy.cond_entropy",), None),
    ("skalab.entropy", "JointDistribution.uniform", ("entropy.distribution",), None),
)


def _span(tracer: Tracer, name: str, fn, hook):
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_()
        if hook is not None:
            hook(tracer, args, out)
        return out

    return wrapper


def _generator_spans(tracer: Tracer, name: str, fn):
    """One span per item drawn, so the generator's own work is charged to it
    and not to whoever iterates it."""

    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item

    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every call site that exists; returns what `uninstall` restores."""
    undo = []
    for module_name, attribute, names, hook in CALL_SITES:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, leaf):
            continue
        raw = inspect.getattr_static(owner, leaf)
        fn = raw.__func__ if isinstance(raw, staticmethod) else getattr(owner, leaf)
        if hook is GENERATOR:
            fn = _generator_spans(tracer, names[-1], fn)
        else:
            fn = _span(tracer, names[-1], fn, hook)
        for name in reversed(names[:-1]):
            fn = _span(tracer, name, fn, None)
        setattr(owner, leaf, staticmethod(fn) if isinstance(raw, staticmethod) else fn)
        undo.append((owner, leaf, raw))
    return undo


def uninstall(undo: list) -> None:
    for owner, leaf, raw in reversed(undo):
        setattr(owner, leaf, raw)

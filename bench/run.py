"""skalab benchmark: seeded closed-loop workloads, end-to-end metrics and a
traced per-layer split.

    python3 bench/run.py --workload pair-affine --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one process each

Run it from the repository root or anywhere else: it imports the program
from the `src` directory next to its own.  The last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the lines before it are a readable report.  With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones from a
separate traced phase.  Each run also writes its full result, and with
`--trace 1` the per-layer table and the span file, under `bench/out/`.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

# One thread per workload: the numeric libraries must not start a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from reference import Speedometer  # noqa: E402  (imports nothing from skalab)

SETUP_REPEATS = 5
SPAN_CAP = 50_000


@dataclass(slots=True)
class Unit:
    cell: int
    pass_index: int
    start_ns: int
    end_ns: int
    ns: int  # end_ns - start_ns less the reference measurements taken meanwhile
    failure: str | None
    result: object  # the unit's return value or exception; None once dropped
    scaled_ns: float = 0.0  # ns at the reference host speed


def import_program() -> None:
    """Import skalab from this checkout."""
    if not (SRC / "skalab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no skalab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skalab.audit  # noqa: F401
    import skalab.runner  # noqa: F401

    if not Path(skalab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported skalab from {skalab.__file__}, not from {SRC}")


# Run in a fresh interpreter: prints the seconds that importing skalab takes.
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import skalab.audit, skalab.runner; print(time.perf_counter() - start)"
)


def import_seconds(speed: Speedometer) -> float:
    """Scaled seconds that a fresh interpreter takes to import skalab.  One
    in-process import is a single sample that varied by 1.5x from run to run;
    this is measured in a child process, so it can be repeated."""
    speed.sample()
    start = time.perf_counter_ns()
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], stdout=subprocess.PIPE, text=True, check=True
    )
    end = time.perf_counter_ns()
    speed.sample()
    return float(probe.stdout) * speed.scale(start, end)


def scaled_seconds(speed: Speedometer, fn) -> tuple:
    """Run fn between two reference measurements; (result, scaled seconds)."""
    speed.sample()
    start = time.perf_counter_ns()
    result = fn()
    end = time.perf_counter_ns()
    speed.sample()
    return result, (end - start) * speed.scale(start, end) / 1e9


def clear_program_caches() -> None:
    """Empty every functools cache in skalab, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "skalab" or name.startswith("skalab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def warm_up(workload, seed: int):
    """Config construction and one untimed session per cell (audit cells run
    one session of their config, which fills the same caches), on the fixed
    WARMUP_SEED.  A warm-up session that raises leaves None; the timed units
    count such failures."""
    from skalab.protocols import run_session
    from workloads import WARMUP_SEED, WARMUP_TRIAL

    cells = workload.cells(seed)
    outcomes = []
    for cell in cells:
        try:
            outcomes.append(run_session(replace(cell.config, seed=WARMUP_SEED), WARMUP_TRIAL))
        except Exception:  # noqa: BLE001 - counted when the timed units raise too
            outcomes.append(None)
    return cells, outcomes


def set_up(workload, seed: int, speed: Speedometer):
    """Returns (cells, warm-up outcomes, scaled seconds per set-up repeat)."""
    times = []
    for _ in range(SETUP_REPEATS):
        clear_program_caches()
        (cells, warm), seconds = scaled_seconds(speed, lambda: warm_up(workload, seed))
        times.append(seconds)
    return cells, warm, times


def failure_of(cell, result) -> str | None:
    if cell.kind == "session" and not result.agreed:
        return f"{cell.label}: status {result.decode_status}"
    return None


ROOT_SPANS = {"session": "protocols.session", "exact": "audit.exact", "mc": "audit.mc"}


def run_unit(cell, index: int, p: int, speed: Speedometer, tracer=None) -> Unit:
    if tracer is not None:
        tracer.unit += 1
        tracer.enter(ROOT_SPANS[cell.kind])
    paused = speed.paused_ns
    start = time.perf_counter_ns()
    try:
        result = cell.run(p)
        failure = failure_of(cell, result)
    except Exception as exc:  # a unit that raises is counted, not fatal
        result = exc
        failure = f"{cell.label}: raised {type(exc).__name__}"
    end = time.perf_counter_ns()
    if tracer is not None:
        tracer.exit()
    return Unit(index, p, start, end, end - start - (speed.paused_ns - paused), failure, result)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(cells, first_pass: int, seconds: float, keep, speed: Speedometer, tracer=None, after_pass=None):
    """Closed loop: whole passes over the cells until `seconds` have elapsed
    (at least one pass), with the host-speed reference ticking; after_pass(p)
    is called when pass p ends.  Returns (units, next pass)."""
    units = []
    p = first_pass
    start = time.perf_counter()
    speed.sample()
    speed.start_ticking()
    try:
        while True:
            for i, cell in enumerate(cells):
                unit = run_unit(cell, i, p, speed, tracer)
                if not keep(cell, p):
                    unit.result = None
                units.append(unit)
            if after_pass is not None:
                after_pass(p)
            p += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        speed.stop_ticking()
    speed.sample()
    for u in units:
        u.scaled_ns = u.ns * speed.scale(u.start_ns, u.end_ns)
    return units, p


# ---------------------------------------------------------------------------
# Output checks and the determinism digest (outside every timed region)
# ---------------------------------------------------------------------------


def check_session(cell, trial: int, outcome) -> list:
    from skalab.protocols import party_key_from_transcript, session_streams
    from skalab.sources import sample

    where = f"{cell.label} trial {trial}"
    bad = []
    keys = outcome.keys
    if outcome.agreed and (any(k is None or k.n != outcome.key_len for k in keys) or len(set(keys)) != 1):
        bad.append(f"{where}: agreed, but the keys differ or are not {outcome.key_len} bits")
    input_stream, _public = session_streams(cell.config, trial)
    inputs = sample(cell.config.model, input_stream).inputs
    for party, own in enumerate(inputs, start=1):
        key, _status = party_key_from_transcript(cell.config, party, own, outcome.transcript)
        if key != keys[party - 1]:
            bad.append(f"{where}: party {party}'s key recomputed from its input and the transcript differs")
    return bad


def check_units(cells, units) -> list:
    bad = []
    for u in units:
        cell, result = cells[u.cell], u.result
        if result is None or isinstance(result, Exception):
            continue
        if cell.kind == "session":
            bad += check_session(cell, u.pass_index, result)
        elif cell.kind == "exact":
            if not result.audit.rectangle_ok:
                bad.append(f"{cell.label} pass {u.pass_index}: transcript preimages are not rectangles")
            if result.audit.residual_i.sign() < 0:
                bad.append(f"{cell.label} pass {u.pass_index}: negative residual I(x:y) - I(x:y|T)")
    return bad


def exact_record(result) -> str:
    a = result.audit
    return (
        f"instances={result.instances} key_len={result.key_len} agreement_rate={result.agreement_rate!r} "
        f"h_key_given_view={result.h_key_given_view!r} residual_i={a.residual_i!r} "
        f"residual_j={a.residual_j!r} rectangle_ok={a.rectangle_ok}\n"
    )


def digest(cells, units):
    """SHA-256 over the CSV rows (`runner.trial_rows`), every transcript
    dump and every audit record of the checked units.  Returns (hex digest,
    seconds spent building CSV rows, rows built)."""
    from skalab.runner import trial_rows

    h = hashlib.sha256()
    rows_ns = 0
    rows = 0
    for u in units:
        cell, result = cells[u.cell], u.result
        h.update(f"{cell.label},{u.pass_index}\n".encode())
        if isinstance(result, Exception):
            h.update(f"raised {type(result).__name__}\n".encode())
        elif cell.kind == "session":
            start = time.perf_counter_ns()
            buf = io.StringIO()
            for row in trial_rows([result], cell.config):
                row["trial"] = u.pass_index
                csv.DictWriter(buf, fieldnames=list(row), lineterminator="\n").writerow(row)
                rows += 1
            rows_ns += time.perf_counter_ns() - start
            h.update(buf.getvalue().encode())
            h.update(result.transcript.dump().encode())
        elif cell.kind == "exact":
            h.update(exact_record(result).encode())
        else:
            h.update(result.records().encode())
    return h.hexdigest(), rows_ns / 1e9, rows


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def per_cell_latency(cells, units, attr: str = "scaled_ns") -> list:
    """[(label, samples, p50 ms, p90 ms)] over the timed units of each cell."""
    out = []
    for i, cell in enumerate(cells):
        ms = [getattr(u, attr) / 1e6 for u in units if u.cell == i]
        out.append((cell.label, len(ms), statistics.median(ms), p90(ms)))
    return out


def pass_seconds(units, attr: str = "scaled_ns") -> list:
    per_pass = Counter()
    for u in units:
        per_pass[u.pass_index] += getattr(u, attr) / 1e9
    return list(per_pass.values())


def units_per_second(cells, units, attr: str = "scaled_ns") -> float:
    """Cells per second of the mean pass, after dropping the slowest and the
    fastest tenth of the passes.  Dropping the tails keeps the rare slow
    triple-omni sessions (a degenerate fingerprint widens the joint search)
    from deciding the figure; averaging the rest keeps
    it steady on the audit workload, which runs only three or four passes."""
    seconds = sorted(pass_seconds(units, attr))
    cut = len(seconds) // 10
    return len(cells) / statistics.fmean(seconds[cut : len(seconds) - cut])


def end_to_end(cells, warm, timed, checked, everything, setup_s, rss_mb):
    latency = per_cell_latency(cells, timed)
    if cells[0].kind == "session":
        outcomes = [
            u.result for u in checked if cells[u.cell].kind == "session" and not isinstance(u.result, Exception)
        ]
    else:
        outcomes = [o for o in warm if o is not None]  # an audit's sessions share its config's lengths
    metrics = {
        "setup_s": (setup_s, "s"),
        "sessions_per_s": (units_per_second(cells, timed), "1/s"),
        "session_p50_ms": (statistics.fmean(c[2] for c in latency), "ms"),
        "key_bits_per_session": (statistics.fmean(o.key_len for o in outcomes) if outcomes else 0.0, "bits"),
        "comm_bits_per_session": (statistics.fmean(o.comm_bits for o in outcomes) if outcomes else 0.0, "bits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # Reported, but not in the JSON line: see README.md for why.
    extra = {
        "session_p90_ms": statistics.fmean(c[3] for c in latency),
        "fail_ratio": sum(1 for u in checked if u.failure) / len(checked),
        "success_ratio": 1 - sum(1 for u in everything if u.failure) / len(everything),
        "raw_sessions_per_s": units_per_second(cells, timed, "ns"),
        "raw_session_p50_ms": statistics.fmean(c[2] for c in per_cell_latency(cells, timed, "ns")),
        "latency": latency,
    }
    if cells[0].kind != "session":
        for kind in ("exact", "mc"):
            extra[f"{kind}_audit_s"] = statistics.median(
                pass_seconds([u for u in timed if cells[u.cell].kind == kind])
            )
    return metrics, extra


def per_layer(tracer, cells, traced, untraced_rate, row_cache, rows_s, rows):
    n = len(traced)
    total_ns = sum(u.ns for u in traced)
    scale = sum(u.scaled_ns for u in traced) / total_ns  # span times to reference speed
    c = tracer.counts
    s = tracer.self_ns
    incl = tracer.incl_ns

    def ms(ns):
        return ns * scale / 1e6 / n

    def ratio(num, den):
        return num / den if den else 0.0

    audits = [u.result for u in traced if cells[u.cell].kind != "session" and not isinstance(u.result, Exception)]
    mc = [r for r in audits if hasattr(r, "stratum_count")]
    return {
        "trace.unit_ms": (ms(total_ns), "ms"),
        "trace.overhead_ratio": (ratio(untraced_rate, units_per_second(cells, traced)), "ratio"),
        "protocols.self_ms": (ms(tracer.layer_self_ns("protocols")), "ms"),
        "protocols.dimension_calls": (c["protocols.dimension_calls"] / n, "count"),
        "rng.ms": (ms(tracer.layer_self_ns("rng")), "ms"),
        "rng.bits_drawn": (c["rng.bits_drawn"] / n, "bits"),
        "sources.sample_ms": (ms(s["sources.sample"]), "ms"),
        "sources.candidates_ms": (ms(s["sources.candidates"]), "ms"),
        "sources.candidate_log2": (ratio(c["sources.candidate_log2_sum"], c["sources.candidate_sets"]), "bits"),
        "sources.consistency_checks": (c["sources.consistency_checks"] / n, "count"),
        "sources.consistency_ms": (ms(s["sources.consistency"]), "ms"),
        "channel.ms": (ms(tracer.layer_self_ns("channel")), "ms"),
        "hashext.hash_calls": (c["hashext.hash_calls"] / n, "count"),
        "hashext.hash_ms": (ms(s["hashext.hash"] + s["hashext.seed"]), "ms"),
        "hashext.extract_ms": (ms(s["hashext.extract"]), "ms"),
        "hashext.bit_ops": (c["hashext.bit_ops"] / n, "count"),
        "gf2.row_cache_hit_ratio": (row_cache, "ratio"),
        "gf2.solve_calls": (c["gf2.solve_calls"] / n, "count"),
        "gf2.solve_ms": (ms(tracer.layer_self_ns("gf2")), "ms"),
        "gf2.kernel_dim": (ratio(c["gf2.kernel_dim_sum"], c["gf2.solutions"]), "count"),
        "reconcile.encode_ms": (ms(s["reconcile.encode"]), "ms"),
        "reconcile.decode_ms": (ms(s["reconcile.decode"] + s["reconcile.scan"]), "ms"),
        "reconcile.scan_checked": (c["reconcile.scan_checked"] / n, "count"),
        "reconcile.affine_solves": (c["reconcile.affine_solves"] / n, "count"),
        "reconcile.non_unique": (c["reconcile.non_unique"] / n, "count"),
        "reconcile.joint_ms": (ms(s["reconcile.joint"]), "ms"),
        "reconcile.joint_tuples_tested": (c["reconcile.joint_tuples_tested"] / n, "count"),
        "reconcile.joint_hit_ratio": (
            ratio(c["reconcile.joint_tuples_kept"], c["reconcile.joint_tuples_tested"]),
            "ratio",
        ),
        "reconcile.multi_decode_ms": (ms(s["reconcile.multi_decode"]), "ms"),
        "reconcile.decode_share": (ratio(incl["reconcile.decode"], total_ns), "ratio"),
        "reconcile.joint_share": (ratio(incl["reconcile.joint"] + incl["reconcile.multi_decode"], total_ns), "ratio"),
        "rateregion.lp_calls": (c["rateregion.lp_calls"] / n, "count"),
        "rateregion.lp_ms": (ms(tracer.layer_self_ns("rateregion")), "ms"),
        "rateregion.lp_share": (ratio(incl["rateregion.sw"] + incl["rateregion.lp"], total_ns), "ratio"),
        "runner.rows_ms": (ratio(rows_s * 1e3, rows), "ms"),
        "audit.instances": (
            statistics.fmean(getattr(r, "instances", getattr(r, "trials", 0)) for r in audits) if audits else 0.0,
            "count",
        ),
        "audit.run_ms": (ms(incl["audit.run"]), "ms"),
        "audit.self_ms": (ms(s["audit.exact"] + s["audit.mc"]), "ms"),
        "audit.enumerate_ms": (ms(s["audit.enumerate"]), "ms"),
        "audit.strata": (statistics.fmean(r.stratum_count for r in mc) if mc else 0.0, "count"),
        "audit.baseline_ms": (ms(s["audit.baseline"]), "ms"),
        "entropy.inequality_ms": (ms(s["entropy.inequality"]), "ms"),
        "entropy.cond_entropy_ms": (ms(s["entropy.cond_entropy"]), "ms"),
        "entropy.distribution_ms": (ms(s["entropy.distribution"]), "ms"),
    }


def row_cache_info():
    """(hits, misses) of the GF(2) row cache, or None if the program has none."""
    import skalab.gf2

    cached = getattr(skalab.gf2, "_row_ints_cached", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return None
    info = cached.cache_info()
    return info.hits, info.misses


def hit_ratio(before, after) -> float:
    if before is None or after is None:
        return 0.0
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def layer_table(tracer, units: int) -> str:
    total = sum(tracer.self_ns.values())
    lines = [f"{'span':28} {'calls/unit':>12} {'self ms/unit':>13} {'incl ms/unit':>13} {'self share':>10}"]
    for name in sorted(tracer.self_ns, key=lambda k: -tracer.self_ns[k]):
        lines.append(
            f"{name:28} {tracer.calls[name] / units:12.2f} {tracer.self_ns[name] / 1e6 / units:13.4f} "
            f"{tracer.incl_ns[name] / 1e6 / units:13.4f} {tracer.self_ns[name] / total:10.2%}"
        )
    layers = {name.split(".", 1)[0] for name in tracer.self_ns}
    lines.append("")
    lines.append(f"{'layer':28} {'self ms/unit':>13} {'self share':>10}")
    for layer in sorted(layers, key=lambda name: -tracer.layer_self_ns(name)):
        ns = tracer.layer_self_ns(layer)
        lines.append(f"{layer:28} {ns / 1e6 / units:13.4f} {ns / total:10.2%}")
    lines.append("\n(wall-clock ms of the traced phase, not scaled to the reference speed)")
    if tracer.dropped:
        lines.append(f"span file holds the first {len(tracer.spans)} spans; {tracer.dropped} more were only aggregated")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Environment and reporting
# ---------------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "skalab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, speed: Speedometer) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload_seed": seed,
        "reference_ns_median": statistics.median(speed.refs),
    }


REPORTED_METRICS = (
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("session_p50_ms", "ms"),
    ("session_p90_ms", "ms"),
    ("fail_ratio", "ratio"),
    ("key_bits_per_session", "bits"),
    ("comm_bits_per_session", "bits"),
    ("exact_audit_s", "s"),
    ("mc_audit_s", "s"),
    ("peak_rss_mb", "MB"),
    ("peak_rss_mb_end", "MB"),
)


def report(args, workload, env, metrics, extra, failures, dig, violations, attempted) -> None:
    unit = "session" if workload.name != "audit" else "audit"
    print(f"workload {workload.name} (unit: one {unit}; seed {args.seed}; {args.seconds} s)")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    values = {name: value for name, (value, _unit) in metrics.items()}
    values.update(extra)
    print("  times are scaled to the reference host speed; raw wall-clock figures follow them")
    for name, u in REPORTED_METRICS:
        value = values.get(name)
        print(f"  {name:24} {'n/a' if value is None else f'{value:.6g}'} {u}")
    print(f"  {'success_ratio':24} {values['success_ratio']:.6g} ratio (every unit run)")
    print(f"  {'raw_sessions_per_s':24} {values['raw_sessions_per_s']:.6g} 1/s")
    print(f"  {'raw_session_p50_ms':24} {values['raw_session_p50_ms']:.6g} ms")
    for label, samples, p50, p90_ in extra["latency"]:
        print(f"  cell {label}: {samples} timed {unit}s, p50 {p50:.4g} ms, p90 {p90_:.4g} ms")
    print(f"  attempted {attempted}, failed {sum(failures.values())}: {dict(failures) or 'none'}")
    print(f"  determinism digest {dig}")
    for v in violations:
        print(f"  CHECK FAILED: {v}")


def run_workload(args) -> int:
    speed = Speedometer()
    import_program()
    import_times = [import_seconds(speed) for _ in range(SETUP_REPEATS)]
    from workloads import WORKLOADS

    import tracing

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)}, all)")
    workload = WORKLOADS[args.workload]
    cells, warm, setup_times = set_up(workload, args.seed, speed)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    def keep(cell, p):
        return p < workload.checked_passes or cell.kind != "session"

    # Peak memory is read when the checked passes end: a fixed amount of work.
    # Read at the end of the run it grew with the number of units that fit in
    # the run (the GF(2) row cache fills up over about 500 triple-omni
    # sessions), so it followed the host's speed.
    rss = []

    def after_pass(p):
        if p == workload.checked_passes - 1:
            rss.append(peak_rss_mb())

    measure_s = args.seconds / 2 if args.trace else args.seconds
    timed, next_pass = run_passes(cells, 0, measure_s, keep, speed, after_pass=after_pass)
    untimed = []
    while next_pass < workload.checked_passes:
        untimed += [run_unit(cell, i, next_pass, speed) for i, cell in enumerate(cells)]
        after_pass(next_pass)
        next_pass += 1

    traced = []
    if args.trace:
        tracer = tracing.Tracer(SPAN_CAP)
        cache_before = row_cache_info()
        undo = tracing.install(tracer)
        try:
            traced, next_pass = run_passes(cells, next_pass, measure_s, keep, speed, tracer)
            row_cache = hit_ratio(cache_before, row_cache_info())
        finally:
            tracing.uninstall(undo)

    everything = timed + untimed + traced
    checked = [u for u in timed + untimed if u.pass_index < workload.checked_passes]
    violations = check_units(cells, [u for u in everything if u.result is not None])
    dig, rows_s, rows = digest(cells, checked)
    failures = Counter(u.failure for u in everything if u.failure)
    tracebacks = {}
    for u in everything:
        if isinstance(u.result, Exception) and u.failure not in tracebacks:
            tracebacks[u.failure] = "".join(traceback.format_exception(u.result))

    metrics, extra = end_to_end(cells, warm, timed, checked, everything, setup_s, rss[0])
    extra["peak_rss_mb_end"] = peak_rss_mb()
    env = environment(args.seed, speed)
    report(args, workload, env, metrics, extra, failures, dig, violations, len(everything))

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": args.seconds,
        "env": env,
        "setup_import_s": import_times,
        "setup_repeats_s": setup_times,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reported": {k: v for k, v in extra.items() if k != "latency"},
        "cells": [
            {
                "label": label,
                "samples": samples,
                "p50_ms": p50,
                "p90_ms": p90_,
                "latency_ms": [u.scaled_ns / 1e6 for u in timed if u.cell == i],
                "raw_latency_ms": [u.ns / 1e6 for u in timed if u.cell == i],
            }
            for i, (label, samples, p50, p90_) in enumerate(extra["latency"])
        ],
        "attempted": len(everything),
        "failures": dict(failures),
        "tracebacks": tracebacks,
        "digest": dig,
        "violations": violations,
    }
    if args.trace:
        layers = per_layer(tracer, cells, traced, units_per_second(cells, timed), row_cache, rows_s, rows)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        table = layer_table(tracer, len(traced))
        (OUT / f"{stem}-layers.txt").write_text(table)
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
        print(table, end="")
        print(f"  layer table and spans written to {OUT / stem}-layers.txt and -spans.jsonl")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")

    shown = result["per_layer"] if args.trace else result["end_to_end"]
    print(
        json.dumps(
            {
                "correct": not violations,
                "attempted": len(everything),
                "failed": sum(failures.values()),
                "metrics": shown,
            }
        )
    )
    return 0 if not violations else 1


def run_all(args) -> int:
    """Every workload BENCHMARK.json lists, each in its own process, one
    after another."""
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    status = 0
    summary = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        summary[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: simulate, rates, audit, sweep.

Model specs follow the grammar ``line-point:n=16``, ``hamming:n=31,t=2``,
``triple:n=16``, ``identical:n=16``.  Error bounds are exact rationals
(``1/256`` or ``0.125``).  Flags can be kept one-per-line in a config file
and pulled in with ``skalab @flags.conf``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .audit import conditional_uniformity
from .profiles import parse_profile
from .protocols import Margins, SessionConfig
from .rateregion import co_formula3, co_lp, key_capacity, sw_constraints
from .runner import ExperimentPlan, run_plan, sweep_configs
from .sources import parse_model_spec


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _margins(args) -> Margins | None:
    fields = (args.margin_k, args.margin_phase1, args.margin_deficiency, args.extractor_eps)
    if all(v is None for v in fields):
        return None
    model = parse_model_spec(args.model)
    base = Margins.defaults(model.n, args.eps)
    return Margins(
        k_slack=base.k_slack if args.margin_k is None else args.margin_k,
        phase1=base.phase1 if args.margin_phase1 is None else args.margin_phase1,
        deficiency=base.deficiency if args.margin_deficiency is None else args.margin_deficiency,
        extractor_eps=args.extractor_eps,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skalab",
        description=__doc__,
        fromfile_prefix_chars="@",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, protocol=True):
        p.add_argument("--model", required=True, help="model spec, e.g. line-point:n=16")
        if protocol:
            p.add_argument(
                "--protocol",
                required=True,
                choices=["light", "two-phase", "omniscience"],
            )
        p.add_argument("--eps", type=_fraction, default=Fraction(1, 256))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--margin-k", type=int, default=None)
        p.add_argument("--margin-phase1", type=int, default=None)
        p.add_argument("--margin-deficiency", type=int, default=None)
        p.add_argument("--extractor-eps", type=_fraction, default=None)

    sim = sub.add_parser("simulate", parents=[common], help="run protocol sessions, write per-trial CSV")
    add_common(sim)
    sim.add_argument("--trials", type=int, default=100)
    sim.add_argument("--out", default=None, help="CSV output path (default stdout)")

    rates = sub.add_parser("rates", parents=[common], help="constraints, CO, optimal rates, key capacity")
    rates.add_argument("--profile", required=True, help="profile file (lines like 1,2=48)")
    rates.add_argument("--out", default=None)

    aud = sub.add_parser("audit", parents=[common], help="key audit; exit 0 pass, 1 fail, 3 no verdict")
    add_common(aud)
    aud.add_argument("--trials", type=int, default=20000)
    aud.add_argument("--report", default=None, help="report path (default stdout)")

    sw = sub.add_parser("sweep", parents=[common], help="sweep n/t/eps axes and summarize")
    add_common(sw)
    sw.add_argument("--n", type=int, nargs="*", default=None)
    sw.add_argument("--t", type=int, nargs="*", default=None)
    sw.add_argument("--eps-list", type=_fraction, nargs="*", default=None)
    sw.add_argument("--trials", type=int, default=100)
    sw.add_argument("--out", default=None, help="CSV output path")
    sw.add_argument("--summary", default=None, help="summary records path")
    return parser


def _protocol_name(arg: str) -> str:
    return arg.replace("-", "_")


def _emit(text: str, path: str | None, quiet: bool) -> None:
    if path:
        with open(path, "w") as f:
            f.write(text)
        if not quiet:
            print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _config(args) -> SessionConfig:
    model = parse_model_spec(args.model)
    return SessionConfig(model, _protocol_name(args.protocol), args.eps, args.seed, _margins(args))


def cmd_simulate(args) -> int:
    plan = ExperimentPlan((_config(args),), args.trials)
    result = run_plan(plan)
    _emit(result["csv"], args.out, args.quiet)
    if not args.quiet:
        s = result["summaries"][0]
        print(
            f"agreement={s['agreement_rate']:.4f} key_len={s['key_len']} "
            f"mean_comm={s['mean_comm_bits']:.1f} target_comm={s['target_comm']}",
            file=sys.stderr,
        )
    return 0


def cmd_rates(args) -> int:
    with open(args.profile) as f:
        text = f.read()
    try:
        profile = parse_profile(text)
        region = sw_constraints(profile)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total, rates = co_lp(region)
    cap = key_capacity(profile)
    lines = []
    for subset, bound in region.constraints:
        idx = "+".join(f"n{i}" for i in sorted(subset))
        lines.append(f"constraint {idx} >= {bound} ({float(bound):.6g} bits)")
    lines.append(f"CO = {total} ({float(total):.6g} bits)")
    lines.append("rates = (" + ", ".join(str(r) for r in rates.rates) + ")")
    lines.append(f"key_capacity = {cap} ({float(cap):.6g} bits)")
    if profile.ell == 3:
        lines.append(f"CO_closed_form = {co_formula3(profile)}")
    _emit("\n".join(lines) + "\n", args.out, args.quiet)
    return 0


def cmd_audit(args) -> int:
    report = conditional_uniformity(_config(args), args.trials)
    _emit(report.records(), args.report, args.quiet)
    if report.inconclusive:
        return 3
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    configs = sweep_configs(
        args.model,
        args.n,
        args.t,
        args.eps_list or [args.eps],
        _protocol_name(args.protocol),
        args.seed,
        _margins(args),
    )
    plan = ExperimentPlan(tuple(configs), args.trials, csv_path=args.out, summary_path=args.summary)
    result = run_plan(plan)
    if not args.out:
        _emit(result["csv"], None, args.quiet)
    if not args.quiet:
        for s in result["summaries"]:
            print(
                f"{s['model']} eps={s['eps']}: agreement={s['agreement_rate']:.4f} "
                f"key_len={s['key_len']} mean_payload={s['mean_payload_bits']:.1f}",
                file=sys.stderr,
            )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "rates": cmd_rates,
        "audit": cmd_audit,
        "sweep": cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: simulate, rates, audit, sweep.

Model specs follow the grammar ``line-point:n=16``, ``hamming:n=31,t=2``,
``triple:n=16``, ``identical:n=16``.  Error bounds are exact rationals
(``1/256`` or ``0.125``).  Flags can be kept one-per-line in a config file
and pulled in with ``skalab @flags.conf``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial

from .audit import conditional_uniformity
from .profiles import parse_profile, parse_rational
from .protocols import Margins, session_plan
from .rateregion import co_formula3, co_lp, sw_constraints
from .runner import run_plan, sweep_configs


def _fraction(text: str) -> Fraction:
    """An argparse type for `profiles.parse_rational`'s grammar."""
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _decimal(text: str) -> int:
    """An argparse type for "-" and ASCII digits: int() would also take "1_0", "+3" or other scripts' digits."""
    if not (text.isascii() and text.removeprefix("-").isdecimal()):
        raise argparse.ArgumentTypeError(f"not a decimal integer: {text!r}")
    return int(text)


def _at_least(minimum: int):
    """An argparse type for a decimal integer of at least minimum."""

    def count(text: str) -> int:
        value = _decimal(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is less than {minimum}")
        return value

    return count


def _margins(args, n: int, eps) -> Margins | None:
    """The margin flags that were set, over the defaults for (n, eps)."""
    flags = {
        "k_slack": args.margin_k,
        "phase1": args.margin_phase1,
        "deficiency": args.margin_deficiency,
        "extractor_eps": args.extractor_eps,
    }
    given = {name: v for name, v in flags.items() if v is not None}
    return replace(Margins.defaults(n, eps), **given) if given else None


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

    def add_common(p):
        p.add_argument("--model", required=True, help="model spec, e.g. line-point:n=16")
        p.add_argument("--protocol", required=True, choices=["light", "two-phase", "omniscience"])
        p.add_argument("--eps", type=_fraction, default=Fraction(1, 256))
        p.add_argument("--seed", type=_decimal, default=0)
        p.add_argument("--margin-k", type=_at_least(0), default=None)
        p.add_argument("--margin-phase1", type=_at_least(0), default=None)
        p.add_argument("--margin-deficiency", type=_at_least(0), default=None)
        p.add_argument("--extractor-eps", type=_fraction, default=None)

    sim = sub.add_parser("simulate", parents=[common], help="run protocol sessions, write per-trial CSV")
    add_common(sim)
    sim.add_argument("--trials", type=_at_least(0), default=100)
    sim.add_argument("--out", default=None, help="CSV output path (default stdout)")

    rates = sub.add_parser("rates", parents=[common], help="constraints, CO, optimal rates, key capacity")
    rates.add_argument("--profile", required=True, help="profile file (lines like 1,2=48)")
    rates.add_argument("--out", default=None)

    aud = sub.add_parser("audit", parents=[common], help="key audit; exit 0 pass, 1 fail, 3 no verdict")
    add_common(aud)
    aud.add_argument("--trials", type=_at_least(1), default=20000)
    aud.add_argument("--report", default=None, help="report path (default stdout)")

    sw = sub.add_parser("sweep", parents=[common], help="sweep n/t/eps axes and summarize")
    add_common(sw)
    sw.add_argument("--n", type=_decimal, nargs="*", default=None)
    sw.add_argument("--t", type=_decimal, nargs="*", default=None)
    sw.add_argument("--eps-list", type=_fraction, nargs="*", default=None)
    sw.add_argument("--trials", type=_at_least(0), default=100)
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


def _check_writable(path: str) -> None:
    """Raise the OSError that writing path would, and leave the file system
    as it was: outputs are written only after every session has run."""
    if os.path.exists(path):
        open(path, "r+").close()
    else:
        open(path, "x").close()
        os.remove(path)


def _error(problem: Exception | str) -> int:
    print(f"error: {problem}", file=sys.stderr)
    return 2


def _configs(args) -> list:
    """Every config the command runs, each planned before any session runs,
    so that a bad model, size or margin is a usage error."""
    configs = sweep_configs(
        args.model,
        getattr(args, "n", None),  # only sweep has axes
        getattr(args, "t", None),
        getattr(args, "eps_list", None) or [args.eps],
        _protocol_name(args.protocol),
        args.seed,
        partial(_margins, args),
    )
    for config in configs:
        session_plan(config)
    return configs


def cmd_sessions(args, configs) -> int:
    """simulate and sweep: simulate is a sweep of one config."""
    result = run_plan(configs, args.trials)
    _emit(result["csv"], args.out, args.quiet)
    summary_path = getattr(args, "summary", None)  # only sweep writes summaries
    if summary_path:
        records = (" ".join(f"{k}={v}" for k, v in s.items()) + "\n" for s in result["summaries"])
        _emit("".join(records), summary_path, args.quiet)
    if not args.quiet:
        for s in result["summaries"]:
            print(
                f"{s['model']} eps={s['eps']}: agreement={s['agreement_rate']:.4f} key_len={s['key_len']} "
                f"mean_comm={s['mean_comm_bits']:.1f} mean_payload={s['mean_payload_bits']:.1f} "
                f"target_comm={s['target_comm']}",
                file=sys.stderr,
            )
    return 0


def cmd_rates(args) -> int:
    try:
        with open(args.profile, encoding="utf-8") as f:
            profile = parse_profile(f.read())  # a UnicodeDecodeError is a ValueError
        region = sw_constraints(profile)
    except ValueError as exc:
        return _error(exc)
    total, rates = co_lp(region)
    cap = profile.c(profile.full()) - total  # key capacity C(all) - CO (Csiszar-Narayan)
    lines = []
    for subset, bound in region.constraints:
        idx = "+".join(f"n{i}" for i in sorted(subset))
        lines.append(f"constraint {idx} >= {bound} ({float(bound):.6g} bits)")
    lines.append(f"CO = {total} ({float(total):.6g} bits)")
    lines.append("rates = (" + ", ".join(str(r) for r in rates) + ")")
    lines.append(f"key_capacity = {cap} ({float(cap):.6g} bits)")
    if profile.ell == 3:
        lines.append(f"CO_closed_form = {co_formula3(profile)}")
    _emit("\n".join(lines) + "\n", args.out, args.quiet)
    return 0


def cmd_audit(args, configs) -> int:
    report = conditional_uniformity(configs[0], args.trials)
    _emit(report.records(), args.report, args.quiet)
    if report.inconclusive:
        return 3
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        outputs = {}  # real path -> flag, so that no output overwrites another
        for flag in ("out", "summary", "report"):
            path = getattr(args, flag, None)
            if path:
                other = outputs.setdefault(os.path.realpath(path), flag)
                if other != flag:
                    return _error(f"--{other} and --{flag} name the same file {path!r}")
                _check_writable(path)
        if args.command == "rates":
            return cmd_rates(args)
        try:
            configs = _configs(args)
        except ValueError as exc:
            return _error(exc)
        handler = cmd_audit if args.command == "audit" else cmd_sessions
        return handler(args, configs)
    except OSError as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())

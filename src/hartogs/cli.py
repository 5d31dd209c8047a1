"""Command-line front end.

Commands: curvature, check-einstein, check-extremal, immersion, diastasis,
report, fixtures. Exit status convention: 0 means the run succeeded and any
mathematical question was answered yes; 2 means the run succeeded but the
answer is no (not Einstein, not extremal, no immersion, criterion failed);
1 means the run itself failed (bad usage, bad config, unsupported
capability).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import reporting
from .config import _parse_number, parse_config
from .curvature import verdicts
from .domains import _is_positive_double, sample_points
from .errors import ConfigError, HartogsError
from .fixtures import run_acceptance
from .immersion import Answer, ImmersionTarget, cross_check, decide
from .series import Form, blocks, resolvability


class _UsageError(Exception):
    """A command line argparse rejects."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, which here means "the answer is no"
    def error(self, message):
        raise _UsageError(message)


# every flag a command may read, in --help order
_FLAGS = {
    "--config": dict(type=Path, required=True, help="domain configuration file"),
    "--samples": dict(type=int, default=50, metavar="N"),
    "--seed": dict(type=int, default=42, metavar="N"),
    "--truncation": dict(type=int, default=10, metavar="N"),
    "--h": dict(default=None, metavar="LIST",
                help="comma-separated metric scales (default: the config's scale.h)"),
    "--target": dict(default="CH", help="{C,CP,CH} optionally suffixed -finite/-infinite"),
    "--out": dict(type=Path, default=None, metavar="PATH"),
    "--format": dict(choices=("json", "csv"), default="json"),
}


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a flag one command lacks must not resolve to another,
    # as --h would to --help
    parser = _Parser(
        prog="hartogs",
        description="curvature checks and immersion decisions for Hartogs domains",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, handler, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        # every command takes --seed and --out, read or not: the benchmark
        # harness passes both to every op
        for flag, settings in _FLAGS.items():
            if flag in reads or flag in ("--seed", "--out"):
                p.add_argument(flag, **settings)
        p.set_defaults(handler=handler)
    return parser


def _parse_h_list(text: str | None) -> list[Fraction | None]:
    """The scales of ``--h`` in the config number grammar (1/3, 0.1, 1e-3),
    exactly; without ``--h``, [None], read as ``scale.h``."""
    if text is None:
        return [None]
    values = []
    for part in text.split(","):
        try:
            h = _parse_number(part, None)
        except ConfigError:
            h = 0
        if not _is_positive_double(h):
            raise ValueError(f"all h values must be positive and finite, got {part.strip()!r}")
        values.append(h)
    return values


def _run_config(args):
    parsed = parse_config(args.config)
    # the verdicts of check-einstein, check-extremal and report need 10 points
    least = 1 if args.command == "curvature" else 10
    if "samples" in args and args.samples < least:
        raise ValueError(f"--samples must be at least {least}")
    if "truncation" in args and args.truncation < 2:
        raise ValueError("--truncation must be at least 2")
    return parsed


def cmd_curvature(args) -> int:
    parsed = _run_config(args)
    pts = sample_points(parsed.spec, args.samples, seed=args.seed, min_margin=0.02)
    rows = reporting.curvature_rows(parsed.spec, pts)
    if args.format == "csv":
        reporting.write_text(reporting.render_csv(rows), args.out)
    else:
        payload = reporting.with_schema(
            {
                "command": "curvature",
                "spec": reporting.spec_summary(parsed.spec),
                "seed": args.seed,
                "rows": rows,
            }
        )
        reporting.write_text(reporting.to_json(payload), args.out)
    return 0


def _verdict_points(spec, args):
    return sample_points(spec, args.samples, seed=args.seed, margin_frac=0.1, min_margin=0.05)


# command -> (answer field, residual field, rule); only check-extremal
# reports the extremal residual, so only it computes the extremal jets
_CHECKS = {
    "check-einstein": (
        "is_einstein", "max_einstein_residual",
        "Einstein iff every factor constant equals -(d+1)",
    ),
    "check-extremal": (
        "is_extremal", "max_extremal_residual",
        "extremal iff the scalar curvature is constant (tau = 0)",
    ),
}


def cmd_check(args) -> int:
    parsed = _run_config(args)
    answer, residual, rule = _CHECKS[args.command]
    pts = _verdict_points(parsed.spec, args)
    v = verdicts(parsed.spec, pts, include_extremal=args.command == "check-extremal")
    payload = reporting.with_schema(
        {
            "command": args.command,
            "spec": reporting.spec_summary(parsed.spec),
            "seed": args.seed,
            "samples": len(pts),
            answer: getattr(v, answer),
            "residual": getattr(v, residual),
            "tau": v.tau,
            "tolerance": v.tolerance,
            "rule": rule,
        }
    )
    reporting.write_text(reporting.to_json(payload), args.out)
    return 0 if getattr(v, answer) else 2


def cmd_immersion(args) -> int:
    parsed = _run_config(args)
    target = ImmersionTarget.parse(args.target)
    results = []
    all_exist = True
    for h in _parse_h_list(args.h):
        chk = cross_check(
            parsed.spec, target, h=h,
            truncation_degree=args.truncation, facts=parsed.facts,
        )
        all_exist = all_exist and chk.verdict.answer is Answer.EXISTS
        row = reporting.immersion_payload(chk.verdict)
        row["cross_check"] = {
            "agreement": chk.agreement,
            "truncation": chk.truncation_degree,
            "all_psd": chk.all_psd,
            "rank_lower_bound": chk.rank_lower_bound,
            "first_failure": chk.first_failure,
        }
        results.append(row)
    payload = reporting.with_schema(
        {
            "command": "immersion",
            "spec": reporting.spec_summary(parsed.spec),
            "verdicts": results,
        }
    )
    reporting.write_text(reporting.to_json(payload), args.out)
    return 0 if all_exist else 2


def _resolvability_rows(spec, h_values, truncation) -> list[dict]:
    """One resolvability payload per (form, h), forms outermost."""
    return [
        reporting.resolvability_payload(
            resolvability(form, spec, h=h, truncation_degree=truncation)
        )
        for form in Form
        for h in h_values
    ]


def cmd_diastasis(args) -> int:
    parsed = _run_config(args)
    h_values = _parse_h_list(args.h)
    if args.format == "csv" and args.out is None:
        raise ValueError("--format csv for diastasis requires --out DIR")
    payload = reporting.with_schema(
        {
            "command": "diastasis",
            "spec": reporting.spec_summary(parsed.spec),
            "verdicts": _resolvability_rows(parsed.spec, h_values, args.truncation),
        }
    )
    if args.format == "csv":
        # dump one CSV per block (per form and first h value) next to --out;
        # every text is built first, so a block past the double range writes
        # no file
        texts = {
            f"{form.value}_i{b.total_degree}_sigma{b.fiber_degree}.csv": reporting.block_csv(b)
            for form in Form
            for b in blocks(form, parsed.spec, args.truncation, h_values[0])
        }
        texts["verdicts.json"] = reporting.to_json(payload)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            reporting.write_text(text, outdir / name)
    else:
        reporting.write_text(reporting.to_json(payload), args.out)
    return 0


def cmd_report(args) -> int:
    parsed = _run_config(args)
    spec = parsed.spec
    pts = _verdict_points(spec, args)
    v = verdicts(spec, pts)
    h_values = _parse_h_list(args.h)
    diastasis = _resolvability_rows(spec, h_values, args.truncation)
    immersions = [
        reporting.immersion_payload(decide(spec, target, h=h, facts=parsed.facts))
        for target in ImmersionTarget
        for h in h_values
    ]
    payload = reporting.with_schema(
        {
            "command": "report",
            "spec": reporting.spec_summary(spec),
            "seed": args.seed,
            "samples": len(pts),
            "curvature": {
                "is_einstein": v.is_einstein,
                "is_extremal": v.is_extremal,
                "is_constant_scalar": v.is_constant_scalar,
                "einstein_residual": v.max_einstein_residual,
                "extremal_residual": v.max_extremal_residual,
                "tau": v.tau,
                "tolerance": v.tolerance,
            },
            "diastasis": diastasis,
            "immersion": immersions,
            "rows": reporting.report_rows(spec, v.report, 10),
        }
    )
    reporting.write_text(reporting.to_json(payload), args.out)
    return 0


def cmd_fixtures(args) -> int:
    summary = run_acceptance(seed=args.seed)
    for c in summary.criteria:
        print(c.line())
        print(f"criterion {c.cid:02d} elapsed {c.elapsed:.3f} s", file=sys.stderr)
    print(f"total wall time {summary.total_elapsed:.1f} s", file=sys.stderr)
    payload = summary.payload()
    reporting.write_text(reporting.to_json(payload), args.out)
    if not summary.all_passed:
        failing = ", ".join(str(c.cid) for c in summary.criteria if not c.passed)
        print(f"failing criteria: {failing}", file=sys.stderr)
        return 2
    return 0


# command -> (help text, handler, the flags it reads besides --seed and --out)
_COMMANDS = {
    "curvature": (
        "sample-point sweep of the curvature identities",
        cmd_curvature, ("--config", "--samples", "--format"),
    ),
    "check-einstein": (
        "is the canonical metric Einstein?", cmd_check, ("--config", "--samples"),
    ),
    "check-extremal": (
        "is the canonical metric extremal?", cmd_check, ("--config", "--samples"),
    ),
    "immersion": (
        "existence of a Kahler immersion into a space form",
        cmd_immersion, ("--config", "--truncation", "--h", "--target"),
    ),
    "diastasis": (
        "resolvability verdicts for all three space forms",
        cmd_diastasis, ("--config", "--truncation", "--h", "--format"),
    ),
    "report": (
        "full report: curvature, verdicts, diastasis, immersion",
        cmd_report, ("--config", "--samples", "--truncation", "--h"),
    ),
    "fixtures": ("run the canned verification suite", cmd_fixtures, ()),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse keeps no state between parse_args calls, so one parser serves
    # every main call of the process
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except (HartogsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # configs are read through ConfigError, so this is output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

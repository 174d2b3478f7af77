"""Command-line entry points.

Targets are `preset:NAME` (prefixes are fine) or a path to a presentation
file.  A file target runs the generic checks of any calculus, whatever its
file is named; the closed forms of the quantum plane and quantum SL(2) run
only on their presets.  Exit codes: 0 when every check passes, 1 when any
fails, 2 for unusable input or flags, and 2 for a command with nothing to
check on its target, before any check runs.
"""

from __future__ import annotations

import argparse
import sys

from .parser import ParseError
from .presets import REGISTRY, get_preset, resolve_target
from .report import build_report, render_json, render_text
from .suites import Options, checks_for, run_checks

TARGET_COMMANDS = (
    "verify",
    "invert-sigma",
    "nabla",
    "flatness",
    "integral",
    "iso-check",
    "density",
)
# commands that run one preset's whole suite: command -> preset
WHOLE_SUITES = {"sphere": "podles-sphere", "matrix": "matrix-m2"}


def _common_flags(parser):
    parser.add_argument("--max-len", type=int, default=4, dest="max_len")
    parser.add_argument("--max-degree", type=int, default=6, dest="max_degree")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=100)
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="accepted for compatibility; checks always run serially",
    )
    parser.add_argument("--timings", action="store_true")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="intforms",
        description="verify twisted multi-derivation calculi and their integral forms",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name in TARGET_COMMANDS:
        sub = commands.add_parser(name)
        sub.add_argument("target")
        _common_flags(sub)
        if name == "integral":
            sub.add_argument("--degree", type=int, default=None)
    for name in WHOLE_SUITES:
        sub = commands.add_parser(name)
        sub.add_argument("action", choices=("verify",))
        _common_flags(sub)
    preset = commands.add_parser("preset")
    preset.add_argument("action", choices=("list",))
    preset.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _list_presets(fmt):
    if fmt == "json":
        rows = [
            {"name": p.name, "description": p.description, "hash": p.digest}
            for p in REGISTRY.values()
        ]
        body = render_json({"schema": 1, "presets": rows})
    else:
        width = max(len(name) for name in REGISTRY)
        body = "".join(
            f"{p.name:<{width}}  {p.description}\n" for p in REGISTRY.values()
        )
    sys.stdout.write(body)
    return 0


def _check_flags(args):
    for flag, value, least in (
        ("--max-len", args.max_len, 1),
        ("--max-degree", args.max_degree, 2),
        ("--cases", args.cases, 1),
        ("--jobs", args.jobs, 1),
    ):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    # the default sweep covers the degree blocks 0 .. max_len - 1
    degree = getattr(args, "degree", None)
    if degree is not None and not 0 <= degree < args.max_len:
        raise ValueError(f"--degree must be in 0..{args.max_len - 1}, got {degree}")


def _run(command, preset, args):
    opts = Options(
        max_len=args.max_len,
        max_degree=args.max_degree,
        seed=args.seed,
        cases=args.cases,
        degree=getattr(args, "degree", None),
    )
    checks = checks_for(preset, command, opts)
    results = run_checks(checks)
    report = build_report(command, preset, opts, results, timings=args.timings)
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(report))
    return 1 if report["summary"]["fail"] else 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "preset":
        return _list_presets(args.format)
    try:
        _check_flags(args)
        if args.command in WHOLE_SUITES:
            return _run("verify", get_preset(WHOLE_SUITES[args.command]), args)
        return _run(args.command, resolve_target(args.target), args)
    except KeyError as exc:
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return 2
    except (OSError, ParseError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver.

Subcommands: ``run`` executes a method roster over an evaluation set,
``report`` summarizes a finished run, and ``sweep`` varies temperature
or reasoning effort across the roster.

Exit codes: 0 success, 1 config or usage error, 2 data error, 3 run
completed with partial failures.
"""

from __future__ import annotations

import argparse
import sys

from .corpus import DuplicateId, MalformedRow
from .harness import (
    AxisInapplicable,
    ConfigInvalid,
    DataMissing,
    NoResults,
    build_manifest,
    load_config,
    run_evaluation,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

_CONFIG_ERRORS = (ConfigInvalid, AxisInapplicable)
_DATA_ERRORS = (DataMissing, MalformedRow, DuplicateId, NoResults, FileNotFoundError, IsADirectoryError)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Exit 1 on a usage error, the config-error code, not argparse's 2."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grantgeo", description=__doc__)  # its subparsers are _Parsers too
    sub = parser.add_subparsers(dest="command", required=True)

    roster = argparse.ArgumentParser(add_help=False)  # the options run and sweep share
    roster.add_argument("--config", required=True)
    roster.add_argument("--evalset")
    roster.add_argument("--method", action="append", dest="methods")
    roster.add_argument("--max-rows", type=int)
    roster.add_argument("--seed", type=int, default=42)
    roster.add_argument("--output-dir")

    run_p = sub.add_parser("run", parents=[roster], help="run a method roster over an evaluation set")
    run_p.add_argument("--dry-run", action="store_true")

    report_p = sub.add_parser("report", help="summarize a completed run directory")
    report_p.add_argument("--run-dir", required=True)

    sweep_p = sub.add_parser("sweep", parents=[roster], help="sweep temperature or reasoning effort")
    sweep_p.add_argument("--axis", required=True, choices=["temperature", "effort", "reasoning_effort"])
    sweep_p.add_argument("--values", required=True, nargs="+")

    return parser


def _manifest(args, dry_run: bool = False):
    return build_manifest(
        load_config(args.config),
        evalset=args.evalset,
        methods=args.methods,
        seed=args.seed,
        dry_run=dry_run,
        max_rows=args.max_rows,
        output_dir=args.output_dir,
    )


def _cmd_run(args) -> int:
    manifest = _manifest(args, dry_run=args.dry_run)
    outcome = run_evaluation(manifest)
    if not manifest.dry_run:
        print(f"run complete: {outcome.cells} cells, {outcome.failures} failures -> {outcome.run_dir}")
    return EXIT_PARTIAL if outcome.failures else EXIT_OK


def _cmd_report(args) -> int:
    from .report import generate_report  # numpy loads for the report only

    path = generate_report(args.run_dir)
    print(f"report written: {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    manifest = _manifest(args)
    axis = "reasoning_effort" if args.axis in ("effort", "reasoning_effort") else "temperature"
    path, failures = sweep(manifest, axis, args.values)
    print(f"sweep report written: {path}")
    return EXIT_PARTIAL if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "report": _cmd_report, "sweep": _cmd_sweep}[args.command]
    try:
        return handler(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: run verifications and render reports.

Exit codes are the process-level contract: 0 when every selected check
passes, 1 when any fails, 2 for configuration errors (unknown check ids,
out-of-range degree bound, bad arguments).
"""

from __future__ import annotations

import argparse
import sys

from .pipeline import Pipeline, UnknownCheckError, VerificationReport


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genus2chow",
        description=(
            "Re-derive and verify the integral Chow ring computations for the"
            " moduli of stable genus-two curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification checks")
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every check (default)")
    group.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="ID",
        help="run one check by id (repeatable)",
    )
    verify.add_argument(
        "--max-degree", type=int, default=10, metavar="N",
        help="degree through which thm:45 compares the twist kernel; 5 to 24 (default 10)",
    )
    verify.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report as text lines or as one JSON document (default text)",
    )

    explain = sub.add_parser("explain", help="describe one check and its witness")
    explain.add_argument("id")

    sub.add_parser("list-checks", help="list all check ids")
    return parser


def _print_text_report(report: VerificationReport) -> None:
    for check in report.checks:
        print(f"{check.status.upper():4}  {check.id:18} {check.anchor}  ({check.elapsed_ms} ms)")
        if check.status == "fail":
            for line in check.witness.splitlines():
                print(f"      {line}")
    passed = sum(1 for c in report.checks if c.status == "pass")
    print(f"{passed}/{len(report.checks)} checks passed; overall: {report.overall}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "list-checks":
        for cdef in Pipeline.CHECKS:
            print(f"{cdef.id:18} {cdef.title}")
        return 0

    if args.command == "explain":
        try:
            print(Pipeline.explain(args.id))
            return 0
        except UnknownCheckError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    try:
        # Pipeline() rejects a degree bound outside 5..24 and run() an
        # unknown check id, both with a ValueError.
        report = Pipeline(max_degree=args.max_degree).run(ids=args.check)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        _print_text_report(report)
    return 0 if report.overall == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())

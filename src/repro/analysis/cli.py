"""``python -m repro.analysis`` --- the reprolint command line.

Runs the per-file rules through :func:`repro.analysis.linter.run_analysis`.
A finding fails the run; the only exemption is an inline
``# reprolint: disable=RLxxx - reason`` on the flagged line.

Exit status: 0 when clean, 1 when findings remain, 2 on usage errors
(a path that does not exist, nothing to analyze).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis import rules  # noqa: F401 - populates the registry
from repro.analysis.linter import RULE_REGISTRY, render_text, run_analysis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=("reprolint: determinism/invariant lint rules for "
                     "the POLARIS reproduction"))
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit")
    return parser


def list_rules() -> str:
    return "\n".join(f"{code}  {cls.name:<22} {cls.description}"
                     for code, cls in sorted(RULE_REGISTRY.items()))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0

    # A mistyped path must not read as a clean tree.
    for path in args.paths:
        if not Path(path).exists():
            parser.error(f"no such file or directory: {path}")

    from repro.harness.profiling import perf_clock
    started = perf_clock()
    result = run_analysis(args.paths)
    elapsed_s = perf_clock() - started
    if result.files_checked == 0:
        parser.error(
            f"no Python files under: {', '.join(map(str, args.paths))}")

    print(render_text(result.findings, files_checked=result.files_checked))
    print(f"reprolint: analyzed {result.files_checked} file(s) in "
          f"{elapsed_s:.2f}s")
    return 1 if result.findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["build_parser", "list_rules", "main"]

"""CLI for the static analysis engine (SAT + ARCH + CONC rules).

Examples::

    python -m repro.analysis src/repro benchmarks
    python -m repro.analysis src/repro --json
    python -m repro.analysis src/repro --select SAT
    python -m repro.analysis src/repro --select ARCH,CONC001 --ignore ARCH1
    python -m repro.analysis path/to/pkg --contract path/to/arch_contract.toml
    python -m repro.analysis --list-rules

Exit status: 0 when there are no findings (or ``--list-rules``), 1 when
there are, 2 on usage or contract errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Set

from repro.analysis.engine import analyze
from repro.analysis.rules import ALL_RULES


def _codes(value: str) -> Set[str]:
    return {code.strip().upper() for code in value.split(",") if code.strip()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism, architecture and async-concurrency "
                    "analysis for the Saturn reproduction")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or package directories to analyze "
                             "(default: src/repro)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    parser.add_argument("--select", type=_codes, default=None,
                        metavar="CODES",
                        help="comma-separated rule codes or prefixes to "
                             "enable (e.g. SAT,ARCH1,CONC001)")
    parser.add_argument("--ignore", type=_codes, default=None,
                        metavar="CODES",
                        help="comma-separated rule codes or prefixes to "
                             "disable")
    parser.add_argument("--contract", default=None, metavar="PATH",
                        help="arch_contract.toml for the ARCH rules "
                             "(default: the nearest one above each "
                             "directory)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        parser.error(f"no such file or directory: {missing}")
    try:
        report = analyze(args.paths, select=args.select, ignore=args.ignore,
                         contract=args.contract)
    except ValueError as exc:
        parser.error(str(exc))
    print(report.to_json() if args.json else report.format_human())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

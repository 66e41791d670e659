"""Command-line interface: ``python -m repro.lint [paths...]``.

Exit codes: 0 = clean, 1 = findings, 2 = usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import Severity
from .engine import LintResult, lint_paths
from .rules import ALL_RULES

#: v3: no baseline keys. v4: findings carry no ``witness`` list.
JSON_SCHEMA_VERSION = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="reprolint: determinism / event-loop / seed-hygiene "
                    "invariant checker for the simulator codebase.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON on stdout")
    parser.add_argument("--select", metavar="CODES", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        scopes = ", ".join(rule.scopes)
        lines.append(f"{rule.code}  {rule.name}  "
                     f"[{rule.severity.value}]  (scopes: {scopes})")
        lines.append(f"    {rule.description}")
    return "\n".join(lines)


def _to_json(result: LintResult) -> dict[str, object]:
    findings = result.all_new_findings
    return {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "counts": {
            "error": sum(1 for f in findings
                         if f.severity is Severity.ERROR),
            "warning": sum(1 for f in findings
                           if f.severity is Severity.WARNING),
        },
        "findings": [f.to_dict() for f in findings],
    }


def _render_human(result: LintResult) -> str:
    lines = [f.render() for f in result.all_new_findings]
    lines.append(f"reprolint: {result.files_checked} files, "
                 f"{len(result.all_new_findings)} finding(s)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    rules = ALL_RULES
    if args.select:
        wanted = {code.strip() for code in args.select.split(",")
                  if code.strip()}
        rules = tuple(r for r in ALL_RULES if r.code in wanted)
        unknown = wanted - {r.code for r in rules}
        if unknown:
            print(f"reprolint: unknown rule code(s): "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            return 2

    result = lint_paths(args.paths, rules=rules)

    if args.json:
        print(json.dumps(_to_json(result), indent=2))
    else:
        print(_render_human(result))
    return 0 if result.clean else 1

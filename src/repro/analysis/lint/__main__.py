"""CLI for ``repro-lint``: ``python -m repro.analysis.lint``.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lint.framework import (EXIT_CLEAN, EXIT_ERROR,
                                           LintUsageError, Project,
                                           rule_catalog, run_lint)


def _find_repo_root(start: Path) -> Path:
    """Walk up from ``start`` to the checkout root (the directory holding
    ``src/repro``); fall back to ``start`` for non-repo trees."""
    current = start.resolve()
    for candidate in (current, *current.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return current


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description=("repro-lint: AST-based analyzer enforcing the "
                     "codebase's cross-cutting invariants (lock "
                     "discipline, query-path purity, determinism, "
                     "scan-spec soundness)."))
    parser.add_argument(
        "--root", type=Path, default=None,
        help="project root to lint (default: the enclosing repo "
             "checkout, else the current directory)")
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)")
    parser.add_argument(
        "--output", type=Path, default=None,
        help="also write the report to this file (same format)")
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, name, doc in rule_catalog():
            print(f"{rule_id}  {name}\n    {doc}")
        return EXIT_CLEAN
    root = args.root if args.root is not None else _find_repo_root(Path.cwd())
    if not root.is_dir():
        print(f"repro-lint: not a directory: {root}", file=sys.stderr)
        return EXIT_ERROR
    rule_ids: Optional[List[str]] = None
    if args.rules is not None:
        rule_ids = [part.strip() for part in args.rules.split(",")
                    if part.strip()]
    try:
        report = run_lint(Project.load(root), rule_ids=rule_ids)
    except LintUsageError as error:
        print(f"repro-lint: {error}", file=sys.stderr)
        return EXIT_ERROR
    rendered = (report.to_json() if args.format == "json"
                else report.render_human())
    print(rendered)
    if args.output is not None:
        args.output.write_text(rendered + "\n", encoding="utf-8")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())

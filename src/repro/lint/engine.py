"""File discovery and rule execution.

The engine parses each file once, builds one :class:`ModuleContext`,
runs every in-scope rule over it and drops inline-suppressed findings.
Paths are normalized relative to a root (default: the current working
directory) so scope patterns are machine-independent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .core import Finding, ModuleContext, Rule
from .rules import ALL_RULES
from .suppress import parse_suppressions

_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".pytest_cache", ".venv", "venv",
    "build", "dist", ".mypy_cache", ".ruff_cache",
})


@dataclass(slots=True)
class LintResult:
    """Outcome of a lint run over a set of paths."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[Finding] = field(default_factory=list)

    @property
    def all_new_findings(self) -> list[Finding]:
        return sorted(self.findings + self.parse_errors,
                      key=Finding.sort_key)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.parse_errors


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.append(candidate)
    # Deterministic order, no duplicates even with overlapping roots.
    return sorted(set(files))


def _logical_path(path: Path, root: Path) -> str:
    resolved = path.resolve()
    try:
        rel = resolved.relative_to(root.resolve())
        return rel.as_posix()
    except ValueError:
        return resolved.as_posix()


def _rules_findings(ctx: ModuleContext, suppressions,
                    rules: tuple[type[Rule], ...],
                    respect_scopes: bool) -> list[Finding]:
    """Run the per-file rules over one parsed module."""
    findings: list[Finding] = []
    for rule_cls in rules:
        if respect_scopes and not rule_cls.applies_to(ctx.path):
            continue
        for finding in rule_cls(ctx).run():
            if not suppressions.is_suppressed(finding.code, finding.line):
                findings.append(finding)
    return findings


def lint_source(source: str, path: str = "src/repro/<string>.py",
                rules: tuple[type[Rule], ...] = ALL_RULES,
                respect_scopes: bool = True) -> list[Finding]:
    """Lint a source string; the unit-test entry point.

    ``path`` determines which scoped rules fire; the default pretends
    the snippet lives in ``src/repro`` so every DET rule applies.
    """
    source_lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1, code="E999",
                        severity=Rule.severity,
                        message=f"syntax error: {exc.msg}")]
    ctx = ModuleContext(path=path, tree=tree, source_lines=source_lines)
    suppressions = parse_suppressions(source_lines)
    findings = _rules_findings(ctx, suppressions, rules, respect_scopes)
    return sorted(findings, key=Finding.sort_key)


def lint_paths(paths: list[str | Path],
               rules: tuple[type[Rule], ...] = ALL_RULES,
               root: str | Path | None = None) -> LintResult:
    """Lint every ``*.py`` under ``paths``."""
    root_path = Path(root) if root is not None else Path.cwd()
    result = LintResult()
    for file_path in iter_python_files(paths):
        logical = _logical_path(file_path, root_path)
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.parse_errors.append(Finding(
                path=logical, line=1, col=1, code="E902",
                severity=Rule.severity,
                message=f"cannot read file: {exc}"))
            continue
        result.files_checked += 1
        source_lines = source.splitlines()
        try:
            tree = ast.parse(source, filename=logical)
        except SyntaxError as exc:
            result.parse_errors.append(Finding(
                path=logical, line=exc.lineno or 1,
                col=(exc.offset or 0) + 1, code="E999",
                severity=Rule.severity,
                message=f"syntax error: {exc.msg}"))
            continue
        ctx = ModuleContext(path=logical, tree=tree,
                            source_lines=source_lines)
        suppressions = parse_suppressions(source_lines)
        result.findings.extend(_rules_findings(ctx, suppressions, rules, True))
    result.findings.sort(key=Finding.sort_key)
    return result

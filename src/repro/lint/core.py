"""Rule-engine primitives: findings, module context, the visitor base.

A :class:`Rule` is an :class:`ast.NodeVisitor` with metadata (code,
severity, scopes). The engine instantiates one rule object per module
per rule class, hands it a :class:`ModuleContext`, and collects
:class:`Finding` objects. Name resolution for calls like
``np.random.seed(...)`` goes through :class:`ImportTable`, which maps
local aliases back to fully qualified dotted paths so rules match on
semantics rather than on surface spelling.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field


class Severity(str, enum.Enum):
    """Finding severity; both fail the lint run."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    severity: Severity
    message: str
    #: Stripped text of the offending source line (in ``--json``).
    source: str = ""

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "source": self.source,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.severity.value}] {self.message}")


class ImportTable:
    """Alias -> fully qualified name map built from a module's imports.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from datetime
    import datetime as dt`` maps ``dt`` to ``datetime.datetime``.
    Relative imports are recorded with a leading ``.`` so they can never
    collide with the absolute stdlib/third-party names rules ban.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                prefix = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{prefix}.{alias.name}"

    def is_imported(self, name: str) -> bool:
        return name in self._aliases

    def resolve(self, node: ast.expr) -> str | None:
        """Return the dotted path for a Name/Attribute chain, if known.

        Chains rooted in anything other than an imported module alias
        (``self``, locals, call results) resolve to ``None`` — rules
        only ever match code whose provenance is statically certain.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


@dataclass(slots=True)
class ModuleContext:
    """Everything a rule needs to know about the module under analysis."""

    path: str
    tree: ast.Module
    source_lines: list[str] = field(default_factory=list)
    imports: ImportTable = field(init=False)

    def __post_init__(self) -> None:
        self.imports = ImportTable(self.tree)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1].strip()
        return ""


class Rule(ast.NodeVisitor):
    """Base class for lint rules.

    Subclasses set the class attributes and implement ``visit_*``
    methods, calling :meth:`report` for each violation. ``scopes``
    restricts a rule to path fragments (matched against ``/``-joined
    paths), so e.g. event-loop rules only fire inside simulator
    packages.
    """

    code: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    #: Path fragments this rule applies to; a file matches when any
    #: fragment appears at a path-component boundary.
    scopes: tuple[str, ...] = ("src/repro/",)

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        norm = "/" + path.replace("\\", "/").lstrip("/")
        return any(f"/{scope.lstrip('/')}" in norm for scope in cls.scopes)

    def report(self, node: ast.AST, message: str,
               severity: Severity | None = None) -> None:
        line = getattr(node, "lineno", 1)
        self.findings.append(Finding(
            path=self.ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            severity=severity or self.severity,
            message=message,
            source=self.ctx.line_text(line),
        ))

    def run(self) -> list[Finding]:
        self.visit(self.ctx.tree)
        return self.findings

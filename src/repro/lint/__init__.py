"""reprolint — AST-based invariant checker for the simulator codebase.

The platform's headline claim is that every experiment and chaos
campaign is byte-identical under a fixed seed. ``repro.lint`` checks
the part of that contract one file can show: a small rule engine walks
every module's AST and flags constructs that silently break
reproducibility (wall-clock reads, global-RNG calls, entropy sources,
hash-based ordering) or event-loop discipline (blocking sleeps,
thread/async scheduling that bypasses the shared
:class:`~repro.netsim.clock.EventLoop`, host I/O). What spans modules —
every RNG moving with the seed, no state shared between work units — is
observed on running code by tier-1 tests instead (docs/ARCHITECTURE.md,
"Determinism contract").

Usage::

    python -m repro.lint src tests            # human-readable output
    python -m repro.lint src --json           # machine-readable output
    python -m repro.lint --list-rules         # rule catalogue

Findings can be suppressed inline with ``# reprolint: disable=CODE``
(same line), ``# reprolint: disable-next=CODE`` (next line), or
``# reprolint: disable-file=CODE`` (whole file). There is no baseline
of grandfathered findings: the tree is clean and stays so.
"""

from __future__ import annotations

from .core import Finding, ModuleContext, Rule, Severity
from .engine import LintResult, lint_paths, lint_source
from .rules import ALL_RULES, rule_by_code

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "ModuleContext",
    "Rule",
    "Severity",
    "lint_paths",
    "lint_source",
    "rule_by_code",
]

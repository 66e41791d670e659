"""reprolint — AST-based invariant checker for the simulator codebase.

The platform's headline claim is that every experiment and chaos
campaign is byte-identical under a fixed seed. ``repro.lint`` makes that
contract machine-checked: a small rule engine walks every module's AST
and flags constructs that silently break reproducibility (wall-clock
reads, global-RNG calls, entropy sources, hash-based ordering), violate
event-loop discipline (blocking sleeps, thread/async scheduling that
bypasses the shared :class:`~repro.netsim.clock.EventLoop`), or break
API discipline (experiment entry points without an explicit seed).

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
from .flow import FLOW_CODES, FLOW_RULES, FlowConfig
from .flow import analyze as analyze_flow
from .rules import ALL_RULES, rule_by_code

__all__ = [
    "ALL_RULES",
    "FLOW_CODES",
    "FLOW_RULES",
    "Finding",
    "FlowConfig",
    "LintResult",
    "ModuleContext",
    "Rule",
    "Severity",
    "analyze_flow",
    "lint_paths",
    "lint_source",
    "rule_by_code",
]

"""Whole-program flow analysis on top of reprolint.

Where :mod:`repro.lint.rules` checks one file at a time, this package
proves cross-module properties of the simulator — the invariants that
hold *between* components, which is where distributed-DNS bugs live:

* **FLOW001** (:mod:`.rng`) — every ``random.Random(...)`` (and numpy
  generator) is seeded by a value that provably derives from the
  deployment/experiment seed, traced through assignments and call
  edges (a helper is judged by what its callers pass it).
* **FLOW002** (:mod:`.purity`) — nothing reachable from the event-loop
  tick / ``respond`` / probe hot paths calls into the real world
  (wall clock, sleeps, entropy, file/OS/socket/console I/O).
* **FLOW003** (:mod:`.parallel`) — no code reachable from an
  experiment work unit mutates module-level state, the property that
  keeps ``--jobs 1`` and ``--jobs N`` byte-identical (allowlisting the
  guarded ``telemetry.state`` session pattern).

All three emit standard :class:`~repro.lint.core.Finding` objects
carrying a **call-chain witness** (entry point -> ... -> offending
function), so inline suppressions, ``--select``, and JSON output work
unchanged. Run via ``python -m repro.lint --flow src`` or
``lint_paths(..., flow=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import Finding, ModuleContext, Severity
from ..suppress import parse_suppressions
from .graph import ProjectModel, build_model, module_name_for
from .parallel import check_parallel_safety
from .purity import check_hot_path_purity
from .rng import check_rng_provenance


@dataclass(frozen=True)
class FlowConfig:
    """Project-specific knobs for the whole-program analyses.

    The defaults describe the ``repro`` tree; tests point the same
    analyses at fixture packages by overriding roots and packages.
    """

    #: Dotted package roots that participate in the project model.
    packages: tuple[str, ...] = ("repro",)
    #: Module prefixes exempt from FLOW001 (offline CLI tooling whose
    #: fixed bench seeds are deliberate).
    rng_exempt: tuple[str, ...] = ("repro.tools.",)
    #: Project-internal ``module:qualname`` ids FLOW001 treats as
    #: seed-provenance roots: their first argument must derive from
    #: the deployment seed, exactly like an RNG constructor's. The
    #: DNSSEC key-derivation root is registered because a constant key
    #: seed would pin the zone's key hierarchy across reseeded runs.
    seed_roots: tuple[str, ...] = ("repro.dnssec.keys:derive_keypair",)
    #: ``module:qualname`` fnmatch patterns rooting the FLOW002
    #: hot-path reachability: the event-loop tick, the authoritative
    #: respond/probe path, the machine ingress path, the resolver, and
    #: the wire codec every query crosses in wire mode.
    hot_roots: tuple[str, ...] = (
        "repro.netsim.clock:EventLoop.run",
        "repro.netsim.clock:EventLoop.run_until",
        "repro.netsim.clock:PeriodicTask._fire",
        "repro.server.engine:AuthoritativeEngine.respond",
        "repro.server.engine:AuthoritativeEngine.respond_probe",
        "repro.server.machine:NameserverMachine.receive_query",
        "repro.server.machine:NameserverMachine.health_probe",
        "repro.resolver.resolver:RecursiveResolver.resolve",
        "repro.resolver.resolver:RecursiveResolver.handle_datagram",
        "repro.resolver.service:ResolverService.handle_datagram",
        "repro.dnscore.message:Message.to_wire",
        "repro.dnscore.message:Message.from_wire",
    )
    #: Patterns rooting the FLOW003 work-unit reachability: experiment
    #: entry points, the parallel runner's unit pipeline and every
    #: unit function its table dispatches to.
    workunit_roots: tuple[str, ...] = (
        "repro.experiments.*:run",
        "repro.experiments.parallel:run_unit",
        "repro.experiments.parallel:_unit_*",
        "repro.experiments.fig8_failover:run_case",
        "repro.experiments.resilience_scorecard:run_unit",
    )
    #: Modules whose module-level state is a sanctioned, guarded
    #: session pattern (writes to or inside them are FLOW003-exempt).
    state_allowlist: tuple[str, ...] = ("repro.telemetry.state",)


DEFAULT_CONFIG = FlowConfig()


class FlowRule:
    """Metadata stub so flow analyses appear in the rule catalogue."""

    code = ""
    name = ""
    severity = Severity.ERROR
    description = ""
    scopes: tuple[str, ...] = ("src/repro/",)


class RngProvenanceRule(FlowRule):
    code = "FLOW001"
    name = "rng-seed-provenance"
    description = ("Whole-program: every random.Random(...) / numpy "
                   "generator seed must derive from the deployment "
                   "seed, traced through assignments and call edges; "
                   "registered seed-provenance roots (the DNSSEC "
                   "key-derivation entry point) carry the same "
                   "contract. Fixed-constant seeds flag too: they "
                   "silently ignore experiment reseeding.")


class HotPathPurityRule(FlowRule):
    code = "FLOW002"
    name = "hot-path-purity"
    description = ("Whole-program: no wall-clock, sleep, entropy, or "
                   "file/OS/socket/console I/O reachable from the "
                   "event-loop tick / respond / probe hot paths; "
                   "findings carry the call-chain witness.")


class ParallelSafetyRule(FlowRule):
    code = "FLOW003"
    name = "parallel-unit-safety"
    description = ("Whole-program: code reachable from experiment work "
                   "units must not mutate module-level state, or "
                   "--jobs 1 and --jobs N diverge (the guarded "
                   "telemetry.state session pattern is allowlisted).")


FLOW_RULES: tuple[type[FlowRule], ...] = (
    RngProvenanceRule,
    HotPathPurityRule,
    ParallelSafetyRule,
)

FLOW_CODES: tuple[str, ...] = tuple(r.code for r in FLOW_RULES)


def analyze(contexts: list[ModuleContext],
            config: FlowConfig = DEFAULT_CONFIG,
            codes: set[str] | None = None) -> list[Finding]:
    """Run the whole-program analyses over parsed module contexts.

    ``codes`` restricts which FLOW rules run (``None`` = all). Inline
    ``# reprolint: disable=FLOW00x`` suppressions at the offending
    line apply exactly as they do for per-file rules.
    """
    wanted = set(FLOW_CODES) if codes is None else set(codes)
    if not wanted:
        return []
    model = build_model(contexts, config.packages)
    findings: list[Finding] = []
    if RngProvenanceRule.code in wanted:
        findings.extend(check_rng_provenance(model, config.rng_exempt,
                                             config.seed_roots))
    if HotPathPurityRule.code in wanted:
        findings.extend(check_hot_path_purity(model, config.hot_roots))
    if ParallelSafetyRule.code in wanted:
        findings.extend(check_parallel_safety(
            model, config.workunit_roots, config.state_allowlist))
    # Inline suppressions, by offending file and line.
    suppression_maps = {}
    kept: list[Finding] = []
    for finding in findings:
        smap = suppression_maps.get(finding.path)
        if smap is None:
            ctx = next((c for c in contexts if c.path == finding.path),
                       None)
            smap = parse_suppressions(ctx.source_lines if ctx else [])
            suppression_maps[finding.path] = smap
        if not smap.is_suppressed(finding.code, finding.line):
            kept.append(finding)
    return sorted(kept, key=Finding.sort_key)


__all__ = [
    "DEFAULT_CONFIG",
    "FLOW_CODES",
    "FLOW_RULES",
    "FlowConfig",
    "FlowRule",
    "HotPathPurityRule",
    "ParallelSafetyRule",
    "ProjectModel",
    "RngProvenanceRule",
    "analyze",
    "build_model",
    "module_name_for",
]

"""Deterministic parallel dispatch for the experiment runner.

The experiments are embarrassingly parallel at two granularities: whole
figures are independent of each other, and inside fig8/resilience the
individual cases/campaigns each build their own world from a fixed seed.
This module splits the suite into those independent **work units**, runs
them across a ``multiprocessing`` pool, and merges the per-unit payloads
back into figure results in a fixed order — so the output (and its JSON
serialization) is byte-identical to a serial run regardless of ``--jobs``
or scheduling.

Determinism rules (see docs/ARCHITECTURE.md, "Performance model"):

* Every unit derives all randomness from seeds in its params; nothing
  reads global RNG state, the wall clock, or os-level entropy.
* Units never share simulator state — each builds its own EventLoop and
  world, which is why splitting below the unit level (e.g. fig8 trials,
  which reuse one world) is not allowed.
* Merges consume unit payloads in declaration order, never completion
  order. ``pool.starmap`` already guarantees ordered results.

This module lives in ``repro.experiments`` (driver code), not in a
simulation package, so the reprolint LOOP002 import ban on concurrency
primitives inside sim code does not apply — and must stay that way.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from typing import Callable, ContextManager, NamedTuple

from ..analysis.report import ExperimentResult
from ..netsim.builder import InternetParams
from . import (
    anycast_quality,
    enduser_latency,
    fig1_qps,
    fig2_skew,
    fig3_per_resolver,
    fig4_stability,
    fig8_failover,
    fig9_decision_tree,
    fig10_nxdomain,
    fig11_speedup,
    fig12_restime,
    resilience_scorecard,
    taxonomy,
    text_stats,
)


def _fig8_params(fast: bool) -> fig8_failover.Fig8Params:
    if fast:
        return fig8_failover.Fig8Params(
            n_pops=10, n_vantage=12, trials=3,
            internet=InternetParams(n_tier1=4, n_tier2=12, n_stub=40),
            measure_window=25.0, converge_time=25.0)
    return fig8_failover.Fig8Params()


def _sole_payload(fast: bool, payloads: list) -> ExperimentResult:
    (result,) = payloads
    return result


def _unit_fig3(fast: bool, part: int) -> ExperimentResult:
    return fig3_per_resolver.run(n_resolvers=6_000 if fast else 20_000)


def _unit_fig4(fast: bool, part: int) -> ExperimentResult:
    return fig4_stability.run(n_resolvers=6_000 if fast else 20_000)


def _unit_fig8(fast: bool, part: int):
    return fig8_failover.run_case(_fig8_params(fast), part)


def _merge_fig8(fast: bool, payloads: list) -> ExperimentResult:
    return fig8_failover.assemble(_fig8_params(fast), *payloads)


def _unit_fig10(fast: bool, part: int) -> ExperimentResult:
    if fast:
        return fig10_nxdomain.run(fig10_nxdomain.Fig10Params(
            attack_rates=(0.0, 400.0, 1_500.0, 3_600.0, 6_000.0),
            measure_seconds=8.0, warmup_seconds=3.0))
    return fig10_nxdomain.run()


def _unit_fig10_signed(fast: bool, part: int) -> ExperimentResult:
    if fast:
        return fig10_nxdomain.run_signed(fig10_nxdomain.Fig10SignedParams(
            attack_rates=(0.0, 3_600.0),
            measure_seconds=6.0, warmup_seconds=2.0))
    return fig10_nxdomain.run_signed()


def _unit_taxonomy(fast: bool, part: int) -> ExperimentResult:
    return taxonomy.run(phase_seconds=4.0 if fast else 12.0)


def _unit_resilience(fast: bool, part: int) -> ExperimentResult:
    params = (resilience_scorecard.ScorecardParams.fast() if fast
              else resilience_scorecard.ScorecardParams())
    return resilience_scorecard.run_unit(params, part)


def _merge_resilience(fast: bool, payloads: list) -> ExperimentResult:
    return resilience_scorecard.assemble(payloads)


class Figure(NamedTuple):
    """How one figure splits into work units and merges back."""

    #: (fast, part) -> that unit's payload (type depends on the figure).
    run: Callable[[bool, int], object]
    #: How many independent units the figure has, at either scale.
    parts: int = 1
    #: (fast, payloads in unit order) -> the figure's result.
    merge: Callable[[bool, list], ExperimentResult] = _sole_payload


#: label -> its work units, in report order. A figure with a ``--fast``
#: scale or several parts is a named ``_unit_*`` function; one with
#: neither is its own ``run()``. Plain counts, so listing the units
#: builds no world.
FIGURES: dict[str, Figure] = {
    "fig1": Figure(lambda fast, part: fig1_qps.run()),
    "fig2": Figure(lambda fast, part: fig2_skew.run()),
    "fig3": Figure(_unit_fig3),
    "fig4": Figure(_unit_fig4),
    "fig8": Figure(_unit_fig8, 2, _merge_fig8),
    "fig9": Figure(lambda fast, part: fig9_decision_tree.run()),
    "fig10": Figure(_unit_fig10),
    "fig10-signed": Figure(_unit_fig10_signed),
    "fig11": Figure(lambda fast, part: fig11_speedup.run()),
    "fig12": Figure(lambda fast, part: fig12_restime.run()),
    "taxonomy": Figure(_unit_taxonomy),
    "anycast-quality": Figure(lambda fast, part: anycast_quality.run()),
    "enduser": Figure(lambda fast, part: enduser_latency.run()),
    "resilience": Figure(_unit_resilience, resilience_scorecard.unit_count(),
                         _merge_resilience),
    "text": Figure(lambda fast, part: text_stats.run()),
}

#: Figure labels in report order.
JOB_ORDER = tuple(FIGURES)


def select_labels(only: list[str] | None) -> tuple[str, ...]:
    """Validate and order a ``--only`` selection against JOB_ORDER."""
    if only is None:
        return JOB_ORDER
    unknown = sorted(set(only) - set(JOB_ORDER))
    if unknown:
        raise ValueError(
            f"unknown experiment labels: {', '.join(unknown)} "
            f"(choose from {', '.join(JOB_ORDER)})")
    return tuple(label for label in JOB_ORDER if label in only)


def work_units(fast: bool,
               only: list[str] | None = None) -> list[tuple[str, int]]:
    """All (label, part) work units for one suite run, in order (the
    split is the same at either scale)."""
    return [(label, part) for label in select_labels(only)
            for part in range(FIGURES[label].parts)]


def run_unit(unit: tuple[str, int], fast: bool):
    """Execute one work unit; the payload type depends on the figure.

    Top-level (picklable) so it can serve as the pool worker. Workers
    are fully seeded: every experiment derives its randomness from the
    seed in its params, so a unit's payload does not depend on which
    process runs it.
    """
    label, part = unit
    return FIGURES[label].run(fast, part)


def merge_label(label: str, payloads: list, fast: bool) -> ExperimentResult:
    """Combine one figure's unit payloads (in unit order) into its result."""
    return FIGURES[label].merge(fast, payloads)


def run_parallel(fast: bool, jobs: int,
                 progress: Callable[[str, ExperimentResult], None]
                 | None = None,
                 only: list[str] | None = None) -> list[ExperimentResult]:
    """Run the whole suite across ``jobs`` worker processes.

    Results come back in figure order and are merged label by label;
    ``progress`` (if given) fires once per completed figure, in order.
    """
    units = work_units(fast, only)
    with multiprocessing.Pool(processes=jobs) as pool:
        payloads = pool.starmap(run_unit, [(u, fast) for u in units])
    by_label: dict[str, list] = {}
    for (label, _part), payload in zip(units, payloads):
        by_label.setdefault(label, []).append(payload)
    results = []
    for label in select_labels(only):
        result = merge_label(label, by_label[label], fast)
        if progress is not None:
            progress(label, result)
        results.append(result)
    return results


def run_serial(fast: bool,
               progress: Callable[[str, ExperimentResult], None]
               | None = None,
               only: list[str] | None = None,
               wrap: Callable[[str], ContextManager]
               | None = None) -> list[ExperimentResult]:
    """Serial execution through the same unit/merge pipeline.

    Sharing the split-and-merge path with :func:`run_parallel` is what
    makes ``--jobs 1`` vs ``--jobs N`` equivalence a structural
    property instead of a coincidence.

    ``wrap`` (if given) supplies a context manager entered around each
    label's units — the runner uses it to scope a telemetry session per
    experiment. Telemetry is observational, so wrapping cannot change
    any result (the fast-suite equivalence tests enforce this).
    """
    if wrap is None:
        def wrap(label: str) -> ContextManager:
            return contextlib.nullcontext()
    results = []
    for label in select_labels(only):
        with wrap(label):
            parts = [run_unit(unit, fast)
                     for unit in work_units(fast, [label])]
        result = merge_label(label, parts, fast)
        if progress is not None:
            progress(label, result)
        results.append(result)
    return results

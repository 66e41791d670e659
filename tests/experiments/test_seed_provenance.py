"""Seed provenance, observed: every RNG a run builds moves with its seed.

Each figure and one campaign of each scorecard suite runs at two seeds
through its own ``run(seed=...)`` / ``params.seed`` entry while every
``random.Random``, ``numpy.random.default_rng`` and DNSSEC
``derive_keypair`` call is recorded with its call site and arguments. A
site's n-th call that got the same arguments at both seeds ignores the
seed — a constant, however many helper parameters it travelled through —
and fails the test. Scales are the smallest that enter every
construction site; nothing here reads a result.
"""

import contextlib
import random
import sys
import textwrap
from unittest import mock

import numpy.random
import pytest

import repro.dnssec.keys
from repro.experiments import (
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
    parallel,
    resilience_scorecard,
    taxonomy,
    text_stats,
)
from repro.netsim.builder import InternetParams
from repro.platform.deployment import AkamaiDNSDeployment

SEEDS = (42, 43)

#: What a seed must reach: (module, attribute) of each constructor.
WATCHED = ((random, "Random"), (numpy.random, "default_rng"),
           (repro.dnssec.keys, "derive_keypair"))


@contextlib.contextmanager
def recording(log: list[tuple[str, str]]):
    """Append ``(file:line of the caller, repr of the arguments)`` to
    ``log`` for every call of a watched constructor inside the block."""
    def recorded(real):
        def construct(*args, **kwargs):
            frame = sys._getframe(1)
            log.append((f"{frame.f_code.co_filename}:{frame.f_lineno}",
                        repr((args, kwargs))))
            return real(*args, **kwargs)
        return construct

    with contextlib.ExitStack() as stack:
        for module, attribute in WATCHED:
            stack.enter_context(mock.patch.object(
                module, attribute, recorded(getattr(module, attribute))))
        yield


def seed_blind_sites(unit) -> list[str]:
    """Run ``unit(seed)`` at two seeds; the construction sites where
    some call got the same arguments both times."""
    by_site: list[dict[str, list[str]]] = []
    for seed in SEEDS:
        log: list[tuple[str, str]] = []
        with recording(log):
            unit(seed)
        sites: dict[str, list[str]] = {}
        for site, arguments in log:
            sites.setdefault(site, []).append(arguments)
        by_site.append(sites)
    first, second = by_site
    assert first, "the unit built no RNG: nothing was watched"
    return [f"{site} {a}" for site, calls in first.items()
            for a, b in zip(calls, second.get(site, ())) if a == b]


_NET = InternetParams(n_tier1=4, n_tier2=8, n_stub=24)


def _fig11(seed):
    return fig11_speedup.Fig11Params(
        seed=seed, n_probes=20, n_edges=20, n_resolvers=500,
        internet=InternetParams(n_tier1=4, n_tier2=10, n_stub=40))


def _text_with_the_clock_stopped(seed):
    # text's platform third simulates 47,000 s (4.9 s a seed) after the
    # last RNG it builds is built; the same sites are entered without.
    with mock.patch.object(AkamaiDNSDeployment, "run_until",
                           lambda self, deadline: None):
        text_stats.run(seed=seed)


def _campaign(suite, name):
    index = [entry.name for entry
             in resilience_scorecard.SUITES[suite]].index(name)
    return lambda seed: resilience_scorecard.run_unit(
        resilience_scorecard.ScorecardParams.fast(seed=seed), index,
        suite=suite)


#: label -> run it at a seed. Every ``parallel.FIGURES`` label has a row
#: (checked below), so a figure that cannot be handed a seed cannot ship.
#: Of each scorecard suite, the campaign that builds the most RNGs
#: (``resilience`` is the standard suite: the one with an attack flood).
UNITS = {
    "fig1": lambda seed: fig1_qps.run(seed=seed),
    "fig2": lambda seed: fig2_skew.run(seed=seed, n_resolvers=200),
    "fig3": lambda seed: fig3_per_resolver.run(seed=seed, n_resolvers=200),
    "fig4": lambda seed: fig4_stability.run(seed=seed, n_resolvers=200),
    "fig8": lambda seed: fig8_failover.run(fig8_failover.Fig8Params(
        seed=seed, n_pops=6, n_vantage=8, trials=1, internet=_NET,
        measure_window=15.0, converge_time=15.0)),
    "fig9": lambda seed: fig9_decision_tree.run(seed=seed),
    "fig10": lambda seed: fig10_nxdomain.run(fig10_nxdomain.Fig10Params(
        seed=seed, attack_rates=(0.0, 1_500.0, 6_000.0),
        measure_seconds=0.5, warmup_seconds=0.2)),
    "fig10-signed": lambda seed: fig10_nxdomain.run_signed(
        fig10_nxdomain.Fig10SignedParams(
            seed=seed, attack_rates=(1_500.0,), measure_seconds=0.5,
            warmup_seconds=0.2)),
    "fig11": lambda seed: fig11_speedup.run(_fig11(seed)),
    "fig12": lambda seed: fig12_restime.run(_fig11(seed)),
    "taxonomy": lambda seed: taxonomy.run(seed=seed, phase_seconds=0.3),
    "anycast-quality": lambda seed: anycast_quality.run(
        anycast_quality.AnycastQualityParams(
            seed=seed, n_pops=6, n_clients=10, internet=_NET)),
    "enduser": lambda seed: enduser_latency.run(
        enduser_latency.EndUserParams(seed=seed, lookups_per_client=5)),
    "resilience": _campaign("standard", "defense-guardrail"),
    "text": _text_with_the_clock_stopped,
    "scorecard --dnssec": _campaign("dnssec", "dnssec-expiry-rollback"),
    "scorecard --gray": _campaign("gray", "gray-corruption"),
}


def test_every_figure_and_suite_has_a_row():
    assert set(UNITS) == set(parallel.FIGURES) | {
        f"scorecard --{suite}" for suite in resilience_scorecard.SUITES
        if suite != "standard"}


@pytest.mark.parametrize("label", UNITS)
def test_every_rng_moves_with_the_seed(label):
    assert seed_blind_sites(UNITS[label]) == []


class TestRecorder:
    """The recorder on a throw-away module."""

    @staticmethod
    def unit(body):
        scope: dict = {}
        exec(compile(textwrap.dedent(body), "throwaway.py", "exec"), scope)
        return scope["run"]

    def test_constant_seed_at_the_construction_site(self):
        run = self.unit("""\
            import random
            def run(seed):
                jitter = random.Random(1234)
                return random.Random(seed).random() + jitter.random()
            """)
        assert seed_blind_sites(run) == ["throwaway.py:3 ((1234,), {})"]

    def test_constant_seed_through_a_helper_parameter(self):
        run = self.unit("""\
            import random
            def stream(value):
                return random.Random(value)
            def run(seed):
                return stream(seed).random() + stream(1234).random()
            """)
        assert seed_blind_sites(run) == ["throwaway.py:3 ((1234,), {})"]

    def test_unseeded_construction(self):
        run = self.unit("""\
            import numpy as np
            def run(seed):
                return np.random.default_rng().random()
            """)
        assert seed_blind_sites(run) == ["throwaway.py:3 ((), {})"]

    def test_seeds_derived_from_params_seed_pass(self):
        run = self.unit("""\
            import random
            from dataclasses import dataclass
            @dataclass
            class Params:
                seed: int
            def build(params):
                root = random.Random(params.seed)
                return [random.Random(root.randrange(2**31)),
                        random.Random(params.seed ^ 0x5EED)]
            def run(seed):
                return build(Params(seed))
            """)
        assert seed_blind_sites(run) == []

"""Retry backoff, deterministic jitter, and the resolution deadline."""

import random

import pytest

from repro.dnscore import RCode, RType, name
from repro.netsim import EventLoop
from repro.resolver import RecursiveResolver
from repro.resolver.resolver import (
    BACKOFF_FACTOR,
    JITTER,
    MAX_BACKOFF_MULTIPLE,
    _Resolution,
)


class NullNetwork:
    """Swallows every datagram: the always-unresponsive Internet."""

    def __init__(self):
        self.sent = []

    def attach_endpoint(self, host_id, endpoint):
        pass

    def send(self, dgram):
        self.sent.append(dgram)


def make_resolver(loop=None, host_id="resolver-0", **kwargs):
    loop = loop or EventLoop()
    return RecursiveResolver(loop, NullNetwork(), host_id,
                             {name("."): ["198.41.0.4"]},
                             rng=random.Random(1), **kwargs)


def timeout_for_attempt(resolver, attempt):
    resolution = _Resolution(resolver, name("www.ex.net"), RType.A,
                             lambda r: None)
    resolution.attempts = attempt
    return resolver._attempt_timeout(resolution)


class TestBackoff:
    def test_first_attempt_is_exactly_the_base_timeout(self):
        resolver = make_resolver(timeout=2.0)
        assert timeout_for_attempt(resolver, 1) == 2.0

    def test_retries_grow_geometrically_within_jitter_bounds(self):
        resolver = make_resolver(timeout=2.0)
        for attempt in range(2, 9):
            scale = min(BACKOFF_FACTOR ** (attempt - 1),
                        MAX_BACKOFF_MULTIPLE)
            timeout = timeout_for_attempt(resolver, attempt)
            assert 2.0 * scale * (1 - JITTER) <= timeout \
                <= 2.0 * scale * (1 + JITTER)

    def test_backoff_caps_at_max_multiple(self):
        resolver = make_resolver(timeout=2.0)
        ceiling = 2.0 * MAX_BACKOFF_MULTIPLE * (1 + JITTER)
        assert timeout_for_attempt(resolver, 20) <= ceiling

    def test_jitter_is_deterministic_per_host(self):
        a = make_resolver(host_id="resolver-a")
        b = make_resolver(host_id="resolver-a")
        assert [timeout_for_attempt(a, n) for n in range(1, 8)] == \
            [timeout_for_attempt(b, n) for n in range(1, 8)]

    def test_jitter_desynchronizes_different_hosts(self):
        a = make_resolver(host_id="resolver-a")
        b = make_resolver(host_id="resolver-b")
        ours = [timeout_for_attempt(a, n) for n in range(2, 8)]
        theirs = [timeout_for_attempt(b, n) for n in range(2, 8)]
        assert ours != theirs

    def test_backoff_consumes_no_rng(self):
        # Jitter must come from a hash, not the RNG stream, so adding
        # retries anywhere cannot perturb unrelated random draws.
        resolver = make_resolver()
        state = resolver.rng.getstate()
        for attempt in range(1, 10):
            timeout_for_attempt(resolver, attempt)
        assert resolver.rng.getstate() == state


class TestResolutionDeadline:
    def test_attempt_timeout_clamped_to_remaining_budget(self):
        resolver = make_resolver(timeout=2.0)
        resolution = _Resolution(resolver, name("www.ex.net"), RType.A,
                                 lambda r: None)
        resolution.attempts = 5
        resolution.result.started_at = -29.0   # 1 s of budget left
        assert resolver._attempt_timeout(resolution) == pytest.approx(1.0)
        resolution.result.started_at = -40.0   # budget exhausted
        assert resolver._attempt_timeout(resolution) == pytest.approx(0.05)

    def test_unresponsive_world_servfails_at_the_deadline(self):
        loop = EventLoop()
        resolver = make_resolver(loop, timeout=2.0)
        results = []
        resolver.resolve(name("www.ex.net"), RType.A, results.append)
        loop.run_until(120.0)
        assert len(results) == 1
        result = results[0]
        assert result.rcode == RCode.SERVFAIL
        assert result.timeouts >= 2
        # Finishes at the deadline, not after exhausting a full
        # un-clamped retry ladder.
        assert result.duration == pytest.approx(30.0, abs=0.2)

    def test_fast_failure_paths_unchanged_by_deadline(self):
        # A single lost query still fails over after exactly the base
        # timeout — backoff only shapes the later attempts.
        loop = EventLoop()
        resolver = make_resolver(loop, timeout=2.0)
        network = resolver.network
        resolver.resolve(name("www.ex.net"), RType.A, lambda r: None)
        assert len(network.sent) == 1
        loop.run_until(2.0)
        assert len(network.sent) == 2

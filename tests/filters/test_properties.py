"""Property-based tests on filter and queue invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import RType, name
from repro.filters import (
    QueryContext,
    QueuePolicy,
    RateLimitFilter,
)
from repro.resolver import DNSCache
from repro.dnscore import A, make_rrset
from repro.server.queues import PenaltyQueueRuntime

scores = st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False)


@given(scores)
def test_queue_policy_total(score):
    policy = QueuePolicy(max_scores=(0.0, 25.0, 60.0, 120.0), s_max=500.0)
    queue = policy.queue_for(score)
    if score >= policy.s_max:
        assert queue is None
    else:
        assert 0 <= queue < policy.queue_count


@given(st.lists(st.tuples(st.text(min_size=1, max_size=4), scores),
                min_size=1, max_size=60))
def test_queue_runtime_conservation(items):
    policy = QueuePolicy(max_scores=(0.0, 25.0, 60.0), s_max=200.0)
    runtime = PenaltyQueueRuntime(policy, max_depth_per_queue=10)
    accepted = sum(1 for item, score in items
                   if runtime.enqueue(item, score))
    served = 0
    while runtime.pop_next() is not None:
        served += 1
    stats = runtime.stats
    assert served == accepted
    assert accepted + stats.discarded_s_max + stats.dropped_full == \
        len(items)


@given(st.lists(st.tuples(st.text(min_size=1, max_size=4), scores),
                min_size=2, max_size=60))
def test_queue_runtime_priority_monotone(items):
    policy = QueuePolicy(max_scores=(0.0, 25.0, 60.0), s_max=200.0)
    runtime = PenaltyQueueRuntime(policy, max_depth_per_queue=100)
    for item, score in items:
        runtime.enqueue(item, score)
    indices = []
    while (popped := runtime.pop_next()) is not None:
        indices.append(popped[0])
    assert indices == sorted(indices)


@given(st.lists(st.floats(min_value=1e-4, max_value=5.0,
                          allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=60)
def test_leaky_bucket_level_never_negative(gaps):
    f = RateLimitFilter()
    now = 0.0
    for gap in gaps:
        now += gap
        f.score(QueryContext("src", name("x.com"), RType.A, now))
    bucket = f._buckets["src"]
    assert bucket.level >= 0.0
    assert bucket.learned_rate >= 0.0


@given(st.integers(min_value=0, max_value=3_600),
       st.integers(min_value=1, max_value=86_400))
def test_cache_ttl_aging_bounds(age, ttl):
    cache = DNSCache()
    rrset = make_rrset(name("x.com"), RType.A, ttl, [A("10.0.0.1")])
    cache.put(rrset, now=0.0)
    hit = cache.get(name("x.com"), RType.A, now=float(age))
    if age >= ttl:
        assert hit is None
    else:
        assert hit is not None
        assert 0 <= hit.ttl <= ttl
        assert hit.ttl == ttl - age

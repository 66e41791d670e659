"""Tests for the resolver cache."""

import random

import pytest

from repro.dnscore import A, AAAA, NS, RCode, RType, make_rrset, name
from repro.resolver import DNSCache


def a_rrset(owner, ttl=60, addr="10.0.0.1"):
    return make_rrset(name(owner), RType.A, ttl, [A(addr)])


class TestPositiveCache:
    def test_hit_within_ttl(self):
        cache = DNSCache()
        cache.put(a_rrset("x.com", ttl=60), now=0.0)
        hit = cache.get(name("x.com"), RType.A, now=30.0)
        assert hit is not None
        assert cache.hits == 1

    def test_ttl_ages(self):
        cache = DNSCache()
        cache.put(a_rrset("x.com", ttl=60), now=0.0)
        hit = cache.get(name("x.com"), RType.A, now=45.0)
        assert hit.ttl == 15

    def test_expiry(self):
        cache = DNSCache()
        cache.put(a_rrset("x.com", ttl=60), now=0.0)
        assert cache.get(name("x.com"), RType.A, now=60.0) is None
        assert cache.misses == 1

    def test_longer_ttl_replaces(self):
        cache = DNSCache()
        cache.put(a_rrset("x.com", ttl=10), now=0.0)
        cache.put(a_rrset("x.com", ttl=100, addr="10.0.0.2"), now=0.0)
        hit = cache.get(name("x.com"), RType.A, now=50.0)
        assert hit is not None
        assert hit.rdatas() == [A("10.0.0.2")]

    def test_shorter_ttl_does_not_replace(self):
        cache = DNSCache()
        cache.put(a_rrset("x.com", ttl=100), now=0.0)
        cache.put(a_rrset("x.com", ttl=5, addr="10.0.0.9"), now=0.0)
        hit = cache.get(name("x.com"), RType.A, now=50.0)
        assert hit.rdatas() == [A("10.0.0.1")]

    def test_eviction_caps_size(self):
        cache = DNSCache(max_entries=10)
        for i in range(50):
            cache.put(a_rrset(f"h{i}.com", ttl=1000), now=float(i))
        assert len(cache) <= 10

    def test_flush(self):
        cache = DNSCache()
        cache.put(a_rrset("x.com"), now=0.0)
        cache.flush()
        assert len(cache) == 0


class TestNegativeCache:
    def test_negative_hit(self):
        cache = DNSCache()
        cache.put_negative(name("gone.com"), RType.A, RCode.NXDOMAIN,
                           ttl=300, now=0.0)
        assert cache.get_negative(name("gone.com"), RType.A, 100.0) == \
            RCode.NXDOMAIN

    def test_negative_expiry(self):
        cache = DNSCache()
        cache.put_negative(name("gone.com"), RType.A, RCode.NXDOMAIN,
                           ttl=300, now=0.0)
        assert cache.get_negative(name("gone.com"), RType.A, 301.0) is None

    def test_positive_overrides_negative(self):
        cache = DNSCache()
        cache.put_negative(name("x.com"), RType.A, RCode.NXDOMAIN,
                           ttl=300, now=0.0)
        cache.put(a_rrset("x.com"), now=1.0)
        assert cache.get_negative(name("x.com"), RType.A, 2.0) is None
        assert cache.get(name("x.com"), RType.A, 2.0) is not None


class TestBound:
    """Both maps hold ``max_entries`` each, under one eviction rule:
    a full map drops what has expired, else its soonest-to-expire."""

    @staticmethod
    def fill(cache, kind, owner, ttl, now):
        if kind == "positive":
            cache.put(a_rrset(owner, ttl=ttl), now)
        else:
            cache.put_negative(name(owner), RType.A, RCode.NXDOMAIN,
                               ttl, now)

    @staticmethod
    def live(cache, kind, owners, now):
        read = cache.get if kind == "positive" else cache.get_negative
        return [o for o in owners
                if read(name(o), RType.A, now) is not None]

    @pytest.mark.parametrize("kind", ["positive", "negative"])
    def test_full_map_stays_at_the_bound(self, kind):
        cache = DNSCache(max_entries=4)
        owners = [f"h{i}.com" for i in range(50)]
        for i, owner in enumerate(owners):
            self.fill(cache, kind, owner, 1000, float(i))
        # Equal TTLs, later inserts expire later: the newest four stay.
        assert self.live(cache, kind, owners, 50.0) == owners[-4:]

    @pytest.mark.parametrize("kind", ["positive", "negative"])
    def test_expired_entries_go_before_live_ones(self, kind):
        cache = DNSCache(max_entries=3)
        self.fill(cache, kind, "soon.com", 20, 0.0)
        self.fill(cache, kind, "dead1.com", 5, 0.0)
        self.fill(cache, kind, "dead2.com", 5, 0.0)
        self.fill(cache, kind, "new.com", 100, 10.0)
        # soon.com expires first among the live, yet only the dead went.
        assert self.live(cache, kind, ["soon.com", "dead1.com",
                                       "dead2.com", "new.com"], 10.0) \
            == ["soon.com", "new.com"]


class TestDelegationLookup:
    def test_deepest_ns_wins(self):
        cache = DNSCache()
        cache.put(make_rrset(name("com"), RType.NS, 1000,
                             [NS(name("a.gtld.net"))]), now=0.0)
        cache.put(make_rrset(name("ex.com"), RType.NS, 1000,
                             [NS(name("ns1.ex.com"))]), now=0.0)
        cut, rrset = cache.best_delegation(name("www.ex.com"), 10.0)
        assert cut == name("ex.com")

    def test_falls_back_to_shallower(self):
        cache = DNSCache()
        cache.put(make_rrset(name("com"), RType.NS, 1000,
                             [NS(name("a.gtld.net"))]), now=0.0)
        cache.put(make_rrset(name("ex.com"), RType.NS, 10,
                             [NS(name("ns1.ex.com"))]), now=0.0)
        cut, _ = cache.best_delegation(name("www.ex.com"), 500.0)
        assert cut == name("com")

    def test_none_when_empty(self):
        assert DNSCache().best_delegation(name("a.b.c"), 0.0) is None


class TestCopyFreeRead:
    """``peek`` (navigation: no copy, stored TTL) against ``get`` (a copy
    with the TTL aged): same liveness, counters, expiry and eviction."""

    def test_seeded_interleaving_agrees_with_get(self):
        rng = random.Random(15)
        by_get, by_peek = DNSCache(max_entries=8), DNSCache(max_entries=8)
        owners = [name(f"h{i}.example") for i in range(12)]
        now = 0.0
        for _ in range(3000):
            now += rng.choice([0.0, 0.3, 1.0, 7.0])
            owner = rng.choice(owners)
            op = rng.random()
            if op < 0.3:
                ttl = rng.choice([1, 5, 20, 60])
                for cache in (by_get, by_peek):
                    rrset = a_rrset(str(owner), ttl, f"10.0.{ttl}.1")
                    cache.put(rrset, now)
            elif op < 0.4:
                ttl = rng.choice([2, 30])
                for cache in (by_get, by_peek):
                    cache.put_negative(owner, RType.A, RCode.NXDOMAIN,
                                       ttl, now)
            else:
                copy = by_get.get(owner, RType.A, now)
                entry = by_peek.peek(owner, RType.A, now)
                assert (copy is None) == (entry is None)
                if entry is not None:
                    assert copy.rdatas() == entry.rrset.rdatas()
                    assert copy.ttl == max(0, int(entry.expires_at - now))
                    assert copy.ttl <= entry.rrset.ttl
                    assert all(r.ttl == copy.ttl for r in copy.records)
                    assert all(r.ttl == entry.rrset.ttl
                               for r in entry.rrset.records)
                    assert entry.expires_at > now
                assert by_get.get_negative(owner, RType.A, now) == \
                    by_peek.get_negative(owner, RType.A, now)
            assert (by_get.hits, by_get.misses, len(by_get)) == \
                (by_peek.hits, by_peek.misses, len(by_peek))
            assert len(by_peek) <= 8
        assert by_get.hits > 200 and by_get.misses > 200

    def test_aging_never_touches_the_stored_entry(self):
        cache = DNSCache()
        cache.put(a_rrset("x.com", ttl=60), now=0.0)
        early = cache.get(name("x.com"), RType.A, now=10.0)
        late = cache.get(name("x.com"), RType.A, now=45.5)
        assert (early.ttl, late.ttl) == (50, 14)
        assert [r.ttl for r in late.records] == [14]
        stored = cache.peek(name("x.com"), RType.A, now=45.5).rrset
        assert stored.ttl == 60 and [r.ttl for r in stored.records] == [60]

    def test_mutating_a_returned_rrset_does_not_change_the_next_hit(self):
        cache = DNSCache()
        cache.put(a_rrset("x.com", ttl=60), now=0.0)
        handed_out = cache.get(name("x.com"), RType.A, now=1.0)
        handed_out.records.clear()
        handed_out.ttl = 0
        again = cache.get(name("x.com"), RType.A, now=1.0)
        assert again.ttl == 59 and again.rdatas() == [A("10.0.0.1")]

    def test_peek_expires_lazily_and_counts_like_get(self):
        cache = DNSCache()
        cache.put(a_rrset("x.com", ttl=5), now=0.0)
        assert cache.peek(name("x.com"), RType.A, now=4.9) is not None
        assert cache.peek(name("x.com"), RType.A, now=5.0) is None
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 0)

    def test_glue_reads_like_a_peek_per_target_and_type(self):
        """``glue`` against the loop it writes out: a ``peek`` of A then
        AAAA per NS target, in record order. Same addresses, address-less
        targets, counters, expiry and eviction over a seeded run."""
        rng = random.Random(38)
        by_glue, by_peek = DNSCache(max_entries=10), DNSCache(max_entries=10)
        targets = [name(f"ns{i}.example") for i in range(6)]
        ns = make_rrset(name("example"), RType.NS, 300,
                        [NS(t) for t in targets[:4]])
        now = 0.0
        for _ in range(3000):
            now += rng.choice([0.0, 0.4, 2.0, 9.0])
            if rng.random() < 0.4:
                target = rng.choice(targets)
                ttl = rng.choice([1, 4, 15])
                rrset = (make_rrset(target, RType.A, ttl,
                                    [A(f"10.1.{ttl}.{n}")
                                     for n in range(rng.randint(1, 3))])
                         if rng.random() < 0.6 else
                         make_rrset(target, RType.AAAA, ttl,
                                    [AAAA(f"2001:db8::{ttl}")]))
                for cache in (by_glue, by_peek):
                    cache.put(rrset, now)
                continue
            addresses = []
            glueless = by_glue.glue(ns, now, addresses)
            expected, missing = [], []
            for record in ns.records:
                found = False
                for rtype in (RType.A, RType.AAAA):
                    entry = by_peek.peek(record.rdata.target, rtype, now)
                    if entry is not None:
                        found = True
                        expected += [r.rdata.address
                                     for r in entry.rrset.records]
                if not found:
                    missing.append(record.rdata.target)
            assert (addresses, glueless) == (expected, missing)
            assert (by_glue.hits, by_glue.misses, len(by_glue)) == \
                (by_peek.hits, by_peek.misses, len(by_peek))
        assert by_glue.hits > 500 and by_glue.misses > 500

    def test_best_delegation_returns_the_stored_rrset(self):
        cache = DNSCache()
        ns = make_rrset(name("ex.com"), RType.NS, 1000,
                        [NS(name("ns1.ex.com"))])
        cache.put(ns, now=0.0)
        _cut, found = cache.best_delegation(name("www.ex.com"), 400.0)
        assert found is ns and found.ttl == 1000

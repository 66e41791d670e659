"""Tests for the allowlist and loyalty filters."""

from repro.dnscore import RType, name
from repro.filters import (
    AllowlistConfig,
    AllowlistFilter,
    LoyaltyConfig,
    LoyaltyFilter,
    QueryContext,
)


def ctx(source: str, now: float) -> QueryContext:
    return QueryContext(source=source, qname=name("ex.com"),
                        qtype=RType.A, now=now)


class TestAllowlistActivation:
    def make(self):
        config = AllowlistConfig(window_seconds=1.0, activate_qps=100.0,
                                 activate_unique_sources=50,
                                 deactivate_qps=10.0)
        return AllowlistFilter(config, allowlist={"good-1", "good-2"})

    def test_dormant_under_normal_load(self):
        f = self.make()
        for i in range(50):
            assert f.score(ctx("stranger", i * 0.1)) == 0.0
        assert not f.active

    def test_activates_on_volume_and_diversity(self):
        f = self.make()
        # 200 qps from 100 distinct sources.
        for i in range(400):
            f.score(ctx(f"bot-{i % 100}", i * 0.005))
        assert f.active

    def test_high_volume_low_diversity_does_not_activate(self):
        f = self.make()
        for i in range(400):
            f.score(ctx("single-source", i * 0.005))
        assert not f.active

    def test_active_penalizes_strangers_not_allowlisted(self):
        f = self.make()
        for i in range(400):
            f.score(ctx(f"bot-{i % 100}", i * 0.005))
        t = 400 * 0.005
        assert f.score(ctx("bot-7", t)) > 0
        assert f.score(ctx("good-1", t + 0.001)) == 0.0

    def test_deactivates_when_attack_subsides(self):
        f = self.make()
        for i in range(400):
            f.score(ctx(f"bot-{i % 100}", i * 0.005))
        assert f.active
        # Long quiet gap: rate in window collapses.
        f.score(ctx("late", 100.0))
        assert not f.active

    def test_refresh_replaces_list(self):
        f = self.make()
        f.refresh({"only-one"})
        assert f.allowlist == {"only-one"}
        f.add("two")
        assert "two" in f.allowlist


class TestLoyalty:
    def make(self):
        return LoyaltyFilter(LoyaltyConfig(maturity_seconds=100.0,
                                           memory_seconds=1000.0,
                                           min_history_sources=2))

    def test_primed_sources_are_loyal(self):
        f = self.make()
        f.prime("old-friend", when=0.0)
        f.prime("other", when=0.0)
        assert f.score(ctx("old-friend", 10.0)) == 0.0

    def test_new_source_penalized_once_history_exists(self):
        f = self.make()
        f.prime("a", 0.0)
        f.prime("b", 0.0)
        assert f.score(ctx("newcomer", 5.0)) > 0

    def test_cold_server_does_not_enforce(self):
        f = LoyaltyFilter(LoyaltyConfig(min_history_sources=10))
        assert f.score(ctx("anyone", 1.0)) == 0.0

    def test_attack_cannot_self_prime(self):
        f = self.make()
        f.prime("a", 0.0)
        f.prime("b", 0.0)
        # Rapid-fire queries from a spoofed source: stays disloyal until
        # maturity elapses.
        penalties = [f.score(ctx("spoofed", 5.0 + i * 0.1))
                     for i in range(100)]
        assert all(p > 0 for p in penalties)

    def test_source_earns_loyalty_after_maturity(self):
        f = self.make()
        f.prime("a", 0.0)
        f.prime("b", 0.0)
        f.score(ctx("patient", 0.0))
        assert f.score(ctx("patient", 150.0)) == 0.0

    def test_loyalty_expires_after_silence(self):
        f = self.make()
        f.prime("fickle", when=0.0)
        f.prime("other", when=0.0)
        assert f.score(ctx("fickle", 2000.0)) > 0

    def test_independent_per_instance(self):
        # Two nameservers learn independently (the catchment property).
        ns1, ns2 = self.make(), self.make()
        ns1.prime("r", 0.0)
        ns1.prime("x", 0.0)
        ns2.prime("y", 0.0)
        ns2.prime("z", 0.0)
        assert ns1.score(ctx("r", 1.0)) == 0.0
        assert ns2.score(ctx("r", 1.0)) > 0

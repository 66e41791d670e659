"""Tests for the allowlist and loyalty filters, at the platform's
operating point: the allowlist engages at 2,000 qps from 500 sources
over a 10 s window and stands down at 500 qps; loyalty takes an hour to
earn, lasts a week of silence, and is enforced once ten sources are
known."""

from repro.dnscore import RType, name
from repro.filters import AllowlistFilter, LoyaltyFilter, QueryContext


def ctx(source: str, now: float) -> QueryContext:
    return QueryContext(source=source, qname=name("ex.com"),
                        qtype=RType.A, now=now)


def flood(f, count, *, start=0.0, sources=1_000, qps=4_000.0):
    """``count`` queries at ``qps`` from ``sources`` distinct bots."""
    for i in range(count):
        f.score(ctx(f"bot-{i % sources}", start + i / qps))
    return start + count / qps


class TestAllowlistActivation:
    def make(self):
        return AllowlistFilter(allowlist={"good-1", "good-2"})

    def test_dormant_under_normal_load(self):
        f = self.make()
        for i in range(50):
            assert f.score(ctx("stranger", i * 0.1)) == 0.0
        assert not f.active

    def test_activates_on_volume_and_diversity(self):
        f = self.make()
        # 4,000 qps from 1,000 sources: the 10 s window's rate reaches
        # 2,000 qps with the 20,000th arrival and not before.
        now = flood(f, 19_000)
        assert not f.active
        flood(f, 1_001, start=now)
        assert f.active

    def test_high_volume_low_diversity_does_not_activate(self):
        f = self.make()
        flood(f, 21_000, sources=1)
        assert not f.active

    def test_active_penalizes_strangers_not_allowlisted(self):
        f = self.make()
        now = flood(f, 20_001)
        assert f.score(ctx("bot-7", now)) > 0
        assert f.score(ctx("good-1", now + 0.001)) == 0.0

    def test_deactivates_when_attack_subsides(self):
        f = self.make()
        now = flood(f, 20_001)
        assert f.active
        # The attack falls to 400 qps; once the window holds nothing
        # else the filter stands down.
        now = flood(f, 2_000, start=now, qps=400.0)
        assert f.active
        flood(f, 2_400, start=now, qps=400.0)
        assert not f.active

    def test_refresh_replaces_list(self):
        f = self.make()
        f.refresh({"only-one"})
        assert f.allowlist == {"only-one"}
        f.add("two")
        assert "two" in f.allowlist


HOUR = 3600.0
WEEK = 7 * 86400.0


def warm(*known):
    """A filter that knows ten sources from before the run, ``known``
    among them: enough history to enforce."""
    f = LoyaltyFilter()
    for source in [*known, *(f"local-{i}" for i in range(10))][:10]:
        f.prime(source, when=0.0)
    return f


class TestLoyalty:
    def test_primed_sources_are_loyal(self):
        assert warm("old-friend").score(ctx("old-friend", 10.0)) == 0.0

    def test_new_source_penalized_once_history_exists(self):
        assert warm().score(ctx("newcomer", 5.0)) > 0

    def test_cold_server_does_not_enforce(self):
        f = LoyaltyFilter()
        for i in range(8):
            f.prime(f"local-{i}", when=0.0)
        # Nine sources known after this query, ten after the next.
        assert f.score(ctx("anyone", 1.0)) == 0.0
        assert f.score(ctx("someone", 1.0)) == 0.0
        assert f.score(ctx("else", 1.0)) > 0

    def test_attack_cannot_self_prime(self):
        f = warm()
        # Rapid-fire queries from a spoofed source: stays disloyal until
        # maturity elapses.
        penalties = [f.score(ctx("spoofed", 5.0 + i * 0.1))
                     for i in range(100)]
        assert all(p > 0 for p in penalties)

    def test_source_earns_loyalty_after_maturity(self):
        f = warm()
        f.score(ctx("patient", 0.0))
        assert f.score(ctx("patient", HOUR - 1.0)) > 0
        assert f.score(ctx("patient", HOUR)) == 0.0

    def test_loyalty_expires_after_silence(self):
        f = warm("fickle", "steady")
        assert f.score(ctx("steady", WEEK)) == 0.0
        assert f.score(ctx("fickle", WEEK + 1.0)) > 0

    def test_independent_per_instance(self):
        # Two nameservers learn independently (the catchment property).
        ns1, ns2 = warm("r"), warm()
        assert ns1.score(ctx("r", 1.0)) == 0.0
        assert ns2.score(ctx("r", 1.0)) > 0

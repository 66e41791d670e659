"""Tests for penalty queues and the QoD firewall."""

import random

import pytest

from repro.dnscore import RType, name
from repro.filters import QueuePolicy
from repro.server import PenaltyQueueRuntime, QoDFirewall, QoDSignature
from repro.telemetry import state as telemetry_state


class TestPenaltyQueues:
    def make(self, depth=3):
        return PenaltyQueueRuntime(
            QueuePolicy(max_scores=(0.0, 10.0, 50.0), s_max=100.0),
            max_depth_per_queue=depth)

    def test_priority_order(self):
        q = self.make()
        q.enqueue("suspicious", 5.0)
        q.enqueue("clean", 0.0)
        q.enqueue("worst", 60.0)
        assert q.pop_next() == (0, "clean")
        assert q.pop_next() == (1, "suspicious")
        assert q.pop_next() == (2, "worst")
        assert q.pop_next() is None

    def test_fifo_within_queue(self):
        q = self.make()
        q.enqueue("first", 0.0)
        q.enqueue("second", 0.0)
        assert q.pop_next()[1] == "first"
        assert q.pop_next()[1] == "second"

    def test_s_max_discard(self):
        q = self.make()
        assert not q.enqueue("evil", 150.0)
        assert q.stats.discarded_s_max == 1
        assert not q

    def test_depth_limit(self):
        q = self.make(depth=2)
        assert q.enqueue("a", 0.0)
        assert q.enqueue("b", 0.0)
        assert not q.enqueue("c", 0.0)
        assert q.stats.dropped_full == 1
        # Other queues unaffected.
        assert q.enqueue("d", 20.0)

    def test_work_conserving(self):
        # Higher-penalty items are served when lower queues are empty.
        q = self.make()
        q.enqueue("bad", 60.0)
        assert q.pop_next() == (2, "bad")

    def test_clear_counts_losses(self):
        q = self.make()
        q.enqueue("a", 0.0)
        q.enqueue("b", 20.0)
        assert q.clear() == 2
        assert q.total_depth() == 0

    def test_stats_per_queue(self):
        q = self.make()
        q.enqueue("a", 0.0)
        q.enqueue("b", 5.0)
        q.pop_next()
        assert q.stats.enqueued_per_queue == [1, 1, 0]
        assert q.stats.served_per_queue == [1, 0, 0]


class _RecordLog:
    """Stands in for a telemetry session: logs every ``record``."""

    def __init__(self):
        self.calls = []

    def record(self, name, labels, value):
        self.calls.append((name, labels, value))


def test_depth_is_kept_not_summed_over_a_long_interleaving():
    """5,000 seeded enqueue / pop / clear steps: the running depth equals
    the sum over the queues after every step, and the rows are handed
    what the queue hooks were: the queue entered, and the depth after."""
    rng = random.Random(20)
    policy = QueuePolicy(max_scores=(0.0, 10.0, 50.0), s_max=100.0)
    q = PenaltyQueueRuntime(policy, max_depth_per_queue=6, owner="m9")
    model = [[] for _ in range(policy.queue_count)]
    log = _RecordLog()
    expected = []
    with telemetry_state.session(log):
        for step in range(5000):
            roll = rng.random()
            if roll < 0.55:
                score = rng.choice((0.0, 0.0, 5.0, 30.0, 70.0, 150.0))
                index = policy.queue_for(score)
                admitted = index is not None and len(model[index]) < 6
                assert q.enqueue(step, score) == admitted
                if admitted:
                    model[index].append(step)
                    expected += [
                        ("penalty_enqueued_total", ("m9", index), 1.0),
                        ("penalty_queue_depth", ("m9",),
                         float(sum(map(len, model))))]
            elif roll < 0.98:
                index = next((i for i, items in enumerate(model) if items),
                             None)
                want = None if index is None \
                    else (index, model[index].pop(0))
                assert q.pop_next() == want
                if want is not None:
                    expected.append(("penalty_queue_depth", ("m9",),
                                     float(sum(map(len, model)))))
            else:
                assert q.clear() == sum(map(len, model))
                model = [[] for _ in model]
            assert q.total_depth() == sum(
                q.depth(i) for i in range(policy.queue_count)) \
                == sum(map(len, model))
            assert bool(q) == any(model)
    assert log.calls == expected
    assert len(expected) > 3000 and q.stats.dropped_full > 0 \
        and q.stats.discarded_s_max > 0


class TestQoDFirewall:
    def test_rule_matches_similar_queries(self):
        fw = QoDFirewall(t_qod=60.0)
        fw.record_crash(name("bad.zone.example"), RType.TXT, now=0.0)
        # Same parent domain + type: dropped.
        assert fw.should_drop(name("bad.zone.example"), RType.TXT, 1.0)
        assert fw.should_drop(name("other.zone.example"), RType.TXT, 1.0)

    def test_dissimilar_queries_pass(self):
        fw = QoDFirewall(t_qod=60.0)
        fw.record_crash(name("bad.zone.example"), RType.TXT, now=0.0)
        assert not fw.should_drop(name("bad.zone.example"), RType.A, 1.0)
        assert not fw.should_drop(name("x.other.example"), RType.TXT, 1.0)

    def test_rule_expires_after_t_qod(self):
        fw = QoDFirewall(t_qod=60.0)
        fw.record_crash(name("bad.zone.example"), RType.TXT, now=0.0)
        assert fw.should_drop(name("bad.zone.example"), RType.TXT, 59.0)
        assert not fw.should_drop(name("bad.zone.example"), RType.TXT,
                                  61.0)
        assert fw.active_rules(61.0) == 0

    def test_crash_rule_runs_from_the_crash_time(self):
        fw = QoDFirewall()
        fw.record_crash(name("a.b.c"), RType.A, now=5.0)
        assert fw.active_rules(5.0) == 1
        assert fw.should_drop(name("a.b.c"), RType.A, 304.0)
        assert not fw.should_drop(name("a.b.c"), RType.A, 306.0)

    def test_signature_for_root(self):
        sig = QoDSignature.for_query(name("."), RType.ANY)
        assert sig.matches(name("."), RType.ANY)

    def test_drop_counter(self):
        fw = QoDFirewall(t_qod=60.0)
        fw.record_crash(name("q.z.example"), RType.TXT, now=0.0)
        fw.should_drop(name("q.z.example"), RType.TXT, 1.0)
        fw.should_drop(name("r.z.example"), RType.TXT, 2.0)
        assert fw.dropped == 2


class TestQoDExpiryBoundary:
    """Strict expiry: a rule installed at t is dead exactly at t + t_qod."""

    def test_query_exactly_at_deadline_passes(self):
        fw = QoDFirewall(t_qod=60.0)
        fw.install_rule(name("bad.zone.example"), RType.TXT, now=10.0)
        assert fw.should_drop(name("bad.zone.example"), RType.TXT, 69.999)
        # deadline <= now prunes: the boundary query is re-attempted.
        assert not fw.should_drop(name("bad.zone.example"), RType.TXT,
                                  70.0)

    def test_active_rules_boundary(self):
        fw = QoDFirewall(t_qod=60.0)
        fw.install_rule(name("bad.zone.example"), RType.TXT, now=0.0)
        assert fw.active_rules(59.999) == 1
        assert fw.active_rules(60.0) == 0

    def test_should_drop_prunes_expired_rules(self):
        fw = QoDFirewall(t_qod=60.0)
        fw.install_rule(name("bad.zone.example"), RType.TXT, now=0.0)
        # A non-matching query past the deadline still prunes the rule
        # from the table entirely (not merely filters it out).
        fw.should_drop(name("other.thing.example"), RType.A, 61.0)
        assert fw.active_rules(0.0) == 0

    def test_reinstall_of_expired_signature_refreshes_deadline(self):
        fw = QoDFirewall(t_qod=60.0)
        fw.install_rule(name("bad.zone.example"), RType.TXT, now=0.0)
        assert not fw.should_drop(name("bad.zone.example"), RType.TXT,
                                  60.0)
        fw.install_rule(name("bad.zone.example"), RType.TXT, now=60.0)
        assert fw.should_drop(name("bad.zone.example"), RType.TXT, 119.0)
        assert not fw.should_drop(name("bad.zone.example"), RType.TXT,
                                  120.0)

    def test_reinstall_of_live_signature_extends_deadline(self):
        fw = QoDFirewall(t_qod=60.0)
        fw.install_rule(name("bad.zone.example"), RType.TXT, now=0.0)
        fw.install_rule(name("bad.zone.example"), RType.TXT, now=30.0)
        assert fw.active_rules(0.0) == 1          # same signature, one rule
        assert fw.should_drop(name("bad.zone.example"), RType.TXT, 89.0)

    def test_remove_rule_twice_is_noop(self):
        fw = QoDFirewall(t_qod=60.0)
        sig = fw.install_rule(name("bad.zone.example"), RType.TXT,
                              now=0.0)
        fw.remove_rule(sig)
        fw.remove_rule(sig)
        assert fw.active_rules(1.0) == 0

"""Tests for the metadata bus and the quorum suspension coordinator."""

import random

import pytest

from repro.control import (
    CDN_CHANNEL,
    MULTICAST_CHANNEL,
    MetadataBus,
    QuorumSuspensionCoordinator,
)
from repro.netsim import EventLoop


class Recorder:
    def __init__(self):
        self.messages = []

    def receive_metadata_message(self, message):
        self.messages.append(message)


@pytest.fixture
def bus():
    loop = EventLoop()
    return loop, MetadataBus(loop, random.Random(3))


class TestMetadataBus:
    def test_multicast_is_fast(self, bus):
        loop, b = bus
        sub = Recorder()
        b.subscribe(MULTICAST_CHANNEL, sub)
        b.publish(MULTICAST_CHANNEL, "mapping", "global", {"v": 1})
        loop.run_until(1.0)
        assert len(sub.messages) == 1
        assert sub.messages[0].payload == {"v": 1}

    def test_cdn_channel_is_slower(self, bus):
        loop, b = bus
        fast, slow = Recorder(), Recorder()
        b.subscribe(MULTICAST_CHANNEL, fast)
        b.subscribe(CDN_CHANNEL, slow)
        b.publish(MULTICAST_CHANNEL, "mapping", "g", 1)
        b.publish(CDN_CHANNEL, "zone", "z", 2)
        loop.run_until(1.0)
        assert fast.messages and not slow.messages
        loop.run_until(25.0)
        assert slow.messages

    def test_unknown_channel_rejected(self, bus):
        loop, b = bus
        with pytest.raises(KeyError):
            b.publish("bogus", "k", "x", None)

    def test_input_delay_extra(self, bus):
        loop, b = bus
        normal, delayed = Recorder(), Recorder()
        b.subscribe(MULTICAST_CHANNEL, normal)
        b.subscribe(MULTICAST_CHANNEL, delayed, extra_delay=3600.0)
        b.publish(MULTICAST_CHANNEL, "mapping", "g", 1)
        loop.run_until(10.0)
        assert normal.messages and not delayed.messages
        loop.run_until(3700.0)
        assert delayed.messages
        assert delayed.messages[0].published_at < 1.0

    def test_partition_holds_and_flushes(self, bus):
        loop, b = bus
        sub = Recorder()
        b.subscribe(MULTICAST_CHANNEL, sub)
        b.set_partitioned(sub, True)
        b.publish(MULTICAST_CHANNEL, "mapping", "g", 1)
        b.publish(MULTICAST_CHANNEL, "mapping", "g", 2)
        loop.run_until(10.0)
        assert not sub.messages
        b.set_partitioned(sub, False)
        assert [m.payload for m in sub.messages] == [1, 2]

    def test_sequence_monotonic(self, bus):
        loop, b = bus
        sub = Recorder()
        b.subscribe(MULTICAST_CHANNEL, sub)
        for i in range(5):
            b.publish(MULTICAST_CHANNEL, "mapping", "g", i)
        loop.run_until(10.0)
        sequences = [m.sequence for m in sub.messages]
        assert sorted(sequences) == list(range(1, 6))


class TestQuorumCoordinator:
    def make(self, limit=2):
        loop = EventLoop()
        return loop, QuorumSuspensionCoordinator(loop, max_concurrent=limit)

    def test_grants_up_to_limit(self):
        loop, c = self.make(limit=2)
        assert c.request_suspension("m1")
        assert c.request_suspension("m2")
        assert not c.request_suspension("m3")
        assert c.active_suspensions() == {"m1", "m2"}

    def test_release_frees_slot(self):
        loop, c = self.make(limit=1)
        assert c.request_suspension("m1")
        assert not c.request_suspension("m2")
        c.release_suspension("m1")
        assert c.request_suspension("m2")

    def test_re_request_is_idempotent(self):
        loop, c = self.make(limit=1)
        assert c.request_suspension("m1")
        assert c.request_suspension("m1")
        assert len(c.active_suspensions()) == 1

    def test_lease_expiry_frees_slot(self):
        loop, c = self.make(limit=1)
        assert c.request_suspension("m1")
        loop.run_until(450.0)
        assert c.request_suspension("m2")

    def test_renew_extends_lease(self):
        loop, c = self.make(limit=1)
        assert c.request_suspension("m1")
        loop.run_until(240.0)
        assert c.renew("m1")
        loop.run_until(450.0)
        assert "m1" in c.active_suspensions()

    def test_minority_partition_denies(self):
        loop, c = self.make(limit=2)
        for i in range(3):
            c.set_replica_reachable(i, False)
        assert not c.request_suspension("m1")
        assert c.denials == 1

    def test_majority_partition_still_grants(self):
        loop, c = self.make(limit=2)
        c.set_replica_reachable(0, False)
        c.set_replica_reachable(1, False)
        assert c.request_suspension("m1")

    def test_quorum_size(self):
        _, c = self.make()
        assert c.quorum_size == 3

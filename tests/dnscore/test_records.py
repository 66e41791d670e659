"""Tests for ResourceRecord/RRset semantics."""

import pytest

from repro.dnscore import (
    A,
    Question,
    RClass,
    RType,
    ResourceRecord,
    RRset,
    make_rrset,
    name,
)


def record(owner="r.example", addr="10.0.0.1", ttl=300):
    return ResourceRecord(name(owner), RType.A, RClass.IN, ttl, A(addr))


class TestResourceRecord:
    def test_ttl_bounds(self):
        with pytest.raises(ValueError):
            record(ttl=-1)
        with pytest.raises(ValueError):
            record(ttl=2**31)
        assert record(ttl=2**31 - 1).ttl == 2**31 - 1

    def test_with_ttl_copies(self):
        original = record(ttl=300)
        aged = original.with_ttl(120)
        assert aged.ttl == 120
        assert original.ttl == 300
        assert aged.rdata == original.rdata

    def test_with_ttl_checks_the_range(self):
        original = record(ttl=300)
        with pytest.raises(ValueError):
            original.with_ttl(-1)
        with pytest.raises(ValueError):
            original.with_ttl(2**31)
        assert original.with_ttl(2**31 - 1) == record(ttl=2**31 - 1)
        assert hash(original.with_ttl(300)) == hash(original)

    def test_to_text(self):
        assert record().to_text() == "r.example. 300 IN A 10.0.0.1"


class TestRRset:
    def test_dedup_identical_rdata(self):
        rrset = RRset(name("r.example"), RType.A)
        rrset.add(record())
        rrset.add(record())
        assert len(rrset) == 1

    def test_mismatched_ttls_normalized_to_min(self):
        rrset = RRset(name("r.example"), RType.A)
        rrset.add(record(ttl=300))
        rrset.add(record(addr="10.0.0.2", ttl=60))
        assert rrset.ttl == 60
        assert all(r.ttl == 60 for r in rrset)

    def test_wrong_owner_rejected(self):
        rrset = RRset(name("r.example"), RType.A)
        with pytest.raises(ValueError):
            rrset.add(record(owner="other.example"))

    def test_wrong_type_rejected(self):
        rrset = RRset(name("r.example"), RType.AAAA)
        with pytest.raises(ValueError):
            rrset.add(record())

    def test_with_ttl_deep_copy(self):
        rrset = make_rrset(name("r.example"), RType.A, 300,
                           [A("10.0.0.1"), A("10.0.0.2")])
        aged = rrset.with_ttl(10)
        assert aged.ttl == 10
        assert all(r.ttl == 10 for r in aged)
        assert rrset.ttl == 300

    def test_rdatas_accessor(self):
        rrset = make_rrset(name("r.example"), RType.A, 300,
                           [A("10.0.0.1"), A("10.0.0.2")])
        assert rrset.rdatas() == [A("10.0.0.1"), A("10.0.0.2")]

    def test_key(self):
        rrset = RRset(name("r.example"), RType.A)
        assert rrset.key == (name("r.example"), RType.A, RClass.IN)


class TestQuestion:
    def test_str(self):
        q = Question(name("q.example"), RType.MX)
        assert str(q) == "q.example. IN MX"

    def test_equality_and_hash(self):
        a = Question(name("q.example"), RType.A)
        b = Question(name("Q.EXAMPLE"), RType.A)
        assert a == b
        assert hash(a) == hash(b)

    def test_immutable(self):
        q = Question(name("q.example"), RType.A)
        with pytest.raises(AttributeError):
            q.qclass = RClass.CH

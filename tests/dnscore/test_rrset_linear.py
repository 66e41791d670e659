"""RRset building against the algorithm it replaced.

``RRset.add`` used to rewrite every record of the set on every add, and
``_group_rrsets`` called it once per record: quadratic in the size of an
RRset. That version lives on here as the oracle. The linear one must
give the same set TTL, the same records in the same order and the same
TTL on every record, for any order of TTLs and any duplicate rdata.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import A, NS, RClass, ResourceRecord, RRset, RType, name
from repro.dnscore import make_rrset
from repro.dnscore.message import _group_rrsets


def reference_add(rrset: RRset, record: ResourceRecord) -> None:
    """``RRset.add`` as shipped before the linear version."""
    if (record.name, record.rtype, record.rclass) != rrset.key:
        raise ValueError("record does not belong to rrset")
    if record.rdata in (r.rdata for r in rrset.records):
        return
    if not rrset.records:
        rrset.ttl = record.ttl
    elif record.ttl != rrset.ttl:
        rrset.ttl = min(rrset.ttl, record.ttl)
    rrset.records.append(record)
    rrset.records[:] = [r.with_ttl(rrset.ttl) for r in rrset.records]


def reference_group(records: list[ResourceRecord]) -> list[RRset]:
    order, groups = [], {}
    for record in records:
        key = (record.name, record.rtype, record.rclass)
        if key not in groups:
            groups[key] = RRset(record.name, record.rtype, record.rclass)
            order.append(key)
        reference_add(groups[key], record)
    return [groups[key] for key in order]


OWNERS = [name("a.example"), name("b.example")]
#: Few distinct values, so duplicate rdata and equal TTLs are common.
_a = st.builds(lambda o, ttl, last: ResourceRecord(
    o, RType.A, RClass.IN, ttl, A(f"10.0.0.{last}")),
    st.sampled_from(OWNERS), st.sampled_from([0, 5, 30, 30, 300, 4000]),
    st.integers(1, 6))
_ns = st.builds(lambda o, ttl, i: ResourceRecord(
    o, RType.NS, RClass.IN, ttl, NS(name(f"ns{i}.example"))),
    st.sampled_from(OWNERS), st.sampled_from([5, 30, 4000]),
    st.integers(1, 4))
sections = st.lists(st.one_of(_a, _ns), max_size=30)


def shape(rrsets: list[RRset]) -> list:
    return [(s.key, s.ttl, s.records) for s in rrsets]


@settings(max_examples=300, deadline=None)
@given(sections)
def test_grouping_equals_the_quadratic_version(records):
    assert shape(_group_rrsets(records)) == shape(reference_group(records))


@settings(max_examples=300, deadline=None)
@given(sections)
def test_add_equals_the_quadratic_version(records):
    for owner in OWNERS:
        for rtype in (RType.A, RType.NS):
            mine = [r for r in records
                    if r.name == owner and r.rtype == rtype]
            new, old = RRset(owner, rtype), RRset(owner, rtype, ttl=77)
            for record in mine:
                new.add(record)
                reference_add(old, record)
                assert (new.ttl, new.records) == (old.ttl, old.records)


def test_rising_and_falling_ttl_orders():
    def records(ttls):
        return [ResourceRecord(OWNERS[0], RType.A, RClass.IN, ttl,
                               A(f"10.0.0.{i}")) for i, ttl in enumerate(ttls)]

    for ttls in ([10, 20, 30, 40], [40, 30, 20, 10], [30, 10, 30, 10, 5]):
        (grouped,) = _group_rrsets(records(ttls))
        assert grouped.ttl == min(ttls)
        assert [r.ttl for r in grouped.records] == [min(ttls)] * len(ttls)
        assert shape([grouped]) == shape(reference_group(records(ttls)))


def test_duplicate_rdata_keeps_the_first_record_and_ignores_its_ttl():
    first = ResourceRecord(OWNERS[0], RType.A, RClass.IN, 30, A("10.0.0.1"))
    again = ResourceRecord(OWNERS[0], RType.A, RClass.IN, 5, A("10.0.0.1"))
    (grouped,) = _group_rrsets([first, again])
    assert grouped.ttl == 30 and grouped.records == [first]
    rrset = make_rrset(OWNERS[0], RType.A, 30, [A("10.0.0.1"), A("10.0.0.1")])
    assert len(rrset) == 1


def test_an_equal_ttl_record_is_stored_as_is():
    # What makes building linear: nothing is rewritten unless the TTL drops.
    records = [ResourceRecord(OWNERS[0], RType.A, RClass.IN, 30,
                              A(f"10.0.0.{i}")) for i in range(13)]
    (grouped,) = _group_rrsets(records)
    assert all(a is b for a, b in zip(grouped.records, records))
    assert grouped.records is not records


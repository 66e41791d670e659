"""Work per wire query: one query of each of the eight classes the
``engine_wire`` bench workload mixes, decoded, answered and encoded
(``Message.from_wire`` -> ``respond`` -> ``to_wire``) under cProfile.

The bounds hold the calls made (``profile.calls_made``) and the
dataclass records built per query, the way
``tests/resolver/test_resolution_golden.py`` holds them per resolution.
"""

import cProfile

from repro.dnscore import EDNSOptions, Message, RType, make_query, name
from repro.dnscore.zonefile import parse_zone_text
from repro.dnssec.keys import KeyRing
from repro.dnssec.sign import ZoneSigner
from repro.server.engine import AuthoritativeEngine, ZoneStore
from repro.tools import profile

#: Per query over the eight classes, the new value + 5 %: calls made
#: (203.4 while a Name was an object holding its labels and a Question
#: a frozen dataclass; 166.5 since) and dataclass records (7.6, then
#: 6.6: a Question is a tuple).
CALLS_PER_QUERY = 174.8
RECORDS_PER_QUERY = 6.96

EDNS_SIZE = 1232
BIG = """\
$ORIGIN big.example.
$TTL 300
@ IN SOA ns1.big.example. admin.big.example. 1 7200 3600 1209600 300
@ IN NS ns1.big.example.
ns1 IN A 192.0.2.53
*.wild IN A 192.0.2.77
""" + "".join(f"h{i} IN A 10.0.{i // 250}.{i % 250 + 1}\n"
              for i in range(64)) + "".join(
    f"sub IN NS ns{i}.sub\nns{i}.sub IN A 192.0.2.{100 + i}\n"
    for i in range(1, 7)) + "".join(
    f"c{i} IN CNAME h{i}\n" for i in range(8)) + "".join(
    f"fat IN A 198.51.100.{i + 1}\n" for i in range(40))
SIGNED = """\
$ORIGIN signed.example.
$TTL 300
@ IN SOA ns1.signed.example. admin.signed.example. 1 7200 3600 1209600 300
@ IN NS ns1.signed.example.
ns1 IN A 192.0.2.53
""" + "".join(f"h{i} IN A 10.1.0.{i + 1}\n" for i in range(16))


def _engine() -> AuthoritativeEngine:
    signed = parse_zone_text(SIGNED)
    keys = KeyRing(42, name("signed.example"))
    ZoneSigner(keys).sign(signed, 0.0)
    engine = AuthoritativeEngine(ZoneStore([parse_zone_text(BIG), signed]))
    engine.dnssec.register_keyring(keys)
    return engine


def _wire(msg_id: int, qname: str, edns: EDNSOptions | None) -> bytes:
    return make_query(msg_id, name(qname), RType.A, edns=edns).to_wire()


def _queries(serial: int) -> list[tuple[bytes, int]]:
    """One query per class; ``serial`` makes the unique names unique."""
    plain = EDNSOptions(payload_size=EDNS_SIZE)
    signed = EDNSOptions(payload_size=EDNS_SIZE, dnssec_ok=True)
    return [(_wire(serial, qname, edns), 512 if edns is None else EDNS_SIZE)
            for qname, edns in (
                ("h1.big.example", plain),                      # hot
                (f"h{serial}.big.example", plain),              # cold
                (f"x{serial}.big.example", plain),              # nxdomain
                (f"w{serial}.wild.big.example", plain),         # wildcard
                (f"host{serial}.sub.big.example", plain),       # referral
                (f"c{serial % 8}.big.example", plain),          # cname
                (f"h{serial % 16}.signed.example", signed),     # signed
                ("fat.big.example", None))]                     # truncated


def _serve(engine: AuthoritativeEngine,
           queries: list[tuple[bytes, int]]) -> list[bytes]:
    return [engine.respond(Message.from_wire(query)).to_wire(max_size=limit)
            for query, limit in queries]


def test_work_per_wire_query_is_bounded():
    engine = _engine()
    # Steady state: the hot plan exists and the NXDOMAIN skeleton is
    # built, as they are a few queries into the bench's stream.
    for serial in range(10, 20):
        _serve(engine, _queries(serial))
    queries = _queries(40)
    profiler = cProfile.Profile()
    profiler.enable()
    responses = _serve(engine, queries)
    profiler.disable()
    assert [Message.from_wire(r).flags.tc for r in responses] == \
        [False] * 7 + [True]
    calls = profile.calls_made(profiler) / len(queries)
    records = sum(profile.records_by_class(profiler).values()) / len(queries)
    assert calls <= CALLS_PER_QUERY, calls
    assert records <= RECORDS_PER_QUERY, records

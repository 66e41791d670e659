"""The zone load path against its references.

The lexer and the name parser are held to the character loops kept in
``zonefile_oracle.py``; ``A`` is held to ``ipaddress``; and whole zones
are held to structural digests recorded before the regex lexer, the label
splitter and the dotted-quad check replaced those loops. The loaded zone
and its NXDOMAIN index are also held to a memory bound per name.
"""

import gc
import hashlib
import ipaddress
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dnscore import A, Name, NameError_, RType, Zone, parse_zone_text
from repro.dnscore.zone import NxdomainIndex
from repro.dnscore.zonefile import _tokenize_line

from . import zonefile_oracle as oracle


def _outcome(parse, text):
    """What ``parse(text)`` returns, or the class and message it raises."""
    try:
        return "returned", parse(text)
    except Exception as exc:  # the class and the message are what is compared
        return "raised", type(exc), str(exc)


# -- lexer ------------------------------------------------------------------

_LINE_CHARS = [" ", "\t", '"', "\\", ";", "(", ")", ".", "a", "Z", "0", "@",
               "\xe9", "\xa0", "\xff", "Ā", "€", "中"]


@given(st.text(st.sampled_from(_LINE_CHARS), max_size=40))
@settings(max_examples=500)
@example('  www  IN TXT "a \\" b" ( 300 ) ; "x')
@example('"\\')
@example('a(b)c "" ""d e"f" ;')
def test_lexer_matches_the_character_loop(line):
    assert _outcome(_tokenize_line, line) == \
        _outcome(oracle.tokenize_line, line)


# -- names ------------------------------------------------------------------

_NAME_PIECES = ["a", "B", "7", "-", ".", ".", "\\.", "\\\\", "\\065",
                "\\000", "\\255", "\\256", "\\999", "\\0", "\\12", "\\",
                "\\a", "\\ ", "\xe9", "\xa0", "\xb2", "Ā", "\\Ā", "x" * 30,
                "y" * 63]


def _labels(parse, text):
    return _outcome(lambda t: tuple(parse(t)), text)


def _oracle_labels(text):
    """The loop's labels or error, with its one named defect mended: a
    character above U+00FF escaped ``bytearray.append`` as a bare
    ``ValueError``; it is now the ``NameError_`` that names it."""
    outcome = _labels(oracle.name_from_text, text)
    if outcome[:2] == ("raised", ValueError) and "range(0, 256)" in outcome[2]:
        char = next(c for c in text if c > "\xff")
        return ("raised", NameError_,
                f"character {char!r} above U+00FF in {text!r}")
    return outcome


@given(st.lists(st.sampled_from(_NAME_PIECES), max_size=12).map("".join))
@settings(max_examples=500)
@example("a..b")
@example("a..")
@example("a\\.b.\\\\.c\\")
@example("\\999.." + "x" * 64)
@example("..\\12")
@example(".".join(["y" * 63] * 4))
@example("a..Ā\\999")
def test_name_labels_match_the_character_loop(text):
    """Same labels; an invalid name raises the same class and message,
    naming the same first defect."""
    assert _labels(Name.from_text, text) == _oracle_labels(text)


# -- dotted quad ------------------------------------------------------------

def _address(text):
    return _outcome(lambda t: A(t).octets, text)


def _ipaddress(text):
    return _outcome(lambda t: ipaddress.IPv4Address(t).packed, text)


def test_every_octet_spelling_gets_the_ipaddress_verdict():
    """0-999 with 0-2 leading zeros, first and last of the four."""
    for value in range(1000):
        for zeros in range(3):
            octet = "0" * zeros + str(value)
            for text in (f"{octet}.1.2.3", f"10.0.0.{octet}"):
                assert _address(text) == _ipaddress(text), text


_QUAD_CHARS = list("0123456789.") + [" ", "\n", "+", "-", "/", "a", "٣",
                                     "\xb2", "x"]


@given(st.one_of(
    st.text(st.sampled_from(_QUAD_CHARS), max_size=18),
    st.lists(st.integers(0, 300).map(str), min_size=3, max_size=5)
    .map(".".join)))
@settings(max_examples=500)
@example("1.2.3.4\n")
@example("")
@example("1.2.3.4/32")
@example("١.2.3.4")
def test_a_accepts_exactly_what_ipaddress_accepts(text):
    assert _address(text) == _ipaddress(text)


# -- whole zones --------------------------------------------------------------

def _zone_digest(zone: Zone) -> str:
    """SHA-256 over the zone's structure: rrsets in node order with their
    records, TTLs and A octets; the names, cuts and each non-empty node's
    types; and ``version``. Node keys are owner Names or label tuples
    sliced off them; both hash here as the plain label tuple."""
    sha = hashlib.sha256()

    def put(*fields):
        sha.update(repr(fields).encode())
        sha.update(b"\n")

    put("origin", tuple(zone.origin), zone.version)
    for owner, node in zone._nodes.items():
        for rrset in node:
            put("rrset", tuple(owner), int(rrset.rtype), tuple(rrset.name),
                int(rrset.rtype), int(rrset.rclass), rrset.ttl)
            for record in rrset.records:
                rdata = record.rdata
                put("record", tuple(record.name), int(record.rtype),
                    int(record.rclass), record.ttl, repr(rdata),
                    getattr(rdata, "octets", None))
    put("names", sorted(map(tuple, zone._nodes)))
    put("cuts", sorted(map(tuple, zone._cuts)))
    for owner, node in zone._nodes.items():
        if node:
            put("types", tuple(owner), sorted(int(rrset.rtype) for rrset in node))
    return sha.hexdigest()


def _wire_shaped_zone_text(seed: int) -> str:
    """A 20,000-host zone shaped like the benchmark's large zone: host A
    records, a wildcard, a delegation with glue, CNAMEs and a 40-record
    name."""
    rng = random.Random(seed)
    origin = "big.example"
    lines = [f"$ORIGIN {origin}.", "$TTL 300",
             f"@ IN SOA ns1.{origin}. admin.{origin}. 1 7200 3600 1209600 300",
             f"@ IN NS ns1.{origin}.", "ns1 IN A 192.0.2.53", "$TTL 300"]
    lines += [f"h{i} IN A 10.44.{rng.randrange(256)}.{rng.randrange(1, 255)}"
              for i in range(20_000)]
    lines.append("*.wild IN A 192.0.2.77")
    for i in range(1, 7):
        lines += [f"sub IN NS ns{i}.sub", f"ns{i}.sub IN A 192.0.2.{100 + i}"]
    lines += [f"c{i} IN CNAME h{rng.randrange(20_000)}" for i in range(256)]
    lines += [f"fat IN A 198.51.100.{i + 1}" for i in range(40)]
    return "\n".join(lines) + "\n"


def _provisioned_zone_text(monkeypatch) -> str:
    """The master-file text ``provision_enterprise`` hands the portal."""
    from repro.control import portal
    from repro.netsim.builder import InternetParams
    from repro.platform import AkamaiDNSDeployment, DeploymentParams

    texts = []

    def recording(text, origin=None):
        texts.append(text)
        return parse_zone_text(text, origin)

    monkeypatch.setattr(portal, "parse_zone_text", recording)
    dep = AkamaiDNSDeployment(DeploymentParams(
        seed=11, n_pops=4, deployed_clouds=4, machines_per_pop=1,
        pops_per_cloud=2, n_edge_servers=4,
        internet=InternetParams(n_tier1=4, n_tier2=8, n_stub=20),
        filters_enabled=False))
    rng = random.Random(77)
    body = "$TTL 30\n" + "".join(
        f"h{i} IN A 10.77.{rng.randrange(256)}.{rng.randrange(1, 255)}\n"
        for i in range(2_000))
    dep.provision_enterprise("steady", "steady.net", body)
    (text,) = texts
    return text


#: Recorded on the character-loop parser.
_DIGESTS = {
    "wire_shaped_42":
        "e7a14d5c09df3faa5ffa7481f91a94529ac7833dbb3f3f6ade2e4a26fb8e1f95",
    "wire_shaped_977":
        "6d4fa3bfdd34a73a4d7f8f6462c1ccc2849c26b93cf700e8ae7525bb04ff9b4c",
    "provisioned":
        "56c18a7a7dfbf48ee80deb91ed05941fe29b945365a4dfc496da2cd37c7cf282",
}


@pytest.mark.parametrize("seed", [42, 977])
def test_wire_shaped_zone_is_unchanged(seed):
    zone = parse_zone_text(_wire_shaped_zone_text(seed))
    assert zone.rrset_count() == 3 + 20_000 + 1 + 1 + 6 + 256 + 1
    assert zone.get_rrset(Name.from_text("fat.big.example"), RType.A) \
        .records[39].rdata.octets == bytes([198, 51, 100, 40])
    assert _zone_digest(zone) == _DIGESTS[f"wire_shaped_{seed}"]


def test_provisioned_zone_is_unchanged(monkeypatch):
    zone = parse_zone_text(_provisioned_zone_text(monkeypatch))
    assert _zone_digest(zone) == _DIGESTS["provisioned"]


#: Traced bytes per name the wire-shaped zone and its NXDOMAIN index may
#: hold. Three per-name indexes and a Name-to-labels index copy traced
#: about 940; one node table and an index set built from its keys about
#: 730; a Name that is its own label tuple, the key itself, 639.
_BYTES_PER_NAME = 671


def test_wire_shaped_zone_and_index_fit_the_memory_bound():
    text = _wire_shaped_zone_text(42)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        zone = parse_zone_text(text)
        index = zone.derived(NxdomainIndex)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) == len(zone.names()) == 20_268
    assert held / len(index) <= _BYTES_PER_NAME

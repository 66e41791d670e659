"""Tests for the master-file parser and serializer."""

import pytest

from repro.dnscore import (
    A,
    LookupStatus,
    MX,
    RType,
    ZoneFileError,
    name,
    parse_ttl,
    parse_zone_text,
    serialize_zone,
)

BASIC = """\
$ORIGIN ex.com.
$TTL 1h
@   IN SOA ns1.ex.com. admin.ex.com. (
        2020010101 ; serial
        7200       ; refresh
        3600       ; retry
        1209600    ; expire
        300 )      ; minimum
@   IN NS ns1
@   IN NS ns2.other.net.
www 300 IN A 192.0.2.1
    IN A 192.0.2.2
ftp IN CNAME www
@   IN MX 10 mail
mail IN A 192.0.2.25
txt IN TXT "hello world" "second string"
"""


class TestParsing:
    def test_basic_zone(self):
        z = parse_zone_text(BASIC)
        z.validate()
        assert z.origin == name("ex.com")
        assert z.serial == 2020010101

    def test_relative_names_resolved(self):
        z = parse_zone_text(BASIC)
        ns = z.get_rrset(name("ex.com"), RType.NS)
        targets = {r.rdata.target for r in ns}
        assert name("ns1.ex.com") in targets
        assert name("ns2.other.net") in targets

    def test_owner_repetition(self):
        z = parse_zone_text(BASIC)
        rrset = z.get_rrset(name("www.ex.com"), RType.A)
        assert len(rrset) == 2

    def test_ttl_inheritance_and_override(self):
        z = parse_zone_text(BASIC)
        assert z.get_rrset(name("www.ex.com"), RType.A).ttl == 300
        assert z.get_rrset(name("mail.ex.com"), RType.A).ttl == 3600

    def test_record_ttl_with_units_before_or_after_the_class(self):
        z = parse_zone_text(BASIC + "u1 1H30m IN A 192.0.2.7\n"
                                    "u2 IN 2d A 192.0.2.8\n")
        assert z.get_rrset(name("u1.ex.com"), RType.A).ttl == 5400
        assert z.get_rrset(name("u2.ex.com"), RType.A).ttl == 172800

    def test_mx_relative_exchange(self):
        z = parse_zone_text(BASIC)
        mx = z.get_rrset(name("ex.com"), RType.MX)
        assert mx.rdatas() == [MX(10, name("mail.ex.com"))]

    def test_txt_quoted_strings(self):
        z = parse_zone_text(BASIC)
        txt = z.get_rrset(name("txt.ex.com"), RType.TXT)
        assert txt.rdatas()[0].strings == (b"hello world", b"second string")

    def test_at_sign_is_origin(self):
        z = parse_zone_text(BASIC)
        assert z.get_rrset(name("ex.com"), RType.SOA) is not None

    def test_origin_argument(self):
        z = parse_zone_text(
            "@ IN SOA ns.a.com. h.a.com. 1 2 3 4 5\n@ IN NS ns.a.com.\n",
            origin="a.com")
        assert z.origin == name("a.com")

    def test_origin_directive_overrides(self):
        text = "$ORIGIN b.net.\n@ IN SOA ns.b.net. h.b.net. 1 2 3 4 5\n" \
               "@ IN NS ns.b.net.\n"
        z = parse_zone_text(text, origin="a.com")
        assert z.origin == name("b.net")

    def test_wildcard_record(self):
        text = BASIC + "* IN A 198.51.100.1\n"
        z = parse_zone_text(text)
        assert z.lookup(name("rand.ex.com"), RType.A).status == \
            LookupStatus.SUCCESS


class TestErrors:
    def test_no_origin(self):
        with pytest.raises(ZoneFileError):
            parse_zone_text("www IN A 1.2.3.4\n")

    def test_unknown_directive(self):
        with pytest.raises(ZoneFileError):
            parse_zone_text("$BOGUS x\n" + BASIC)

    def test_unbalanced_paren(self):
        with pytest.raises(ZoneFileError):
            parse_zone_text("$ORIGIN a.com.\n@ IN SOA ns. h. ( 1 2 3 4 5\n")

    def test_missing_type(self):
        with pytest.raises(ZoneFileError) as exc:
            parse_zone_text("$ORIGIN a.com.\nwww 300 IN\n")
        assert exc.value.line == 2

    def test_bad_rdata(self):
        with pytest.raises(ZoneFileError):
            parse_zone_text("$ORIGIN a.com.\nwww IN A not-an-ip\n")

    def test_empty_file(self):
        with pytest.raises(ZoneFileError):
            parse_zone_text("; just a comment\n")

    def test_first_record_without_owner(self):
        with pytest.raises(ZoneFileError):
            parse_zone_text("$ORIGIN a.com.\n    IN A 1.2.3.4\n")

    @pytest.mark.parametrize("line,message", [
        ("a" * 64 + " IN A 192.0.2.9", "label exceeds 63 octets"),
        ("a..b IN A 192.0.2.9", "empty label in 'a..b'"),
        ("www IN CNAME a..b", "empty label in 'a..b'"),
        ("www IN CNAME a..b.", "empty label in 'a..b.'"),
        ("www IN NSEC a..b. A", "bad NSEC rdata: empty label in 'a..b.'"),
        ("$ORIGIN a..b.", "empty label in 'a..b.'"),
        ("Ā IN A 192.0.2.9", "character 'Ā' above U+00FF"),
    ])
    def test_a_bad_name_is_reported_with_its_line(self, line, message):
        with pytest.raises(ZoneFileError) as exc:
            parse_zone_text(BASIC + line + "\n")
        assert exc.value.line == BASIC.count("\n") + 1
        assert message in str(exc.value)


class TestTrailingBackslashes:
    """A final dot ends the name unless an odd run of backslashes
    escapes it; an odd run at the very end escapes nothing."""

    def test_escaped_backslash_before_the_final_dot_is_absolute(self):
        z = parse_zone_text(BASIC + "alias IN CNAME a\\\\.\n")
        cname = z.get_rrset(name("alias.ex.com"), RType.CNAME)
        assert tuple(cname.rdatas()[0].target) == (b"a\\",)

    def test_escaped_final_dot_is_part_of_a_relative_label(self):
        z = parse_zone_text(BASIC + "w\\. IN A 192.0.2.9\n")
        assert z.get_rrset(name("w\\..ex.com"), RType.A) is not None

    def test_a_backslash_at_the_end_of_a_name_dangles(self):
        with pytest.raises(ZoneFileError) as exc:
            parse_zone_text(BASIC + "w\\ IN A 192.0.2.9\n")
        assert exc.value.line == BASIC.count("\n") + 1
        assert "dangling escape" in str(exc.value)


class TestSerialization:
    def test_roundtrip(self):
        z = parse_zone_text(BASIC)
        z2 = parse_zone_text(serialize_zone(z))
        assert z2.origin == z.origin
        assert z2.rrset_count() == z.rrset_count()
        for rrset in z.iter_rrsets():
            other = z2.get_rrset(rrset.name, rrset.rtype)
            assert other is not None
            assert sorted(map(repr, other.rdatas())) == \
                sorted(map(repr, rrset.rdatas()))


class TestTTLParsing:
    @pytest.mark.parametrize("text,expected", [
        ("300", 300),
        ("1h", 3600),
        ("1h30m", 5400),
        ("2d", 172800),
        ("1w", 604800),
        ("90s", 90),
    ])
    def test_units(self, text, expected):
        assert parse_ttl(text) == expected

    def test_bad_ttl(self):
        with pytest.raises(ZoneFileError):
            parse_ttl("abc")
        with pytest.raises(ZoneFileError):
            parse_ttl("1h30")

"""Tests for domain name handling."""

import importlib

import pytest

from repro.dnscore import Name, NameError_, ROOT, name


class TestParsing:
    def test_simple_name(self):
        n = name("www.example.com")
        assert tuple(n) == (b"www", b"example", b"com")

    def test_trailing_dot_optional(self):
        assert name("example.com.") == name("example.com")

    def test_root(self):
        assert name(".") is ROOT
        assert name("") is ROOT
        assert ROOT.is_root

    def test_case_folding(self):
        assert name("WWW.Example.COM") == name("www.example.com")
        assert hash(name("A.b")) == hash(name("a.B"))

    def test_escaped_dot(self):
        n = name(r"a\.b.example.com")
        assert n[0] == b"a.b"
        assert len(n) == 3

    def test_decimal_escape(self):
        n = name(r"a\065b.com")
        assert n[0] == b"aab"  # \065 = 'A', case-folded

    def test_decimal_escape_out_of_range(self):
        with pytest.raises(NameError_):
            name(r"a\999.com")

    def test_dangling_escape(self):
        with pytest.raises(NameError_):
            name("abc\\")

    def test_character_above_latin1_rejected(self):
        with pytest.raises(NameError_, match="character 'Ā' above U\\+00FF"):
            name("a.bĀ.com")

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            name("a..b.com")

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            name("a" * 64 + ".com")

    def test_label_max_length_ok(self):
        n = name("a" * 63 + ".com")
        assert len(n[0]) == 63

    def test_name_too_long(self):
        label = "a" * 63
        with pytest.raises(NameError_):
            name(".".join([label] * 5))


class TestStructure:
    def test_parent(self):
        assert name("www.example.com").parent() == name("example.com")

    def test_root_has_no_parent(self):
        with pytest.raises(NameError_):
            ROOT.parent()

    def test_ancestors(self):
        chain = list(name("a.b.com").ancestors())
        assert chain == [name("a.b.com"), name("b.com"), name("com"), ROOT]

    def test_subdomain(self):
        assert name("a.b.example.com").is_subdomain_of(name("example.com"))
        assert name("example.com").is_subdomain_of(name("example.com"))
        assert not name("example.com").is_subdomain_of(name("a.example.com"))
        assert not name("badexample.com").is_subdomain_of(name("example.com"))

    def test_everything_under_root(self):
        assert name("x.y").is_subdomain_of(ROOT)

    def test_zone_text_joins_relative_names_to_the_origin(self):
        origin = name("ex.com")
        assert Name.from_zone_text("WWW.a", origin) == name("www.a.ex.com")
        assert Name.from_zone_text("www.other.", origin) is name("www.other")

    def test_prepend(self):
        assert name("ex.com").prepend("api") == name("api.ex.com")

    def test_wildcard(self):
        w = name("*.ex.com")
        assert w.is_wildcard
        assert not name("ex.com").is_wildcard

    def test_wire_length(self):
        assert ROOT.wire_length() == 1
        assert name("ab.cd").wire_length() == 1 + 3 + 3


class TestOrderingAndDisplay:
    def test_canonical_ordering(self):
        # RFC 4034: order by reversed labels.
        names = [name("z.com"), name("a.org"), name("a.com"), name("com")]
        ordered = sorted(names)
        assert ordered == [name("com"), name("a.com"), name("z.com"),
                           name("a.org")]

    def test_str_roundtrip(self):
        for text in ["example.com.", "a.b.c.d.", "."]:
            assert str(name(text)) == text

    def test_str_escapes_special(self):
        n = Name((b"a.b", b"com"))
        assert str(n) == "a\\.b.com."
        assert name(str(n)) == n

    def test_str_escapes_nonprintable(self):
        n = Name((b"\x07", b"com"))
        assert "\\007" in str(n)
        assert name(str(n)) == n

    def test_immutable(self):
        n = name("ex.com")
        with pytest.raises(AttributeError):
            n._labels = ()


class TestOneKey:
    """A name is its label tuple: one key in every map."""

    def test_hashes_and_compares_as_its_labels(self):
        n = name("www.ex.com")
        labels = (b"www", b"ex", b"com")
        assert hash(n) == hash(labels) and n == labels
        assert {labels: 1}[n] == 1 and {n: 1}[labels] == 1
        assert type(n[1:]) is tuple and {name("ex.com"): 2}[n[1:]] == 2

    def test_ordering_stays_canonical(self):
        assert name("z.com") < name("a.org")
        assert name("a.org") > name("z.com")
        assert name("com") <= name("a.com") and name("a.com") >= name("com")

    def test_ordering_against_a_label_tuple_is_canonical(self):
        # Tuple order would put (b"z", b"com") after (b"a", b"org").
        labels = (b"z", b"com")
        assert name("a.org") > labels and labels < name("a.org")
        assert name("z.com") <= labels <= name("z.com")
        assert sorted([name("a.org"), labels, name("com")]) == \
            [name("com"), labels, name("a.org")]

    def test_text_memo_is_bounded(self):
        module = importlib.import_module("repro.dnscore.name")
        for i in range(module._TEXT_MAX + 10):
            str(Name((b"m%d" % i, b"memo")))
        assert 0 < len(module._TEXT) <= module._TEXT_MAX

"""Tests for seed-derived DNSSEC key material."""

from repro.dnscore import RType, name
from repro.dnssec.keys import (
    FLAG_KSK,
    FLAG_ZSK,
    KeyRing,
    derive_keypair,
    toy_signature,
)

ORIGIN = name("ex.com")


class TestDerivation:
    def test_same_inputs_same_key(self):
        a = derive_keypair(42, ORIGIN, FLAG_ZSK, 0)
        b = derive_keypair(42, ORIGIN, FLAG_ZSK, 0)
        assert a.secret == b.secret
        assert a.public_key == b.public_key
        assert a.key_tag == b.key_tag

    def test_distinct_inputs_distinct_keys(self):
        base = derive_keypair(42, ORIGIN, FLAG_ZSK, 0)
        variants = [
            derive_keypair(43, ORIGIN, FLAG_ZSK, 0),
            derive_keypair(42, name("other.com"), FLAG_ZSK, 0),
            derive_keypair(42, ORIGIN, FLAG_KSK, 0),
            derive_keypair(42, ORIGIN, FLAG_ZSK, 1),
        ]
        for other in variants:
            assert other.secret != base.secret
            assert other.key_tag != base.key_tag

    def test_ksk_flag_and_repr(self):
        ksk = derive_keypair(1, ORIGIN, FLAG_KSK, 0)
        zsk = derive_keypair(1, ORIGIN, FLAG_ZSK, 0)
        assert ksk.is_ksk and not zsk.is_ksk
        assert "KSK" in repr(ksk) and "ZSK" in repr(zsk)


class TestToySignature:
    def test_sensitive_to_data_and_key(self):
        key = derive_keypair(1, ORIGIN, FLAG_ZSK, 0)
        other = derive_keypair(2, ORIGIN, FLAG_ZSK, 0)
        sig = key.sign(b"payload")
        assert sig == toy_signature(key.public_key, b"payload")
        assert sig != key.sign(b"payloae")
        assert sig != other.sign(b"payload")


class TestKeyRing:
    def test_initial_inventory(self):
        ring = KeyRing(7, ORIGIN)
        assert ring.zone_signer.flags == FLAG_ZSK
        assert ring.active_ksk.flags == FLAG_KSK
        assert set(ring.published) == {ring.zone_signer, ring.active_ksk}
        assert ring.dnskey_signers == [ring.active_ksk]

    def test_mint_advances_index(self):
        ring = KeyRing(7, ORIGIN)
        first = ring.mint(FLAG_ZSK)
        second = ring.mint(FLAG_ZSK)
        assert first.index == 1
        assert second.index == 2
        assert first.key_tag != second.key_tag
        # Minting does not publish.
        assert first not in ring.published

    def test_publish_and_withdraw(self):
        ring = KeyRing(7, ORIGIN)
        successor = ring.mint(FLAG_ZSK)
        ring.publish(successor)
        ring.publish(successor)  # idempotent
        assert ring.published.count(successor) == 1
        ring.withdraw(ring.zone_signer)
        assert ring.zone_signer not in ring.published
        ring.withdraw(ring.zone_signer)  # idempotent

    def test_dnskey_rrset_is_deterministic(self):
        a = KeyRing(7, ORIGIN)
        b = KeyRing(7, ORIGIN)
        rrset_a = a.dnskey_rrset(3600)
        rrset_b = b.dnskey_rrset(3600)
        assert rrset_a.rtype is RType.DNSKEY
        assert rrset_a.name == ORIGIN
        assert rrset_a.rdatas() == rrset_b.rdatas()
        # ZSKs (flag 256) sort before KSKs (flag 257).
        flags = [r.rdata.flags for r in rrset_a.records]
        assert flags == sorted(flags)

"""Seed-derived DNSSEC key material.

Every key pair is a pure function of ``(deployment seed, zone origin,
role, index)``: re-running an experiment with the same seed mints
byte-identical keys on every machine, with no OS entropy and no key
distribution problem — exactly the property the rest of the simulator
already holds for traffic and topology. The "private key" is a SHA-256
secret; the DNSKEY "public key" is a digest commitment to it; a
signature is a keyed digest over the canonical RRset encoding (see
:mod:`.sign`), verifiable from the commitment alone. None of this is
cryptographically meaningful — it is deterministic structure with the
right wire shapes and failure modes (wrong key => tag and digest
mismatch, expired window => validation failure).
"""

from __future__ import annotations

import hashlib

from ..dnscore import DNSKEY, RRset, RType, make_rrset
from ..dnscore.name import Name

#: Algorithm number carried in DNSKEY/RRSIG records. 253 is PRIVATEDNS
#: (RFC 4034 appendix A.1.1), the registry's escape hatch for private
#: algorithms — honest labelling for toy signatures.
TOY_ALGORITHM = 253

#: DNSKEY flag values (RFC 4034 section 2.1.1): zone key, and zone key
#: with the Secure Entry Point bit.
FLAG_ZSK = 256
FLAG_KSK = 257

#: Protocol field is always 3 (RFC 4034 section 2.1.2).
PROTOCOL = 3

_SIG_LEN = 16


class KeyPair:
    """One KSK or ZSK: seed-derived secret plus its DNSKEY commitment."""

    __slots__ = ("origin", "flags", "index", "secret", "public_key",
                 "rdata", "key_tag")

    def __init__(self, origin: Name, flags: int, index: int,
                 secret: bytes) -> None:
        self.origin = origin
        self.flags = flags
        self.index = index
        self.secret = secret
        self.public_key = hashlib.sha256(
            b"repro-dnssec-pub|" + secret).digest()[:16]
        self.rdata = DNSKEY(flags, PROTOCOL, TOY_ALGORITHM, self.public_key)
        self.key_tag = self.rdata.key_tag()

    @property
    def is_ksk(self) -> bool:
        return self.flags == FLAG_KSK

    def sign(self, data: bytes) -> bytes:
        """Keyed digest over ``data``, recomputable from the DNSKEY."""
        return toy_signature(self.public_key, data)

    def __repr__(self) -> str:
        role = "KSK" if self.is_ksk else "ZSK"
        return (f"KeyPair({role} {self.origin} #{self.index} "
                f"tag={self.key_tag})")


def toy_signature(public_key: bytes, data: bytes) -> bytes:
    """The simulation's signature primitive.

    Anyone holding the DNSKEY can recompute it — there is deliberately
    no secrecy, only determinism and sensitivity to every covered byte.
    """
    return hashlib.sha256(
        b"repro-dnssec-sig|" + public_key + b"|" + data).digest()[:_SIG_LEN]


def derive_keypair(seed: int, origin: Name, flags: int,
                   index: int = 0) -> KeyPair:
    """Mint the ``index``-th key of a role for a zone, from the seed.

    This is the seed-provenance root of the signing path: the seed test
    (tests/experiments/test_seed_provenance.py) watches its arguments
    move with the deployment seed, as it does RNG constructions'.
    """
    material = (f"repro-dnssec|{seed}|{origin}|{flags}|{index}"
                .encode("ascii", "backslashreplace"))
    return KeyPair(origin, flags, index, hashlib.sha256(material).digest())


class KeyRing:
    """The key inventory of one zone, as the signer sees it.

    Separates the three roles a rollover moves independently:
    ``published`` (DNSKEYs present in the zone), ``zone_signer`` (the
    ZSK covering ordinary RRsets), and ``dnskey_signers`` (the KSKs —
    plural during a double-signature rollover — covering the DNSKEY
    RRset itself).
    """

    def __init__(self, seed: int, origin: Name) -> None:
        self.seed = seed
        self.origin = origin
        self._next_index = {FLAG_ZSK: 1, FLAG_KSK: 1}
        self.zone_signer = derive_keypair(seed, origin, FLAG_ZSK, 0)
        self.active_ksk = derive_keypair(seed, origin, FLAG_KSK, 0)
        self.published: list[KeyPair] = [self.active_ksk, self.zone_signer]
        self.dnskey_signers: list[KeyPair] = [self.active_ksk]

    def mint(self, flags: int) -> KeyPair:
        """Derive the next key of a role (successor for a rollover)."""
        index = self._next_index[flags]
        self._next_index[flags] = index + 1
        return derive_keypair(self.seed, self.origin, flags, index)

    def publish(self, key: KeyPair) -> None:
        if key not in self.published:
            self.published.append(key)

    def withdraw(self, key: KeyPair) -> None:
        if key in self.published:
            self.published.remove(key)

    def dnskey_rrset(self, ttl: int) -> RRset:
        """The apex DNSKEY RRset for the currently published keys."""
        ordered = sorted(self.published,
                         key=lambda k: (k.flags, k.key_tag, k.index))
        return make_rrset(self.origin, RType.DNSKEY, ttl,
                          [k.rdata for k in ordered])

    def __repr__(self) -> str:
        tags = ",".join(str(k.key_tag) for k in self.published)
        return f"KeyRing({self.origin} published=[{tags}])"

"""Deterministic DNSSEC pipeline for the simulated platform.

Real DNSSEC exists to make zone data verifiable by parties who only
ever see responses; the simulation needs the *systems* consequences of
that — bigger responses, denial-of-existence shape under random-qname
floods, key-lifecycle operations riding the release train — without a
crypto library or wall-clock validity windows. So:

* :mod:`.keys` derives KSK/ZSK pairs from the deployment seed; a
  "signature" is a keyed digest over the RFC 4034 canonical encoding of
  the covered RRset, verifiable from the DNSKEY commitment alone.
* :mod:`.sign` signs whole zones (apex DNSKEY, per-RRset RRSIG with
  sim-time inception/expiry, sorted NSEC chain with type bitmaps) and
  re-signs incrementally on update, bumping ``Zone.version`` through
  the normal mutation path so every downstream cache invalidates.
* :mod:`.denial` serves negative answers in two selectable modes: the
  precomputed NSEC chain, or compact per-query minimally-covering NSEC
  ("black lies") that keeps negative state O(1) under unique-qname
  attack traffic.
* :mod:`.rollover` runs ZSK pre-publish and KSK double-signature
  rollovers as canaried release trains on the PR-5 rollout coordinator.
"""

from .keys import (
    FLAG_KSK,
    FLAG_ZSK,
    TOY_ALGORITHM,
    KeyPair,
    KeyRing,
    derive_keypair,
)
from .denial import (
    DenialMode,
    NsecChainIndex,
    chain_denial,
    compact_denial,
)
from .sign import (
    SigningPolicy,
    SignStats,
    ZoneSigner,
    canonical_rrset_bytes,
    covering_rrsigs,
    make_rrsig,
    verify_message,
    verify_rrsig,
    zone_is_signed,
)
# Rollover rides the control-plane release train, whose machinery
# imports the server package; the server engine in turn imports this
# package for denial serving. So :mod:`.rollover` is not re-exported
# here: import it by its module path.

__all__ = [
    "DenialMode",
    "FLAG_KSK",
    "FLAG_ZSK",
    "KeyPair",
    "KeyRing",
    "NsecChainIndex",
    "SignStats",
    "SigningPolicy",
    "TOY_ALGORITHM",
    "ZoneSigner",
    "canonical_rrset_bytes",
    "chain_denial",
    "compact_denial",
    "covering_rrsigs",
    "derive_keypair",
    "make_rrsig",
    "verify_message",
    "verify_rrsig",
    "zone_is_signed",
]

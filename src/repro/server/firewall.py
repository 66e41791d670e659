"""Query-of-death containment (paper section 4.2.4).

When the nameserver detects an unrecoverable fault while processing a
query, it writes the offending DNS payload to disk before dying; a
separate process inserts a firewall rule dropping *similar* queries so
the restarted nameserver is not immediately re-crashed. Rules are broad
by design (they may drop false positives), so each expires after
``t_qod`` seconds — the nameserver then re-attempts such queries,
limiting the crash rate to at most once per ``t_qod``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dnscore.name import Name
from ..dnscore.rrtypes import RType
from ..telemetry import state as _telemetry


@dataclass(frozen=True, slots=True)
class QoDSignature:
    """What the kernel-level rule matches: the query's shape, not its bits.

    The rule is intentionally broader than the exact packet — it matches
    the (parent domain, qtype) pair — because QoDs arise from corner-case
    code paths that nearby queries would also hit.
    """

    parent: Name
    qtype: RType

    @classmethod
    def for_query(cls, qname: Name, qtype: RType) -> "QoDSignature":
        parent = qname.parent() if not qname.is_root else qname
        return cls(parent, qtype)

    def matches(self, qname: Name, qtype: RType) -> bool:
        return qtype == self.qtype and qname.is_subdomain_of(self.parent)


class QoDFirewall:
    """Expiring firewall rules derived from crash payloads.

    Expiry is **strict**: a rule installed at time ``t`` is dead exactly
    at ``t + t_qod`` — :meth:`should_drop` prunes rules whose deadline is
    ``<= now``, and :meth:`active_rules` counts only ``deadline > now``.
    A query arriving precisely at the deadline is therefore *not*
    dropped (the nameserver re-attempts it, per the once-per-``t_qod``
    crash-rate bound above). Re-installing a rule for an expired (or
    still-live) signature simply refreshes its deadline to
    ``now + t_qod``.
    """

    def __init__(self, t_qod: float = 300.0) -> None:
        self.t_qod = t_qod
        self._rules: dict[QoDSignature, float] = {}
        self.dropped = 0

    def record_crash(self, qname: Name, qtype: RType, now: float) -> None:
        """Install a rule from the payload the dying nameserver dumped."""
        self.install_rule(qname, qtype, now)
        _telemetry.record("qod_events_total", "crash_recorded")

    def install_rule(self, qname: Name, qtype: RType,
                     now: float) -> QoDSignature:
        """Install an expiring drop rule for the query's shape.

        Used by the crash-dump path above and by the defense ladder's
        firewall rung (:mod:`repro.control.defense`).
        """
        signature = QoDSignature.for_query(qname, qtype)
        self._rules[signature] = now + self.t_qod
        return signature

    def remove_rule(self, signature: QoDSignature) -> None:
        """Withdraw a rule early (the firewall rung disengaging)."""
        self._rules.pop(signature, None)

    def should_drop(self, qname: Name, qtype: RType, now: float) -> bool:
        """Whether an arriving query matches a live rule."""
        if not self._rules:
            return False
        expired = [s for s, deadline in self._rules.items()
                   if deadline <= now]
        for signature in expired:
            del self._rules[signature]
        for signature in self._rules:
            if signature.matches(qname, qtype):
                self.dropped += 1
                _telemetry.record("qod_events_total", "dropped")
                return True
        return False

    def active_rules(self, now: float) -> int:
        return sum(1 for deadline in self._rules.values() if deadline > now)

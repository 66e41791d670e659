"""Section 4.3.4: the attack taxonomy and its mitigations, as a table.

The paper's taxonomy is the closest thing it has to a results table:
five attack classes, each paired with the mitigation designed for it.
This experiment runs each class against a nameserver with the full
scoring pipeline and reports, per class, the legitimate goodput under
attack and which filter assigned the penalties — checking the pairing
the paper describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..analysis.report import ExperimentResult
from ..dnscore.message import make_query
from ..dnscore.name import name
from ..dnscore.rrtypes import RType
from ..dnscore.zonefile import parse_zone_text
from ..filters.allowlist import AllowlistConfig, AllowlistFilter
from ..filters.base import ScoringPipeline
from ..filters.hopcount import HopCountFilter
from ..filters.loyalty import LoyaltyFilter
from ..filters.nxdomain import NXDomainConfig, NXDomainFilter
from ..filters.ratelimit import RateLimitFilter
from ..filters.scoring import QueuePolicy
from ..netsim.clock import EventLoop
from ..netsim.packet import Datagram
from ..server.engine import AuthoritativeEngine, ZoneStore
from ..server.machine import MachineConfig, NameserverMachine, QueryEnvelope
from ..workload.attacks import (
    DirectQueryAttack,
    RandomSubdomainAttack,
    SpoofedIdentity,
    SpoofedSourceAttack,
)

N_HOSTS = 200
N_RESOLVERS = 25
LEGIT_RATE = 250.0
ATTACK_RATE = 2_500.0
RESOLVER_TTL = 58


@dataclass(slots=True)
class TaxonomyRow:
    """One attack class's outcome."""

    attack: str
    expected_filter: str
    legit_goodput: float
    filter_hits: dict[str, int]


class _Testbed:
    """One nameserver with the full pipeline plus a legit stream."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.loop = EventLoop()
        store = ZoneStore()
        text = ("$ORIGIN tax.example.\n$TTL 300\n"
                "@ IN SOA ns1.tax.example. admin.tax.example. "
                "1 7200 3600 1209600 300\n"
                "@ IN NS ns1.tax.example.\n"
                + "".join(f"h{i} IN A 10.4.{i // 250}.{i % 250 + 1}\n"
                          for i in range(N_HOSTS)))
        # reprolint: disable-next=ROB001 -- synthetic testbed bootstrap
        store.add(parse_zone_text(text))
        self.resolvers = [f"10.60.0.{i + 1}" for i in range(N_RESOLVERS)]
        self.filters = {
            "ratelimit": RateLimitFilter(),
            "allowlist": AllowlistFilter(
                AllowlistConfig(activate_qps=700.0,
                                activate_unique_sources=60),
                allowlist=set(self.resolvers)),
            "nxdomain": NXDomainFilter(store,
                                       NXDomainConfig(trigger_count=80)),
            "hopcount": HopCountFilter(),
            "loyalty": LoyaltyFilter(),
        }
        for address in self.resolvers:
            self.filters["ratelimit"].prime(address,
                                            LEGIT_RATE / N_RESOLVERS)
            self.filters["hopcount"].prime(address, RESOLVER_TTL)
            self.filters["loyalty"].prime(address, 0.0)
        self.machine = NameserverMachine(
            self.loop, "tax-ns", AuthoritativeEngine(store),
            ScoringPipeline(list(self.filters.values())), QueuePolicy(),
            MachineConfig(compute_capacity_qps=1_200.0,
                          io_capacity_qps=15_000.0,
                          staleness_threshold=float("inf")))
        self.valid = [name(f"h{i}.tax.example") for i in range(N_HOSTS)]
        self._msg_id = 0
        self._legit_running = True
        self.loop.call_later(0.001, self._legit_tick)

    def _legit_tick(self) -> None:
        if not self._legit_running:
            return
        self._msg_id = (self._msg_id + 1) & 0xFFFF
        query = make_query(self._msg_id, self.rng.choice(self.valid),
                           RType.A)
        self.machine.receive_query(Datagram(
            src=self.rng.choice(self.resolvers), dst="tax",
            payload=QueryEnvelope(query), ip_ttl=RESOLVER_TTL,
            src_port=self.rng.randint(1024, 65535)))
        self.loop.call_later(self.rng.expovariate(LEGIT_RATE),
                             self._legit_tick)

    def run_phase(self, attack_factory, seconds: float = 12.0
                  ) -> tuple[float, dict[str, int]]:
        before_hits = {label: f.penalized
                       for label, f in self.filters.items()}
        before_recv = self.machine.metrics.legit_received
        before_ans = self.machine.metrics.legit_answered
        attack = attack_factory(self) if attack_factory else None
        if attack is not None:
            attack.start()
        self.loop.run_until(self.loop.now + seconds)
        if attack is not None:
            attack.stop()
        legit = self.machine.metrics.legit_received - before_recv
        answered = self.machine.metrics.legit_answered - before_ans
        hits = {label: f.penalized - before_hits[label]
                for label, f in self.filters.items()}
        return (answered / legit if legit else 0.0), hits


def _attack_classes() -> list[tuple[str, str, object]]:
    return [
        ("direct query (8 sources)", "ratelimit",
         lambda tb: DirectQueryAttack(
             tb.loop, tb.rng, tb.machine.receive_query, ATTACK_RATE,
             60.0, target="tax", qnames=tb.valid, source_count=8)),
        ("wide botnet (1000 sources)", "allowlist",
         lambda tb: DirectQueryAttack(
             tb.loop, tb.rng, tb.machine.receive_query, ATTACK_RATE,
             60.0, target="tax", qnames=tb.valid, source_count=1_000)),
        ("random subdomain via resolvers", "nxdomain",
         lambda tb: RandomSubdomainAttack(
             tb.loop, tb.rng, tb.machine.receive_query, ATTACK_RATE,
             60.0, target="tax", victim_zone=name("tax.example"),
             sources=tb.resolvers,
             source_ip_ttls={r: RESOLVER_TTL for r in tb.resolvers})),
        ("spoofed source IP", "hopcount",
         lambda tb: SpoofedSourceAttack(
             tb.loop, tb.rng, tb.machine.receive_query, ATTACK_RATE,
             60.0, target="tax", qnames=tb.valid,
             identities=[SpoofedIdentity(r) for r in tb.resolvers[:10]],
             attacker_ip_ttl=41)),
        ("spoofed source IP & TTL", "loyalty",
         lambda tb: SpoofedSourceAttack(
             tb.loop, tb.rng, tb.machine.receive_query, ATTACK_RATE,
             60.0, target="tax", qnames=tb.valid,
             identities=[SpoofedIdentity(f"10.70.0.{i}",
                                         ip_ttl=RESOLVER_TTL)
                         for i in range(10)])),
    ]


def run(seed: int = 42, phase_seconds: float = 12.0) -> ExperimentResult:
    """Run the full taxonomy; one fresh testbed per attack class."""
    result = ExperimentResult(
        "taxonomy", "Attack classes vs their mitigations (section 4.3.4)")
    rows: list[TaxonomyRow] = []
    for index, (label, expected, factory) in enumerate(_attack_classes()):
        testbed = _Testbed(seed + index)
        testbed.run_phase(None, seconds=3.0)  # warm history
        goodput, hits = testbed.run_phase(factory,
                                          seconds=phase_seconds)
        rows.append(TaxonomyRow(label, expected, goodput, hits))
    result.series["goodput"] = (
        [row.attack for row in rows],
        [row.legit_goodput for row in rows])

    for row in rows:
        result.metrics[f"goodput[{row.attack}]"] = row.legit_goodput
        result.compare(
            f"{row.attack}: legit goodput protected", ">= 90%",
            f"{row.legit_goodput:.0%}", row.legit_goodput >= 0.90)
        expected_hits = row.filter_hits.get(row.expected_filter, 0)
        result.compare(
            f"{row.attack}: {row.expected_filter} filter engages",
            "assigns penalties", f"{expected_hits} penalties",
            expected_hits > 0)
    return result

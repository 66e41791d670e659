"""The four benchmark scenarios.

Each scenario is built from ``--seed`` inside the harness: zone
contents, query names, arrival times, attack packets and fault times
all derive from it, and the program under test receives only those
generated inputs. The simulated platform itself (topology, PoPs,
catchments) is a fixed testbed built from :data:`PLATFORM_SEED`, so that
per-machine load — and with it the amount of host work — does not
reshuffle between seeds.

Simulated traffic is open-loop in simulated time (Poisson arrivals
scheduled regardless of completions); ``engine_wire`` is a closed loop
with one caller. A scenario exposes ``n_slices`` / ``step(i)`` (the
measured phase, cut into equal pieces of simulated work so the harness
can time each piece), ``build(clock)`` (set-up, every statement of it
inside a named, timed part) and ``report()`` (exact counters, oracle
verdicts and shape facts, all computed outside the timed region).
"""

from __future__ import annotations

import bisect
import collections
import gc
import hashlib
import itertools
import random

from repro.chaos import Campaign, ChaosEngine, FaultKind, FaultSpec, Schedule
from repro.control.rollout import RolloutParams, RolloutPhase
from repro.dnscore import (EDNSOptions, Message, RCode, RType, make_query,
                           name, parse_zone_text)
from repro.dnssec.keys import KeyRing
from repro.dnssec.sign import ZoneSigner
from repro.netsim.builder import attach_host
from repro.platform import AkamaiDNSDeployment, DeploymentParams
from repro.server.engine import AuthoritativeEngine, ZoneStore
from repro.server.machine import MachineConfig, NameserverMachine
from repro.telemetry import Telemetry, TelemetryConfig, standard_detectors
from repro.telemetry import state as telemetry_state
from repro.workload.attacks import (DirectQueryAttack, RandomSubdomainAttack,
                                    SpoofedIdentity, SpoofedSourceAttack)

#: Seed of the simulated testbed; ``--seed`` drives the traffic on it.
PLATFORM_SEED = 42

#: Wire queries per timed slice of ``engine_wire``.
WIRE_SLICE = 1024

#: One response in this many is parsed back and checked by the oracle.
WIRE_SAMPLE = 16

WIRE_CLASSES = ("hot", "cold", "nxdomain", "wildcard", "referral", "cname",
                "signed", "truncated")


def poisson_stream(loop, rng: random.Random, rate: float, until: float,
                   fire) -> None:
    """Call ``fire()`` at Poisson arrivals of ``rate``/s until ``until``."""

    def tick() -> None:
        if loop.now >= until:
            return
        fire()
        loop.call_later(rng.expovariate(rate), tick)

    loop.call_later(rng.expovariate(rate), tick)


class Zipf:
    """Rank sampler with weight 1/rank**exponent."""

    def __init__(self, n: int, exponent: float) -> None:
        self._cum = list(itertools.accumulate(
            1.0 / (rank + 1) ** exponent for rank in range(n)))

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cum, rng.random() * self._cum[-1])

    def shares(self) -> list[float]:
        total = self._cum[-1]
        return [(b - a) / total for a, b in
                zip([0.0] + self._cum[:-1], self._cum)]


def host_records(rng: random.Random, count: int, ttl: int,
                 second_octet: int) -> tuple[str, list[str]]:
    """Zone body of ``count`` A records at addresses drawn from the seed."""
    addresses = [f"10.{second_octet}.{rng.randrange(256)}."
                 f"{rng.randrange(1, 255)}" for _ in range(count)]
    body = f"$TTL {ttl}\n" + "".join(
        f"h{i} IN A {address}\n" for i, address in enumerate(addresses))
    return body, addresses


class _Digest:
    """SHA-256 over operation outcomes, in completion order."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def add(self, *fields) -> None:
        self._sha.update("|".join(map(repr, fields)).encode())
        self._sha.update(b"\n")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class PlatformScenario:
    """Shared plumbing for the three workloads that run the event loop."""

    #: Simulated seconds per timed slice.
    SLICE_SIM_S = 0.5
    #: Simulated seconds the platform converges for before traffic.
    SETTLE_SECONDS = 30.0

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed * 7919 + 17)
        #: Set-up breakdown: part -> [corrected, raw] host seconds.
        self.parts: dict[str, list[float]] = {}
        self.results: list = []
        self.resolvers: list = []
        self.attacks: list = []
        self.telemetry: Telemetry | None = None
        self.chaos: ChaosEngine | None = None

    # -- set-up -------------------------------------------------------------

    def build(self, clock) -> None:
        """Scenario build before the measured phase (``setup_s``)."""
        self.clock = clock
        with clock.timed(self.parts, "harness.inputs_s"):
            self.make_inputs()
        self.build_program()
        # Converge in pieces, so each is corrected for the host's speed
        # at that moment.
        for _ in range(6):
            with clock.timed(self.parts, "platform.settle_s"):
                self.dep.settle(self.SETTLE_SECONDS / 6)
        with clock.timed(self.parts, "platform.provision_s"):
            self.resolvers = [self.dep.add_resolver(f"bench-res{i}")
                              for i in range(self.N_RESOLVERS)]
        with clock.timed(self.parts, "harness.inputs_s"):
            self.schedule_traffic()

    def build_platform(self, **params) -> AkamaiDNSDeployment:
        with self.clock.timed(self.parts, "platform.build_s"):
            self.dep = AkamaiDNSDeployment(
                DeploymentParams(seed=PLATFORM_SEED, **params))
        return self.dep

    def window(self, sim_seconds: float, drain: float) -> None:
        """Fix the measured phase: traffic for ``sim_seconds``, then drain."""
        loop = self.dep.loop
        self.start = loop.now
        self.end = self.start + sim_seconds
        self.horizon = self.end + drain
        self.n_slices = max(1, round((self.horizon - self.start)
                                     / self.SLICE_SIM_S))

    @property
    def slice_unit(self) -> str:
        """What one timed slice covers, for ``host.slice_ms_*``."""
        return f"{self.SLICE_SIM_S} simulated s"

    # -- measured phase -----------------------------------------------------

    def begin(self) -> None:
        """Untimed: find every machine and take the counter baseline."""
        self.machines = [obj for obj in gc.get_objects()
                         if isinstance(obj, NameserverMachine)]
        self._base = self._cumulative()

    def step(self, i: int) -> None:
        deadline = (self.horizon if i == self.n_slices - 1
                    else self.start + (i + 1) * self.SLICE_SIM_S)
        self.dep.loop.run_until(deadline)

    # -- counters (public counters of the program, cumulative) ---------------

    def _cumulative(self) -> dict[str, float]:
        dep = self.dep
        stats = dep.network.stats
        metrics = [m.metrics for m in self.machines]
        counters = {
            "netsim.clock.events": dep.loop.events_processed,
            "netsim.network.delivered": stats.delivered,
            "netsim.network.dropped": stats.dropped(),
            "netsim.network.hops": stats.hops_total,
            "netsim.bgp.updates": sum(
                s.updates_received for s in dep.network.speakers().values()),
            "server.pop.forwarded": sum(
                p.queries_forwarded for p in dep.pops.values()),
            "server.machine.received": sum(m.received for m in metrics),
            "server.machine.answered": sum(m.answered for m in metrics),
            "server.machine.dropped_io": sum(m.dropped_io for m in metrics),
            "server.machine.dropped_queue": sum(
                m.dropped_queue for m in metrics),
            "server.machine.dropped_firewall": sum(
                m.dropped_firewall for m in metrics),
            "server.machine.installs": sum(m.zone_installs for m in metrics),
            "server.monitoring.checks": sum(
                d.agent.metrics.checks_run for d in dep.deployments),
            "resolver.resolutions": sum(
                r.resolutions_started for r in self.resolvers),
            "resolver.completed": sum(
                r.resolutions_completed for r in self.resolvers),
            "resolver.upstream_queries": sum(
                sum(r.queries_by_server.values()) for r in self.resolvers),
            "workload.packets": sum(
                a.stats.packets_sent for a in self.attacks),
            "control.published": dep.bus.published,
            "control.releases_promoted": (
                dep.rollout.promotions if dep.rollout is not None else 0),
            "chaos.fault_edges": (
                len(self.chaos.events) if self.chaos is not None else 0),
            "dnssec.signed_responses": sum(
                m.engine.signed_responses for m in self.machines),
        }
        if self.telemetry is not None:
            counters["telemetry.spans_kept"] = len(self.telemetry.tracer.spans)
            counters["telemetry.alerts_fired"] = len(
                self.telemetry.alerts.alerts)
        return counters

    def counters(self) -> dict[str, float]:
        now = self._cumulative()
        return {key: now[key] - self._base.get(key, 0) for key in now}

    # -- oracle -------------------------------------------------------------

    def check_resolutions(self, expected: dict, edge_names: set,
                          digest: _Digest) -> dict:
        """Every resolution completed, did not fail, and returned an
        address the harness put in the zone (a live edge for CDN names,
        NXDOMAIN for names it never created)."""
        edges = set(self.dep.edge_addresses)
        failed = 0
        timeouts = 0
        for result in self.results:
            addresses = result.addresses()
            digest.add(str(result.qname), result.rcode.name, addresses,
                       result.finished_at, result.queries_sent,
                       result.timeouts)
            timeouts += result.timeouts
            if result.failed:
                failed += 1
            elif result.qname in edge_names:
                if not addresses or not edges.issuperset(addresses):
                    failed += 1
            elif result.qname in expected:
                if addresses != [expected[result.qname]]:
                    failed += 1
            elif result.rcode is not RCode.NXDOMAIN:
                failed += 1
        started = sum(r.resolutions_started for r in self.resolvers) \
            - self._base["resolver.resolutions"]
        failed += started - len(self.results)        # never completed
        self.timeouts = timeouts
        self.from_cache = sum(1 for r in self.results if r.from_cache)
        return {"checked": started, "failed": failed}

    def shape_holds(self, condition: bool) -> bool:
        """A workload's stated shape is a claim about the full-length
        run; shortened runs only have to stay correct."""
        return condition or self.scale < 1.0

    def finish_counters(self) -> dict[str, float]:
        """Counter deltas plus what :meth:`check_resolutions` tallied."""
        counters = self.counters()
        counters["resolver.timeouts"] = self.timeouts
        counters["resolver.from_cache"] = self.from_cache
        return counters


# -- resolve_steady ---------------------------------------------------------


class ResolveSteady(PlatformScenario):
    """Read-mostly steady state: resolvers with warm caches do the work."""

    name = "resolve_steady"
    ORIGIN = "steady.net"
    N_NAMES = 2_000
    N_RESOLVERS = 32
    TOTAL_QPS = 1_600.0
    SIM_SECONDS = 14.0
    CDN_SHARE = 0.2

    def make_inputs(self) -> None:
        self.body, addresses = host_records(self.rng, self.N_NAMES, 30, 77)
        self.cdn = [f"www.{self.ORIGIN}", f"img.{self.ORIGIN}"]
        self.hosts = [name(f"h{i}.{self.ORIGIN}")
                      for i in range(self.N_NAMES)]
        self.expected = dict(zip(self.hosts, addresses))
        self.cdn_names = {name(host) for host in self.cdn}
        # Popularity is Zipf over a seed-shuffled ranking of the names.
        self.rng.shuffle(self.hosts)

    def build_program(self) -> None:
        dep = self.build_platform(filters_enabled=False)
        with self.clock.timed(self.parts, "platform.provision_s"):
            dep.provision_enterprise("steady", self.ORIGIN, self.body,
                                     cdn_hostnames=self.cdn)

    def schedule_traffic(self) -> None:
        self.window(self.SIM_SECONDS * self.scale, drain=5.0)
        hosts = self.hosts
        cdn_names = sorted(self.cdn_names, key=str)
        popularity = Zipf(self.N_NAMES, 1.1)
        rates = Zipf(self.N_RESOLVERS, 0.8).shares()
        for resolver, share in zip(self.resolvers, rates):
            stream = random.Random(self.rng.randrange(2 ** 31))

            def fire(resolver=resolver, stream=stream) -> None:
                if stream.random() < self.CDN_SHARE:
                    qname = cdn_names[stream.randrange(len(cdn_names))]
                else:
                    qname = hosts[popularity.draw(stream)]
                resolver.resolve(qname, RType.A, self.results.append)

            poisson_stream(self.dep.loop, stream, self.TOTAL_QPS * share,
                           self.end, fire)

    def report(self) -> dict:
        digest = _Digest()
        oracle = {"resolutions": self.check_resolutions(
            self.expected, self.cdn_names, digest)}
        counters = self.finish_counters()
        hit = self.from_cache / max(1, len(self.results))
        return {
            "ops": counters["resolver.resolutions"],
            "counters": counters,
            "oracle": oracle,
            "outcomes": digest.hexdigest(),
            "shape": {
                "cache_hit_share": hit,
                "fleet_queries": counters["server.machine.received"],
                "ok": self.shape_holds(0.6 <= hit <= 0.9),
            },
        }


# -- flood_defend -----------------------------------------------------------


class FloodDefend(PlatformScenario):
    """Three attack classes through the platform at two of the victim's
    clouds, with the filters on, machines sized so they saturate, and a
    passive telemetry session observing all of it."""

    name = "flood_defend"
    ORIGIN = "victim.net"
    N_NAMES = 400
    N_RESOLVERS = 8
    #: Resolvers the pass-through and spoofed attacks ride on. They are
    #: not the measured ones: the simulated resolver matches a response
    #: to a resolution by message id alone, so an attack's NXDOMAINs
    #: returning to a measured resolver can collide with and poison a
    #: resolution in flight (4 of 1,211 at seed 200), which the oracle
    #: would rightly count as failed.
    N_CARRIERS = 8
    LEGIT_QPS = 20.0            # per resolver
    ATTACK_PPS = 3_000.0        # all generators together
    SIM_SECONDS = 8.0
    #: fig10-testbed scale, so queue and I/O drops both occur.
    MACHINE = dict(compute_capacity_qps=200.0, io_capacity_qps=400.0,
                   io_burst_seconds=0.05, queue_depth=100)
    #: Each generator's share of ATTACK_PPS.
    MIX = {"random_subdomain": 0.60, "direct_query": 0.25, "spoofed": 0.15}

    def make_inputs(self) -> None:
        self.body, addresses = host_records(self.rng, self.N_NAMES, 30, 99)
        self.hosts = [name(f"h{i}.{self.ORIGIN}")
                      for i in range(self.N_NAMES)]
        self.expected = dict(zip(self.hosts, addresses))

    def build_program(self) -> None:
        # Passive session (TelemetryConfig defaults): active before the
        # loop exists, as a session left on in production would be.
        self.telemetry = Telemetry(TelemetryConfig())
        standard_detectors(self.telemetry.alerts)
        telemetry_state.activate(self.telemetry)
        dep = self.build_platform(
            filters_enabled=True, machine_config=MachineConfig(**self.MACHINE))
        with self.clock.timed(self.parts, "platform.provision_s"):
            self.clouds = dep.provision_enterprise("victim", self.ORIGIN,
                                                   self.body)
            # Attack machines sit behind four stub routers of the testbed.
            stubs = sorted(dep.internet.stubs)
            attacker_stubs = stubs[::max(1, len(stubs) // 4)][:4]
            for i in range(8):
                attach_host(dep.internet, dep.rng,
                            host_id=f"198.18.0.{i + 1}",
                            attach_to=attacker_stubs[i % len(attacker_stubs)])
            self.carriers = [dep.add_resolver(f"bench-carrier{i}").host_id
                             for i in range(self.N_CARRIERS)]

    def schedule_traffic(self) -> None:
        rng = self.rng
        sim_seconds = self.SIM_SECONDS * self.scale
        self.window(sim_seconds, drain=12.0)
        hosts = self.hosts
        popularity = Zipf(self.N_NAMES, 0.9)
        loop = self.dep.loop
        for resolver in self.resolvers:
            stream = random.Random(rng.randrange(2 ** 31))

            def fire(resolver=resolver, stream=stream) -> None:
                resolver.resolve(hosts[popularity.draw(stream)], RType.A,
                                 self.results.append)

            poisson_stream(loop, stream, self.LEGIT_QPS, self.end, fire)

        def stream() -> random.Random:
            return random.Random(rng.randrange(2 ** 31))

        send = self.dep.network.send
        self.targets = [self.clouds[0].prefix, self.clouds[1].prefix]
        per_target = self.ATTACK_PPS / len(self.targets)
        for target in self.targets:
            self.attacks += [
                RandomSubdomainAttack(
                    loop, stream(), send,
                    per_target * self.MIX["random_subdomain"], sim_seconds,
                    target=target, victim_zone=name(self.ORIGIN),
                    sources=self.carriers),
                DirectQueryAttack(
                    loop, stream(), send,
                    per_target * self.MIX["direct_query"], sim_seconds,
                    target=target, qnames=hosts, source_count=8),
                SpoofedSourceAttack(
                    loop, stream(), send,
                    per_target * self.MIX["spoofed"], sim_seconds,
                    target=target, qnames=hosts,
                    identities=[SpoofedIdentity(address)
                                for address in self.carriers[:4]]),
            ]
        for attack in self.attacks:
            attack.start()

    def report(self) -> dict:
        telemetry_state.deactivate()
        digest = _Digest()
        oracle = {"resolutions": self.check_resolutions(
            self.expected, set(), digest)}
        counters = self.finish_counters()
        attacked = [m.metrics for m in self.machines
                    if m.metrics.attack_received]
        received = sum(m.received for m in attacked) or 1
        shares = {
            "answered": sum(m.answered for m in attacked) / received,
            "dropped_queue": sum(m.dropped_queue for m in attacked)
            / received,
            "dropped_io": sum(m.dropped_io for m in attacked) / received,
        }
        return {
            "ops": counters["resolver.resolutions"]
            + counters["workload.packets"],
            "counters": counters,
            "oracle": oracle,
            "outcomes": digest.hexdigest(),
            "shape": {
                "attacked_machines": len(attacked),
                **{f"attacked_{k}_share": v for k, v in shares.items()},
                "ok": self.shape_holds(
                    all(v >= 0.05 for v in shares.values())),
            },
        }


# -- churn_mixed ------------------------------------------------------------


class ChurnMixed(PlatformScenario):
    """Writes beside reads: zone releases through the rollout train,
    gray-failure probing, periodic faults, and an NXDOMAIN trickle that
    makes every engine rebuild its negative plan after each install."""

    name = "churn_mixed"
    #: Half of this workload's window is a near-idle drain; coarser
    #: slices keep the calibration loop a small share of the run.
    SLICE_SIM_S = 1.0
    N_ZONES = 8
    N_NAMES = 150
    N_RESOLVERS = 16
    TOTAL_QPS = 240.0
    NX_SHARE = 0.35
    SIM_SECONDS = 30.0
    SOAK_SECONDS = 7.0
    PUBLISH_PERIOD = 10.0       # > soak, so no release is superseded
    #: The CDN channel delivers within 20 s; leave that after the last
    #: promotion so every release can reach the whole fleet.
    DRAIN = 24.0

    def make_inputs(self) -> None:
        self.origins = [f"churn{k}.net" for k in range(self.N_ZONES)]
        self.expected: dict = {}
        self.bodies: list[str] = []
        self.hosts: list[list] = []
        for k, origin in enumerate(self.origins):
            body, addresses = host_records(self.rng, self.N_NAMES, 60,
                                           100 + k)
            self.bodies.append(body)
            self.hosts.append([name(f"h{i}.{origin}")
                               for i in range(self.N_NAMES)])
            self.expected.update(zip(self.hosts[k], addresses))

    def build_program(self) -> None:
        scale = self.scale
        self.soak = self.SOAK_SECONDS * scale
        self.period = self.PUBLISH_PERIOD * scale
        dep = self.build_platform(
            filters_enabled=False, rollout_enabled=True,
            rollout=RolloutParams(soak_seconds=self.soak,
                                  check_period=min(1.0, self.soak / 4)))
        with self.clock.timed(self.parts, "platform.build_s"):
            dep.enable_grayfail()
        with self.clock.timed(self.parts, "platform.provision_s"):
            delegations = [
                dep.provision_enterprise(f"churn{k}", origin, self.bodies[k])
                for k, origin in enumerate(self.origins)]
        # Each later version bumps the serial and adds one name.
        n_versions = int(self.SIM_SECONDS * scale // self.period) + 1
        self.versions: dict[tuple[int, int], object] = {}
        for k, origin in enumerate(self.origins):
            clouds = delegations[k]
            ns_lines = "\n".join(f"@ IN NS {c.ns_hostname}" for c in clouds)
            with self.clock.timed(self.parts, "dnscore.zone.parse_s"):
                for serial in range(2, n_versions + 2):
                    added = "".join(f"v{j} IN A 10.200.{k}.{j}\n"
                                    for j in range(2, serial + 1))
                    self.versions[(k, serial)] = parse_zone_text(
                        f"$ORIGIN {origin}.\n$TTL 3600\n"
                        f"@ IN SOA {clouds[0].ns_hostname} "
                        f"hostmaster.{origin}. {serial} 7200 3600 1209600 "
                        f"300\n{ns_lines}\n{self.bodies[k]}{added}")

    def schedule_traffic(self) -> None:
        rng = self.rng
        scale = self.scale
        dep = self.dep
        loop = dep.loop
        sim_seconds = self.SIM_SECONDS * scale
        self.window(sim_seconds, drain=self.DRAIN)
        for resolver in self.resolvers:
            stream = random.Random(rng.randrange(2 ** 31))

            def fire(resolver=resolver, stream=stream) -> None:
                k = stream.randrange(self.N_ZONES)
                if stream.random() < self.NX_SHARE:
                    qname = name(f"nx{stream.getrandbits(48):012x}."
                                 f"{self.origins[k]}")
                else:
                    qname = self.hosts[k][stream.randrange(self.N_NAMES)]
                resolver.resolve(qname, RType.A, self.results.append)

            poisson_stream(loop, stream, self.TOTAL_QPS / self.N_RESOLVERS,
                           self.end, fire)

        # Releases: per zone, staggered start, then one per period; the
        # last leaves time to soak and promote inside the traffic window.
        self.releases: list = []
        last_publish = self.end - self.soak - 2.0 * scale
        for k in range(self.N_ZONES):
            when = self.start + rng.uniform(0.05, 1.0) * self.period
            serial = 2
            while when < last_publish and (k, serial) in self.versions:
                loop.call_at(when, self._publish, self.versions[(k, serial)])
                when += self.period
                serial += 1

        # Faults hit three fixed PoPs of the testbed (the seed moves
        # their times, not their place, so reconvergence work does not
        # depend on it) and stay off the canary PoPs: a crashed canary
        # fails the health gate, and every release here should promote.
        canary_pops = {d.machine.machine_id.rsplit("-m", 1)[0]
                       for d in dep.canary_deployments()}
        pops = [p for p in sorted(dep.pops) if p not in canary_pops]
        targets = [pops[len(pops) * i // 4] for i in (1, 2, 3)]
        campaign = Campaign("churn", duration=sim_seconds, seed=self.seed)
        for kind, target, (first, every, lasts) in zip(
                (FaultKind.MACHINE_CRASH, FaultKind.BGP_RESET,
                 FaultKind.LINK_FLAP), targets,
                ((3.0, 9.0, 1.0), (5.0, 11.0, 3.0), (7.0, 10.0, 4.0))):
            first = (first + rng.uniform(0.0, 2.0)) * scale
            campaign.add(FaultSpec(kind, target, Schedule.periodic(
                first, every * scale, lasts * scale,
                max(1, int(self.SIM_SECONDS // every)))))
        self.chaos = ChaosEngine(dep)
        self.chaos.arm(campaign)

    def _publish(self, zone) -> None:
        self.releases.append(self.dep.publish_zone_update(zone))

    def report(self) -> dict:
        digest = _Digest()
        oracle = {"resolutions": self.check_resolutions(
            self.expected, set(), digest)}
        counters = self.finish_counters()
        # Every release promoted, and installed on every regular machine
        # (input-delayed machines take updates an hour late by design).
        final: dict = {}
        unpromoted = 0
        for release in self.releases:
            digest.add(str(release.origin), release.zone.serial,
                       release.phase.value, release.decided_at)
            if release.phase is not RolloutPhase.PROMOTED:
                unpromoted += 1
            final[release.origin] = max(final.get(release.origin, 0),
                                        release.zone.serial)
        stale = 0
        regular = self.dep.regular_deployments()
        for deployment in regular:
            store = deployment.machine.engine.store
            for origin, serial in final.items():
                zone = store.get(origin)
                if zone is None or zone.serial != serial:
                    stale += 1
        oracle["releases"] = {"checked": len(self.releases),
                              "failed": unpromoted}
        oracle["installs"] = {"checked": len(regular) * len(final),
                              "failed": stale}
        nx = sum(1 for r in self.results if r.rcode is RCode.NXDOMAIN)
        return {
            "ops": counters["resolver.resolutions"],
            "counters": counters,
            "oracle": oracle,
            "outcomes": digest.hexdigest(),
            "shape": {
                "releases": len(self.releases),
                "releases_promoted": len(self.releases) - unpromoted,
                "nxdomain_resolutions": nx,
                "ok": bool(self.releases) and not unpromoted,
            },
        }


# -- engine_wire ------------------------------------------------------------


class EngineWire:
    """No event loop: wire query -> ``from_wire`` -> ``respond`` ->
    ``to_wire`` over a large unsigned zone and a signed one."""

    name = "engine_wire"
    slice_unit = f"{WIRE_SLICE} queries"
    BIG = "big.example"
    SIGNED = "signed.example"
    N_BIG = 20_000          # far beyond the engine's 4,096-plan bound
    N_SIGNED = 2_000
    N_HOT = 64
    N_CNAME = 256
    N_QUERIES = 26 * WIRE_SLICE
    #: Share of the query stream per class. Truncation is rare in
    #: practice and costs ~100x any other response here, so it is kept
    #: to a share that shows in the total without owning it.
    MIX = {"hot": 0.345, "cold": 0.25, "nxdomain": 0.12, "wildcard": 0.05,
           "referral": 0.05, "cname": 0.08, "signed": 0.10,
           "truncated": 0.005}
    EDNS_SIZE = 1232

    def __init__(self, seed: int, scale: float, per_class_clock=None) -> None:
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed * 7919 + 29)
        self.parts: dict[str, list[float]] = {}
        #: Traced runs only: callable returning inclusive respond seconds.
        self._class_clock = per_class_clock
        self.class_seconds = dict.fromkeys(WIRE_CLASSES, 0.0)
        self.responses: list[bytes] = []

    def build(self, clock) -> None:
        """Scenario build before the measured phase (``setup_s``)."""
        rng = self.rng
        with clock.timed(self.parts, "harness.inputs_s"):
            big_text = self._big_zone_text(rng)
            signed_body, _ = host_records(rng, self.N_SIGNED, 300, 55)
            signed_text = self._apex(self.SIGNED) + signed_body
        with clock.timed(self.parts, "dnscore.zone.parse_s"):
            big = parse_zone_text(big_text)
        with clock.timed(self.parts, "dnscore.zone.parse_s"):
            signed = parse_zone_text(signed_text)
        with clock.timed(self.parts, "dnssec.sign_s"):
            keys = KeyRing(self.seed, name(self.SIGNED))
            ZoneSigner(keys).sign(signed, 0.0)
        with clock.timed(self.parts, "harness.inputs_s"):
            store = ZoneStore()
            # No rollout machinery exists here to install through.
            store.add(big)
            store.add(signed)
            self.engine = AuthoritativeEngine(store)
            self.engine.dnssec.register_keyring(keys)
            self._generate_queries(
                rng, max(WIRE_SLICE, int(self.N_QUERIES * self.scale)))
        self.n_slices = -(-len(self.queries) // WIRE_SLICE)

    @staticmethod
    def _apex(origin: str) -> str:
        return (f"$ORIGIN {origin}.\n$TTL 300\n"
                f"@ IN SOA ns1.{origin}. admin.{origin}. 1 7200 3600 "
                f"1209600 300\n@ IN NS ns1.{origin}.\n"
                f"ns1 IN A 192.0.2.53\n")

    def _big_zone_text(self, rng: random.Random) -> str:
        body, _ = host_records(rng, self.N_BIG, 300, 44)
        extras = ["*.wild IN A 192.0.2.77\n"]
        for i in range(1, 7):       # 6 NS with glue
            extras.append(f"sub IN NS ns{i}.sub\n")
            extras.append(f"ns{i}.sub IN A 192.0.2.{100 + i}\n")
        for i in range(self.N_CNAME):
            extras.append(f"c{i} IN CNAME h{rng.randrange(self.N_BIG)}\n")
        for i in range(40):         # 40 A records: over 512 octets
            extras.append(f"fat IN A 198.51.100.{i + 1}\n")
        return self._apex(self.BIG) + body + "".join(extras)

    def _generate_queries(self, rng: random.Random, count: int) -> None:
        edns = EDNSOptions(payload_size=self.EDNS_SIZE)
        edns_do = EDNSOptions(payload_size=self.EDNS_SIZE, dnssec_ok=True)
        hot = rng.sample(range(self.N_BIG), self.N_HOT)

        def qname_for(cls: str) -> str:
            if cls == "hot":
                return f"h{hot[rng.randrange(self.N_HOT)]}.{self.BIG}"
            if cls == "cold":
                return f"h{rng.randrange(self.N_BIG)}.{self.BIG}"
            if cls == "nxdomain":
                return f"x{rng.getrandbits(48):012x}.{self.BIG}"
            if cls == "wildcard":
                return f"w{rng.getrandbits(32):08x}.wild.{self.BIG}"
            if cls == "referral":
                return f"host{rng.randrange(1000)}.sub.{self.BIG}"
            if cls == "cname":
                return f"c{rng.randrange(self.N_CNAME)}.{self.BIG}"
            if cls == "signed":
                return f"h{rng.randrange(self.N_SIGNED)}.{self.SIGNED}"
            return f"fat.{self.BIG}"

        # Exact per-class counts (the seed only orders them): a class
        # costing 100x the others must not vary in number with the seed.
        # Every class is present even in the shortest run.
        classes = [cls for cls in WIRE_CLASSES
                   for _ in range(max(1, round(self.MIX[cls] * count)))]
        rng.shuffle(classes)
        self.classes = classes
        self.queries: list[bytes] = []
        self.limits: list[int] = []
        for i, cls in enumerate(classes):
            options = (None if cls == "truncated"
                       else edns_do if cls == "signed" else edns)
            query = make_query(i & 0xFFFF, name(qname_for(cls)), RType.A,
                               edns=options)
            self.queries.append(query.to_wire())
            self.limits.append(512 if options is None else self.EDNS_SIZE)

    def begin(self) -> None:
        pass

    def step(self, i: int) -> None:
        respond = self.engine.respond
        from_wire = Message.from_wire
        responses = self.responses
        lo = i * WIRE_SLICE
        hi = min(lo + WIRE_SLICE, len(self.queries))
        clock = self._class_clock
        for j in range(lo, hi):
            if clock is not None:
                before = clock()
            response = respond(from_wire(self.queries[j]))
            if clock is not None:
                self.class_seconds[self.classes[j]] += clock() - before
            responses.append(response.to_wire(max_size=self.limits[j]))

    def _check(self, index: int, message: Message) -> bool:
        cls = self.classes[index]
        query = Message.from_wire(self.queries[index])
        if message.msg_id != query.msg_id \
                or message.questions != query.questions:
            return False
        rcode = message.flags.rcode
        answers = {r.rtype for r in message.answers}
        authority = {r.rtype for r in message.authority}
        if cls == "truncated":
            return message.flags.tc and rcode is RCode.NOERROR
        if message.flags.tc:
            return False
        if cls == "nxdomain":
            return rcode is RCode.NXDOMAIN and RType.SOA in authority
        if rcode is not RCode.NOERROR:
            return False
        if cls == "referral":
            glue = {r.rtype for r in message.additional}
            return (not answers and RType.NS in authority
                    and len(message.authority) >= 6 and RType.A in glue)
        if cls == "cname":
            return {RType.CNAME, RType.A} <= answers
        if cls == "signed":
            return {RType.A, RType.RRSIG} <= answers
        return RType.A in answers       # hot, cold, wildcard

    def report(self) -> dict:
        digest = hashlib.sha256()
        bytes_out = 0
        for wire in self.responses:
            digest.update(wire)
            bytes_out += len(wire)
        sample = random.Random(self.seed * 7919 + 31)
        offset = sample.randrange(WIRE_SAMPLE)
        checked = failed = 0
        per_class = collections.Counter(self.classes)
        truncated = 0
        for index in range(offset, len(self.responses), WIRE_SAMPLE):
            checked += 1
            try:
                message = Message.from_wire(self.responses[index])
            except Exception:       # noqa: BLE001 - any parse error fails
                failed += 1
                continue
            truncated += message.flags.tc
            if not self._check(index, message):
                failed += 1
        n = len(self.queries)
        counters = {
            "dnscore.wire.decodes": n,
            "dnscore.wire.encodes": n,
            "dnscore.wire.bytes_out": bytes_out,
            "dnscore.wire.truncated": per_class["truncated"],
            "server.engine.responds": n,
            "dnssec.signed_responses": self.engine.signed_responses,
        }
        counters.update((f"queries.{cls}", per_class[cls])
                        for cls in WIRE_CLASSES)
        return {
            "ops": n,
            "counters": counters,
            "oracle": {"responses": {"checked": checked, "failed": failed}},
            "outcomes": digest.hexdigest(),
            "shape": {
                "classes_present": len(per_class),
                "sampled_truncated": truncated,
                "ok": len(per_class) == len(WIRE_CLASSES),
            },
        }


SCENARIOS = {cls.name: cls for cls in
             (ResolveSteady, FloodDefend, ChurnMixed, EngineWire)}

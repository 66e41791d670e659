"""The assembled Akamai DNS platform.

Builds everything Figure 5 shows into one simulated world: a synthetic
Internet, PoPs with nameserver machines and monitoring agents, the 24
anycast clouds (each PoP advertising at most two), input-delayed
nameservers, the control plane (metadata bus, mapping intelligence,
management portal, recovery system), the DNS hierarchy (root, TLDs,
Akamai zones, Two-Tier toplevels/lowlevels), and the CDN edge fleet
running lowlevel nameservers. Experiments and examples drive the world
through this facade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..control.mapping import (
    EdgeServer,
    GTMProperty,
    MapSnapshot,
    MappingIntelligence,
    MappingView,
)
from ..control.portal import ManagementPortal
from ..control.pubsub import CDN_CHANNEL, MULTICAST_CHANNEL, MetadataBus
from ..control.recovery import RecoverySystem
from ..control.reporting import TrafficCollector
from ..control.rollout import Release, RolloutCoordinator, RolloutParams
from ..control.consensus import QuorumSuspensionCoordinator
from ..control.grayfail import (
    VANTAGES_PER_POP,
    GrayFailController,
    GrayTarget,
)
from ..dnscore.name import Name, name
from ..dnscore.rdata import A, AAAA, CNAME, NS, SOA
from ..dnscore.records import make_rrset
from ..dnscore.rrtypes import RType
from ..dnscore.validate import ZoneUpdate
from ..dnscore.zone import Zone, make_zone
from ..filters.allowlist import AllowlistFilter
from ..filters.base import ScoringPipeline
from ..filters.hopcount import HopCountFilter
from ..filters.loyalty import LoyaltyFilter
from ..filters.nxdomain import NXDomainFilter
from ..filters.ratelimit import RateLimitFilter
from ..filters.scoring import QueuePolicy
from ..netsim.builder import (
    Internet,
    InternetParams,
    attach_host,
    attach_pop,
    build_internet,
)
from ..netsim.clock import EventLoop, PeriodicTask
from ..netsim.geo import GeoPoint
from ..netsim.network import Network
from ..resolver.resolver import RecursiveResolver
from ..server.engine import AuthoritativeEngine, ZoneStore
from ..server.host import HostNameserver
from ..server.machine import MachineConfig, NameserverMachine
from ..server.monitoring import MonitoringAgent
from ..server.pop import PoP
from ..server.speaker import MachineBGPSpeaker
from .clouds import (
    AnycastCloudSpec,
    CDN_DELEGATION_COUNT,
    TOTAL_CLOUDS,
    DelegationAssigner,
    all_clouds,
)
from .twotier import (
    TailoredDelegationProvider,
    TwoTierNames,
    build_lowlevel_zone,
    build_toplevel_zone,
)

ROOT_SERVER_ADDRESS = "198.41.0.4"
TLD_SERVER_ADDRESS = "192.5.6.30"
INPUT_DELAYED_MED = 100
#: Paper section 3.1: "no PoP advertising more than two clouds".
MAX_CLOUDS_PER_POP = 2
#: Seconds between the mapping system's platform-wide publications.
METADATA_HEARTBEAT = 10.0
#: How far behind the fleet an input-delayed nameserver's metadata runs.
INPUT_DELAY_SECONDS = 3600.0


@dataclass(slots=True)
class DeploymentParams:
    """Scale, seed and the ablation switches of the assembled platform."""

    seed: int = 42
    internet: InternetParams = field(default_factory=InternetParams)
    n_pops: int = 24
    machines_per_pop: int = 2
    pops_per_cloud: int = 2
    deployed_clouds: int = 24
    n_edge_servers: int = 24
    input_delayed_enabled: bool = True
    filters_enabled: bool = True
    machine_config: MachineConfig = field(default_factory=MachineConfig)
    #: When True, :meth:`AkamaiDNSDeployment.publish_zone_update` runs
    #: updates through the safe-rollout release train (validate ->
    #: canary -> soak -> promote/rollback) instead of fire-and-forget.
    rollout_enabled: bool = False
    rollout: RolloutParams | None = None

    def __post_init__(self) -> None:
        for field_name in ("n_pops", "machines_per_pop", "pops_per_cloud",
                           "n_edge_servers"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be at least 1, got "
                                 f"{getattr(self, field_name)}")
        if not 1 <= self.deployed_clouds <= TOTAL_CLOUDS:
            raise ValueError(f"deployed_clouds must be within 1.."
                             f"{TOTAL_CLOUDS}, got {self.deployed_clouds}")


@dataclass(slots=True)
class MachineDeployment:
    """One machine plus its co-resident processes."""

    machine: NameserverMachine
    speaker: MachineBGPSpeaker
    agent: MonitoringAgent
    view: MappingView
    input_delayed: bool = False


class AkamaiDNSDeployment:
    """Facade over the whole simulated platform."""

    def __init__(self, params: DeploymentParams | None = None) -> None:
        self.params = params or DeploymentParams()
        p = self.params
        self.rng = random.Random(p.seed)
        self.loop = EventLoop()
        self.internet: Internet = build_internet(self.rng, p.internet)
        self.names = TwoTierNames()
        self._machine_seq = 0
        #: Locations for client keys that are not topology nodes
        #: (e.g. ECS subnets registered by experiments).
        self.client_locations: dict[str, GeoPoint] = {}

        # Clouds and their PoP assignment.
        self.clouds: list[AnycastCloudSpec] = \
            all_clouds()[:p.deployed_clouds]
        self.assigner = DelegationAssigner(
            total=p.deployed_clouds,
            set_size=min(6, p.deployed_clouds))
        self.pop_ids = [attach_pop(self.internet, self.rng)
                        for _ in range(p.n_pops)]
        self.cloud_pops: dict[int, list[str]] = self._assign_clouds_to_pops()

        # Infrastructure hosts.
        attach_host(self.internet, self.rng, host_id=ROOT_SERVER_ADDRESS)
        attach_host(self.internet, self.rng, host_id=TLD_SERVER_ADDRESS)
        self.edge_addresses = [f"172.16.{i // 250}.{i % 250 + 1}"
                               for i in range(p.n_edge_servers)]
        for address in self.edge_addresses:
            attach_host(self.internet, self.rng, host_id=address)

        # Data plane.
        self.network = Network(self.loop, self.internet.topology, self.rng)
        self.network.build_speakers()

        # Control plane.
        self.bus = MetadataBus(self.loop, self.rng)
        self.mapping = MappingIntelligence(self.loop, self.bus)
        for address in self.edge_addresses:
            location = self.internet.topology.node(address).location
            self.mapping.add_edge(EdgeServer(address, location))
        self.portal = ManagementPortal(self.bus)
        self.coordinator = QuorumSuspensionCoordinator(
            self.loop, max_concurrent=max(2, p.n_pops
                                          * p.machines_per_pop // 4))
        self.recovery = RecoverySystem(self.loop)
        self._initial_snapshot: MapSnapshot = self.mapping.snapshot()

        # Akamai zones.
        self.akamai_zones = self._build_akamai_zones()
        self.enterprise_zones: dict[Name, Zone] = {}
        self.tld_zone = self._build_tld_zone()
        self.root_zone = self._build_root_zone()

        # Fleet.
        self.pops: dict[str, PoP] = {}
        self.deployments: list[MachineDeployment] = []
        self._build_fleet()
        self._build_infrastructure_hosts()
        self._build_lowlevel_fleet()

        #: Safe-rollout release train (section 4.2.1 phased deployment);
        #: None unless ``rollout_enabled``.
        self.rollout: RolloutCoordinator | None = None
        if p.rollout_enabled:
            self.rollout = RolloutCoordinator(
                self.loop, self.bus,
                canaries=[d.machine for d in self.canary_deployments()],
                fleet=self.machines(), params=p.rollout)
            for zone in self.akamai_zones:
                self.rollout.set_baseline(zone)

        # Data Collection/Aggregation (Figure 5): per-zone traffic
        # reports compiled for the portal.
        self.collector = TrafficCollector(self.loop)
        for deployment in self.deployments:
            self.collector.register(deployment.machine)

        # Heartbeats keep metadata fresh platform-wide.
        self._heartbeat = self._start_heartbeat()

        #: Resolvers created through :meth:`add_resolver`.
        self.resolvers: dict[str, RecursiveResolver] = {}

        #: External gray-failure prober; None until
        #: :meth:`enable_grayfail` opts in.
        self.grayfail: GrayFailController | None = None

    # -- topology/cloud wiring ----------------------------------------------------

    def _assign_clouds_to_pops(self) -> dict[int, list[str]]:
        """Greedy assignment honoring the two-clouds-per-PoP cap."""
        p = self.params
        capacity = {pop: MAX_CLOUDS_PER_POP for pop in self.pop_ids}
        assignment: dict[int, list[str]] = {}
        ordered_pops = list(self.pop_ids)
        for cloud in self.clouds:
            chosen: list[str] = []
            candidates = sorted(ordered_pops,
                                key=lambda pop: -capacity[pop])
            for pop in candidates:
                if capacity[pop] > 0:
                    chosen.append(pop)
                    capacity[pop] -= 1
                if len(chosen) == p.pops_per_cloud:
                    break
            if len(chosen) < p.pops_per_cloud:
                raise ValueError(
                    f"not enough PoP capacity: {p.deployed_clouds} clouds x "
                    f"pops_per_cloud={p.pops_per_cloud} need more than "
                    f"n_pops={p.n_pops} x {MAX_CLOUDS_PER_POP} clouds a PoP")
            assignment[cloud.index] = chosen
        return assignment

    def pop_clouds(self, pop_id: str) -> list[AnycastCloudSpec]:
        """The clouds a PoP advertises."""
        return [c for c in self.clouds
                if pop_id in self.cloud_pops[c.index]]

    # -- zones -----------------------------------------------------------------------

    def _build_akamai_zones(self) -> list[Zone]:
        toplevel_specs = self.clouds[:CDN_DELEGATION_COUNT]
        toplevel_ns = [(c.ns_hostname, c.prefix) for c in toplevel_specs]
        static_lowlevels = [
            (name(f"n{a.replace('.', '-')}.{self.names.lowlevel_zone}"), a)
            for a in self.edge_addresses[:2]]
        toplevel_zone = build_toplevel_zone(self.names, toplevel_ns,
                                            static_lowlevels)
        lowlevel_zone = build_lowlevel_zone(
            self.names,
            [(name(f"n{a.replace('.', '-')}.{self.names.lowlevel_zone}"), a)
             for a in self.edge_addresses] or static_lowlevels)

        # akam.net: the cloud NS hostnames' own zone.
        akam = make_zone(
            name("akam.net"),
            SOA(self.clouds[0].ns_hostname, name("hostmaster.akamai.com"),
                1, 7200, 3600, 1209600, 300),
            [c.ns_hostname for c in self.clouds], ttl=86400)
        for cloud in self.clouds:
            akam.add_rrset(make_rrset(cloud.ns_hostname, RType.A, 86400,
                                      [A(cloud.prefix)]))
            akam.add_rrset(make_rrset(cloud.ns_hostname, RType.AAAA,
                                      86400, [AAAA(cloud.prefix6)]))

        # edgesuite.net: CDN entry domain, CNAMEs added per enterprise.
        edgesuite = make_zone(
            name("edgesuite.net"),
            SOA(self.clouds[0].ns_hostname, name("hostmaster.akamai.com"),
                1, 7200, 3600, 1209600, 300),
            [c.ns_hostname for c in toplevel_specs], ttl=86400)

        return [toplevel_zone, lowlevel_zone, akam, edgesuite]

    def _build_tld_zone(self) -> Zone:
        """One server covering net/com delegations (enough hierarchy for
        the experiments; the real TLD infrastructure is out of scope)."""
        tld = make_zone(
            name("net"),
            SOA(name("a.gtld.net"), name("hostmaster.gtld.net"), 1,
                7200, 3600, 1209600, 300),
            [name("a.gtld.net")], ttl=86400)
        tld.add_rrset(make_rrset(name("a.gtld.net"), RType.A, 86400,
                                 [A(TLD_SERVER_ADDRESS)]))
        # Delegate akam.net with full glue: the critical bootstrap.
        tld.add_rrset(make_rrset(
            name("akam.net"), RType.NS, 86400,
            [NS(c.ns_hostname) for c in self.clouds]))
        for cloud in self.clouds:
            tld.add_rrset(make_rrset(cloud.ns_hostname, RType.A, 86400,
                                     [A(cloud.prefix)]))
            tld.add_rrset(make_rrset(cloud.ns_hostname, RType.AAAA,
                                     86400, [AAAA(cloud.prefix6)]))
        toplevel = self.clouds[:CDN_DELEGATION_COUNT]
        tld.add_rrset(make_rrset(
            name("akamai.net"), RType.NS, 86400,
            [NS(c.ns_hostname) for c in toplevel]))
        tld.add_rrset(make_rrset(
            name("edgesuite.net"), RType.NS, 86400,
            [NS(c.ns_hostname) for c in toplevel]))
        return tld

    def _build_root_zone(self) -> Zone:
        root = make_zone(
            name("."),
            SOA(name("a.root-servers.net"), name("nstld.verisign-grs.com"),
                1, 1800, 900, 604800, 86400),
            [name("a.root-servers.net")], ttl=518400)
        root.add_rrset(make_rrset(name("a.root-servers.net"), RType.A,
                                  518400, [A(ROOT_SERVER_ADDRESS)]))
        root.add_rrset(make_rrset(name("net"), RType.NS, 172800,
                                  [NS(name("a.gtld.net"))]))
        root.add_rrset(make_rrset(name("a.gtld.net"), RType.A, 172800,
                                  [A(TLD_SERVER_ADDRESS)]))
        return root

    # -- fleet construction -----------------------------------------------------------

    def _locate_client(self, client_key: str | None) -> GeoPoint | None:
        if client_key is None:
            return None
        if self.internet.topology.has_node(client_key):
            return self.internet.topology.node(client_key).location
        return self.client_locations.get(client_key)

    def _make_pipeline(self, store: ZoneStore) -> ScoringPipeline:
        if not self.params.filters_enabled:
            return ScoringPipeline([])
        return ScoringPipeline([
            RateLimitFilter(),
            AllowlistFilter(),
            NXDomainFilter(store),
            HopCountFilter(),
            LoyaltyFilter(),
        ])

    def _make_machine(self, machine_id: str,
                      config: MachineConfig) -> tuple[NameserverMachine,
                                                      MappingView]:
        store = ZoneStore()
        for zone in self.akamai_zones:
            # Fleet (toplevel) machines do NOT serve the lowlevel zone:
            # they delegate it — that split *is* the Two-Tier system.
            if zone.origin == self.names.lowlevel_zone:
                continue
            store.add(zone)  # reprolint: disable=ROB001 -- build bootstrap
        for zone in self.enterprise_zones.values():
            store.add(zone)  # reprolint: disable=ROB001 -- build bootstrap
        view = MappingView(self._locate_client, random.Random(
            self.rng.randrange(2**31)))
        view.snapshot = self._initial_snapshot
        provider = TailoredDelegationProvider(
            lambda v=view: v.snapshot, self._locate_client)
        engine = AuthoritativeEngine(
            store, mapping=view,
            dynamic_delegations={self.names.lowlevel_zone: provider})
        pipeline = self._make_pipeline(store)
        machine = NameserverMachine(self.loop, machine_id, engine, pipeline,
                                    QueuePolicy(), config)
        machine.metadata_handlers["mapping"] = view.apply
        # The machine's own guarded install seam validates (when the
        # zone guard is on), retains last-known-good, and invalidates
        # the NXDOMAIN filter's cached hostname tree.
        machine.metadata_handlers["zone"] = machine.handle_zone_update
        extra_delay = INPUT_DELAY_SECONDS if config.input_delayed else 0.0
        self.bus.subscribe(MULTICAST_CHANNEL, machine,
                           extra_delay=extra_delay)
        self.bus.subscribe(CDN_CHANNEL, machine, extra_delay=extra_delay)
        self.recovery.register(machine)
        return machine, view

    def _build_fleet(self) -> None:
        p = self.params
        for pop_id in self.pop_ids:
            pop = PoP(self.loop, self.network, pop_id)
            self.pops[pop_id] = pop
            prefixes = [p for c in self.pop_clouds(pop_id)
                        for p in c.prefixes]
            for j in range(p.machines_per_pop):
                self._add_fleet_machine(pop, prefixes, input_delayed=False)
        if p.input_delayed_enabled:
            # One input-delayed machine per cloud, at its first PoP.
            for cloud in self.clouds:
                pop_id = self.cloud_pops[cloud.index][0]
                self._add_fleet_machine(self.pops[pop_id],
                                        list(cloud.prefixes),
                                        input_delayed=True)

    def _add_fleet_machine(self, pop: PoP, prefixes: list[str],
                           *, input_delayed: bool) -> MachineDeployment:
        p = self.params
        self._machine_seq += 1
        machine_id = f"{pop.router_id}-m{self._machine_seq}"
        config = replace(p.machine_config, input_delayed=input_delayed)
        machine, view = self._make_machine(machine_id, config)
        pop.add_machine(machine)
        speaker = MachineBGPSpeaker(
            pop, machine_id, prefixes,
            med=INPUT_DELAYED_MED if input_delayed else 0)
        agent = MonitoringAgent(
            self.loop, machine, speaker,
            coordinator=None if input_delayed else self.coordinator,
            allow_self_suspend=not input_delayed)
        speaker.advertise_all()
        deployment = MachineDeployment(machine, speaker, agent, view,
                                       input_delayed)
        self.deployments.append(deployment)
        return deployment

    def _build_infrastructure_hosts(self) -> None:
        self._simple_host(ROOT_SERVER_ADDRESS, [self.root_zone])
        self._simple_host(TLD_SERVER_ADDRESS, [self.tld_zone])

    def _simple_host(self, address: str, zones: list[Zone]) -> None:
        """A plain nameserver for ``zones`` at ``address``; the network
        holds the endpoint."""
        store = ZoneStore()
        for zone in zones:
            store.add(zone)  # reprolint: disable=ROB001 -- build bootstrap
        machine = NameserverMachine(
            self.loop, f"host-{address}", AuthoritativeEngine(store),
            ScoringPipeline([]), QueuePolicy(),
            MachineConfig(staleness_threshold=float("inf"),
                          wire_responses=self.params.machine_config
                          .wire_responses))
        HostNameserver(self.loop, self.network, address, machine)

    def _build_lowlevel_fleet(self) -> None:
        """Every CDN edge runs a lowlevel nameserver (section 5.2)."""
        self.lowlevel_hosts: dict[str, HostNameserver] = {}
        lowlevel_zone = self.akamai_zones[1]
        for address in self.edge_addresses:
            store = ZoneStore()
            store.add(lowlevel_zone)  # reprolint: disable=ROB001 -- bootstrap
            view = MappingView(self._locate_client, random.Random(
                self.rng.randrange(2**31)))
            view.snapshot = self._initial_snapshot
            engine = AuthoritativeEngine(
                store, mapping=view,
                dynamic_domains=[self.names.lowlevel_zone])
            machine = NameserverMachine(
                self.loop, f"ll-{address}", engine, ScoringPipeline([]),
                QueuePolicy(),
                MachineConfig(staleness_threshold=float("inf"),
                              wire_responses=self.params.machine_config
                              .wire_responses))
            machine.metadata_handlers["mapping"] = view.apply
            self.bus.subscribe(MULTICAST_CHANNEL, machine)
            self.lowlevel_hosts[address] = HostNameserver(
                self.loop, self.network, address, machine)

    # -- provisioning -----------------------------------------------------------------

    def provision_enterprise(self, enterprise_id: str, origin: str,
                             zone_body: str = "", *,
                             cdn_hostnames: list[str] | None = None
                             ) -> tuple[AnycastCloudSpec, ...]:
        """Onboard an enterprise: assign clouds, build+publish its zone,
        update the parent TLD delegation, and optionally wire CDN names.

        ``zone_body`` is extra master-file content (no SOA/NS needed).
        Origins must sit under ".net" — the only TLD the simulated
        hierarchy carries. Returns the assigned delegation set.
        """
        if not name(origin).is_subdomain_of(self.tld_zone.origin):
            raise ValueError(f"enterprise origins must end in "
                             f".{self.tld_zone.origin}")
        delegation = self.assigner.assign(enterprise_id)
        usable = [c for c in delegation if c in self.clouds]
        if not usable:
            raise ValueError(
                "assigned clouds are not deployed; raise deployed_clouds")
        ns_lines = "\n".join(f"@ IN NS {c.ns_hostname}" for c in usable)
        text = (f"$ORIGIN {origin.rstrip('.')}.\n$TTL 3600\n"
                f"@ IN SOA {usable[0].ns_hostname} "
                f"hostmaster.{origin.rstrip('.')}. 1 7200 3600 1209600 300\n"
                f"{ns_lines}\n{zone_body}")
        self.portal.register_enterprise(
            enterprise_id,
            tuple(str(c.ns_hostname) for c in usable))
        zone = self.portal.submit_zone_text(enterprise_id, text)
        self.enterprise_zones[zone.origin] = zone
        # Immediate install (steady-state assumption) in addition to the
        # bus publication the portal already made; routed through each
        # machine's guarded seam so the audit log sees it.
        for deployment in self.deployments:
            deployment.machine.install_zone(zone)
        if self.rollout is not None:
            self.rollout.set_baseline(zone)
        # Parent delegation: "adding the NS records to the parent zone
        # ensures that resolvers are directed to Akamai DNS".
        self.tld_zone.add_rrset(make_rrset(
            zone.origin, RType.NS, 86400,
            [NS(c.ns_hostname) for c in usable]))
        for hostname in cdn_hostnames or []:
            self._wire_cdn_hostname(zone, hostname)
        return tuple(usable)

    def provision_gtm_property(self, enterprise_id: str, hostname: str,
                               datacenters: list[tuple[str, GeoPoint]],
                               weights: list[float]) -> GTMProperty:
        """Configure DNS-based load balancing for an enterprise hostname.

        ``hostname`` must fall under one of the enterprise's provisioned
        zones (so queries reach Akamai DNS); answers are computed per
        query from the weighted live datacenter set, published to the
        fleet through the mapping channel (paper sections 1 and 3.2).
        """
        gtm_name = name(hostname)
        enterprise = self.portal.enterprises.get(enterprise_id)
        if enterprise is None:
            raise ValueError(f"unknown enterprise {enterprise_id}")
        if not any(gtm_name.is_subdomain_of(origin)
                   for origin in enterprise.zones):
            raise ValueError(
                f"{hostname} is not under any of {enterprise_id}'s zones")
        prop = GTMProperty(
            gtm_name,
            tuple(EdgeServer(address, location)
                  for address, location in datacenters),
            tuple(weights))
        self.mapping.add_gtm_property(prop)
        for deployment in self.deployments:
            deployment.machine.engine.add_dynamic_domain(gtm_name)
        self._initial_snapshot = self.mapping.publish()
        return prop

    def set_datacenter_alive(self, hostname: str, address: str,
                             alive: bool) -> None:
        """Mark a GTM datacenter up or down; the mapping system
        publishes the change immediately."""
        self.mapping.set_gtm_datacenter_alive(name(hostname), address,
                                              alive)

    def _wire_cdn_hostname(self, zone: Zone, hostname: str) -> None:
        """www.ex.com -> ex.edgesuite.net -> a1.w10.akamai.net."""
        short = str(zone.origin).split(".")[0]
        entry = name(f"{short}.edgesuite.net")
        zone.add_rrset(make_rrset(
            name(hostname), RType.CNAME, 300, [CNAME(entry)]))
        edgesuite = self.akamai_zones[3]
        if edgesuite.get_rrset(entry, RType.CNAME) is None:
            edgesuite.add_rrset(make_rrset(
                entry, RType.CNAME, 21600, [CNAME(self.names.hostname(1))]))

    # -- resolvers ---------------------------------------------------------------------

    def hints(self) -> dict[Name, list[str]]:
        """Root hints for resolvers."""
        return {name("."): [ROOT_SERVER_ADDRESS]}

    def add_resolver(self, resolver_id: str, *,
                     timeout: float = 2.0) -> RecursiveResolver:
        """Attach a recursive resolver host to the Internet."""
        attach_host(self.internet, self.rng, host_id=resolver_id)
        resolver = RecursiveResolver(
            self.loop, self.network, resolver_id, self.hints(),
            rng=random.Random(self.rng.randrange(2**31)),
            timeout=timeout)
        self.resolvers[resolver_id] = resolver
        return resolver

    # -- running -----------------------------------------------------------------------

    def run_until(self, deadline: float) -> None:
        """Advance simulated time."""
        self.loop.run_until(deadline)

    def settle(self, seconds: float = 30.0) -> None:
        """Let BGP and control-plane state converge."""
        self.run_until(self.loop.now + seconds)

    def enterprise_traffic_report(self,
                                  enterprise_id: str) -> dict[str, float]:
        """The traffic roll-up an enterprise sees in the portal."""
        enterprise = self.portal.enterprises[enterprise_id]
        return self.collector.enterprise_report(list(enterprise.zones))

    def machines(self) -> list[NameserverMachine]:
        return [d.machine for d in self.deployments]

    def deployments_at(self, pop_id: str) -> list[MachineDeployment]:
        """The machine deployments resident at one PoP."""
        return [d for d in self.deployments
                if d.machine.machine_id.startswith(pop_id + "-")]

    # -- failure injection seams --------------------------------------------

    def _start_heartbeat(self) -> PeriodicTask:
        return PeriodicTask(self.loop, METADATA_HEARTBEAT,
                            lambda: self.mapping.publish(),
                            start_delay=METADATA_HEARTBEAT)

    def pause_metadata_heartbeat(self) -> None:
        """Stop the platform-wide metadata heartbeat (publisher freeze).

        Models the control-plane side of a stale-metadata incident: no
        new mapping inputs are published at all, so every machine's
        staleness clock starts running (section 4.2.2's failure mode at
        the source rather than the subscriber).
        """
        self._heartbeat.stop()

    def resume_metadata_heartbeat(self) -> None:
        """Restart the heartbeat and publish immediately to catch up."""
        if self._heartbeat.stopped:
            self._heartbeat = self._start_heartbeat()
            self.mapping.publish()

    def regular_deployments(self) -> list[MachineDeployment]:
        return [d for d in self.deployments if not d.input_delayed]

    def input_delayed_deployments(self) -> list[MachineDeployment]:
        return [d for d in self.deployments if d.input_delayed]

    # -- gray-failure detection ---------------------------------------------

    def enable_grayfail(self) -> GrayFailController:
        """Attach the external gray-failure prober (control.grayfail).

        Opt-in: deployments that never call this are byte-identical to
        builds without the subsystem. Vantage hosts are attached
        *co-located* at each PoP router so the prober judges machine
        health, not Internet reachability, and all topology randomness
        draws from a dedicated RNG stream — the deployment's own draw
        order (and therefore every existing figure) is untouched.

        Input-delayed machines are deliberately not probed: they are
        intentionally stale, and the differential auditor would convict
        them for exactly the property that makes them useful.
        """
        if self.grayfail is not None:
            return self.grayfail
        rng = random.Random(self.params.seed ^ 0x67726179)
        vantages: dict[str, list[str]] = {}
        for pop_id in self.pop_ids:
            hosts = []
            for index in range(VANTAGES_PER_POP):
                host_id = f"gray-vp-{pop_id}-{index}"
                attach_host(self.internet, rng, host_id=host_id,
                            attach_to=pop_id)
                hosts.append(host_id)
            vantages[pop_id] = hosts
        targets = []
        for deployment in self.regular_deployments():
            pop_id = deployment.machine.machine_id.rsplit("-m", 1)[0]
            targets.append(GrayTarget(
                deployment.machine, deployment.speaker, self.pops[pop_id],
                deployment.speaker.clouds[0]))
        self.grayfail = GrayFailController(
            self.loop, self.network, targets, self.coordinator,
            vantages=vantages,
            probe_qname=self.clouds[0].ns_hostname,
            probe_origin=name("akam.net"))
        return self.grayfail

    # -- safe rollout -------------------------------------------------------

    def canary_deployments(self) -> list[MachineDeployment]:
        """The rollout canary cohort (paper section 4.2.1/4.2.3).

        The input-delayed deployments — already the platform's built-in
        time-delayed canaries — plus every machine of the designated
        canary cloud (the first deployed cloud), so a bad update is
        observable on live-traffic machines within one delivery delay.
        """
        canaries = list(self.input_delayed_deployments())
        designated = self.clouds[0]
        for pop_id in self.cloud_pops[designated.index]:
            for deployment in self.deployments_at(pop_id):
                if not deployment.input_delayed:
                    canaries.append(deployment)
        return canaries

    def publish_zone_update(self, zone: Zone) -> "Release | None":
        """Publish a zone update to the fleet.

        With the safe-rollout train enabled it is validated, canaried
        and health-gated before promotion (returns the :class:`Release`);
        otherwise it goes out at once on the CDN channel, versioned so
        out-of-order deliveries are dropped (returns None).
        """
        if self.rollout is not None:
            return self.rollout.publish(zone)
        self.bus.publish_zone(CDN_CHANNEL, str(zone.origin), ZoneUpdate(zone))
        return None


"""Data Collection/Aggregation: traffic reports for enterprises.

The last box of paper Figure 5: metrics published by nameservers are
compiled into reports displayed to enterprises through the Management
Portal. Nameservers publish per-zone counters periodically; the
collector aggregates them into per-enterprise traffic reports.

Counting is broken down by response code — enterprises watch NXDOMAIN
(random-subdomain attacks against their zones), SERVFAIL (platform
faults), and REFUSED (misdirected queries), not just totals. When a
telemetry session is active each counted response also feeds the
session's ``zone_responses_total`` family, so the portal view and the
operator dashboards read from one pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dnscore.name import Name
from ..dnscore.message import Message
from ..dnscore.rrtypes import RCode
from ..netsim.clock import EventLoop, PeriodicTask
from ..server.machine import NameserverMachine
from ..telemetry import state as _telemetry

#: Read per response; an Enum member read off its class is a metaclass
#: attribute lookup per use.
_NOERROR = RCode.NOERROR


@dataclass(slots=True)
class ZoneTrafficSample:
    """One machine's per-zone counters for one reporting interval."""

    machine_id: str
    zone: Name
    window_start: float
    window_end: float
    queries: int = 0
    nxdomains: int = 0
    servfails: int = 0
    refused: int = 0


@dataclass(slots=True)
class ZoneTrafficReport:
    """Aggregated view of one zone's traffic over an interval."""

    zone: Name
    window_start: float
    window_end: float
    queries: int = 0
    nxdomains: int = 0
    servfails: int = 0
    refused: int = 0
    reporting_machines: int = 0

    @property
    def qps(self) -> float:
        window = self.window_end - self.window_start
        return self.queries / window if window > 0 else 0.0

    @property
    def nxdomain_fraction(self) -> float:
        return self.nxdomains / self.queries if self.queries else 0.0

    @property
    def servfail_fraction(self) -> float:
        return self.servfails / self.queries if self.queries else 0.0


class ZoneCounter:
    """Per-zone counting tap on a nameserver's response stream."""

    def __init__(self, machine: NameserverMachine) -> None:
        self.machine = machine
        self._queries: dict[Name, int] = {}
        #: (zone, rcode) -> count, for every non-NOERROR response.
        self._errors: dict[tuple[Name, RCode], int] = {}
        #: Bound once: this observer runs on every response the engine
        #: assembles, so the attribute chain is hoisted out of the call.
        self._find = machine.engine.store.find
        machine.engine.response_observers.append(self._observe)

    def _observe(self, query: Message, response: Message) -> None:
        questions = query.questions
        if len(questions) != 1:
            return
        zone = self._find(questions[0].qname)
        if zone is None:
            return
        origin = zone.origin
        queries = self._queries
        # try/except beats dict.get on the hot path: zero-cost when the
        # key exists, which is every observation after the first.
        try:
            queries[origin] += 1
        except KeyError:
            queries[origin] = 1
        rcode = response.flags.rcode
        if rcode != _NOERROR:
            key = (origin, rcode)
            errors = self._errors
            try:
                errors[key] += 1
            except KeyError:
                errors[key] = 1
        _telemetry.record("zone_responses_total",
                          (self.machine.machine_id, origin, rcode))

    def drain(self, window_start: float,
              window_end: float) -> list[ZoneTrafficSample]:
        """Emit and reset the counters for this interval."""
        samples = []
        errors = self._errors
        for zone, count in self._queries.items():
            samples.append(ZoneTrafficSample(
                self.machine.machine_id, zone, window_start, window_end,
                queries=count,
                nxdomains=errors.get((zone, RCode.NXDOMAIN), 0),
                servfails=errors.get((zone, RCode.SERVFAIL), 0),
                refused=errors.get((zone, RCode.REFUSED), 0)))
        self._queries.clear()
        self._errors.clear()
        return samples


#: Seconds between reporting cycles, and the reports kept per zone.
PERIOD = 60.0
HISTORY_WINDOWS = 64


class TrafficCollector:
    """Aggregates zone counters across the fleet on a reporting period."""

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self._counters: list[ZoneCounter] = []
        #: zone -> list of reports, newest last
        self.reports: dict[Name, list[ZoneTrafficReport]] = {}
        self._window_start = loop.now
        self._task = PeriodicTask(loop, PERIOD, self.collect,
                                  start_delay=PERIOD)

    def register(self, machine: NameserverMachine) -> ZoneCounter:
        counter = ZoneCounter(machine)
        self._counters.append(counter)
        return counter

    def collect(self) -> list[ZoneTrafficReport]:
        """One reporting cycle: drain every counter and aggregate."""
        window_start, window_end = self._window_start, self.loop.now
        self._window_start = window_end
        aggregated: dict[Name, ZoneTrafficReport] = {}
        for counter in self._counters:
            for sample in counter.drain(window_start, window_end):
                report = aggregated.get(sample.zone)
                if report is None:
                    report = ZoneTrafficReport(sample.zone, window_start,
                                               window_end)
                    aggregated[sample.zone] = report
                report.queries += sample.queries
                report.nxdomains += sample.nxdomains
                report.servfails += sample.servfails
                report.refused += sample.refused
                report.reporting_machines += 1
        for zone, report in aggregated.items():
            history = self.reports.setdefault(zone, [])
            history.append(report)
            del history[:-HISTORY_WINDOWS]
        return list(aggregated.values())

    def latest(self, zone: Name) -> ZoneTrafficReport | None:
        history = self.reports.get(zone)
        return history[-1] if history else None

    def total_queries(self, zone: Name) -> int:
        return sum(r.queries for r in self.reports.get(zone, []))

    def enterprise_report(self, origins: list[Name]) -> dict[str, float]:
        """The roll-up an enterprise sees in the portal."""
        queries = sum(self.total_queries(origin) for origin in origins)
        nxd = sum(sum(r.nxdomains for r in self.reports.get(origin, []))
                  for origin in origins)
        servfails = sum(
            sum(r.servfails for r in self.reports.get(origin, []))
            for origin in origins)
        refused = sum(
            sum(r.refused for r in self.reports.get(origin, []))
            for origin in origins)
        return {
            "total_queries": float(queries),
            "nxdomain_fraction": nxd / queries if queries else 0.0,
            "servfail_fraction": servfails / queries if queries else 0.0,
            "refused_fraction": refused / queries if queries else 0.0,
            "zones": float(len(origins)),
        }

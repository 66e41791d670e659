"""repro: a reproduction of "Akamai DNS: Providing Authoritative Answers
to the World's Queries" (SIGCOMM 2020).

Subpackages:

* :mod:`repro.dnscore`     — from-scratch DNS protocol stack.
* :mod:`repro.dnssec`      — zone signing, key rollovers, validation.
* :mod:`repro.netsim`      — discrete-event Internet/BGP simulator.
* :mod:`repro.server`      — authoritative nameserver runtime and PoPs.
* :mod:`repro.filters`     — query scoring and prioritization.
* :mod:`repro.resolver`    — recursive resolver simulation.
* :mod:`repro.control`     — mapping, portal, pub/sub, recovery.
* :mod:`repro.platform`    — the assembled Akamai DNS platform.
* :mod:`repro.chaos`       — seedable fault-injection campaigns.
* :mod:`repro.telemetry`   — metrics, spans and alert detectors.
* :mod:`repro.workload`    — calibrated workload and attack generators.
* :mod:`repro.analysis`    — statistics and experiment reporting.
* :mod:`repro.experiments` — one module per paper figure.
* :mod:`repro.tools`       — command-line tools: dig, pairs, profile, bench.
* :mod:`repro.lint`        — reprolint, the in-tree determinism checker.

``import repro`` loads none of them: each is imported where it is
used, so a process that serves queries never loads numpy, which only
``analysis``, ``workload.arrivals`` and ``experiments`` need.
"""

__version__ = "1.0.0"

__all__ = [
    "analysis", "chaos", "control", "dnscore", "dnssec", "experiments",
    "filters", "lint", "netsim", "platform", "resolver", "server",
    "telemetry", "tools", "workload", "__version__",
]

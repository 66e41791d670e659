"""Planted defects, as data: one source edit per defect class the
determinism contract names, and who is expected to catch it.

``caught_by`` is a reprolint rule code (tests/lint/test_mutants.py lints
the edited text and wants that code) or the tier-1 test that fails on a
tree carrying the edit. To replay one against every proof, plant it in
a scratch copy and run the gates there (docs/measurements/pr22.md has
the table this produced)::

    git clone -q . /root/scratch/m && python tests/lint/mutants.py \\
        seed-constant /root/scratch/m
"""

import sys
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    caught_by: str
    path: str
    #: (old, new) text replacements; each ``old`` occurs exactly once.
    edits: tuple[tuple[str, str], ...]


_ENGINE = "src/repro/server/engine.py"
_DEPLOYMENT = "src/repro/platform/deployment.py"
_IMPORT_TIME = ("from typing import Callable, Protocol\n",
                "import time\nfrom typing import Callable, Protocol\n")
_RESPOND = "        # Fast lane: answer from a live plan without touching the zone.\n"
_RESOLVER_RNG = "            rng=random.Random(self.rng.randrange(2**31)),\n"
_SEED_TEST = ("tests/experiments/test_seed_provenance.py::"
              "test_every_rng_moves_with_the_seed")
_MESSAGE = "src/repro/dnscore/message.py"
_STAMP_TEST = ("tests/dnscore/test_message.py::TestHelpers"
               "::test_make_response_echoes")
_RESOLVER = "src/repro/resolver/resolver.py"
_STAMP_ANSWERS = \
    "        return [rrset.with_ttl(ttl) for rrset, ttl in self.chain]\n"
_NETWORK = "src/repro/netsim/network.py"

MUTANTS = (
    # -- per-file rules: the defect each one names, on a path every
    # workload runs and, where a runtime proof caught that, on one few do
    Mutant("wall-clock-in-respond", "DET001", _ENGINE, (
        _IMPORT_TIME,
        (_RESPOND, "        self.last_query_at = time.time()\n" + _RESPOND))),
    Mutant("global-random-selection", "DET002", _RESOLVER, (
        ("        address = self.rng.choice(pool)\n",
         "        address = random.choice(pool)\n"),)),
    Mutant("global-random-gtm", "DET002", "src/repro/control/mapping.py", (
        ("        chosen = self.rng.choices(",
         "        chosen = random.choices("),)),
    Mutant("uuid-message-ids", "DET003", _RESOLVER, (
        ("import random\n", "import random\nimport uuid\n"),
        ("        self._next_id = self.rng.randrange(0, 0xFFFF)\n",
         "        self._next_id = uuid.uuid4().int & 0xFFFF\n"))),
    Mutant("builtin-hash-ecmp", "DET004", "src/repro/server/pop.py", (
        ('    return zlib.crc32(("%s|%s|%s|%s" % flow_key).encode("ascii"))\n',
         "    return hash(flow_key)\n"),)),
    Mutant("withdraw-in-set-order", "DET005",
           "src/repro/server/speaker.py", (
               ("        for prefix in self.clouds:\n"
                "            self.withdraw(prefix)\n",
                "        for prefix in list(self._advertised):\n"
                "            self.withdraw(prefix)\n"),)),
    Mutant("flush-in-set-order", "DET005", "src/repro/netsim/bgp.py", (
        ("            prefixes, self.pending = self.pending, set()\n"
         "            for prefix in sorted(prefixes):\n"
         "                self._speaker._export(prefix, (self,))\n",
         "            for prefix in list(self.pending):\n"
         "                self._speaker._export(prefix, (self,))\n"
         "            self.pending = set()\n"),)),
    Mutant("unseeded-rng", "DET006", _DEPLOYMENT, (
        (_RESOLVER_RNG, "            rng=random.Random(),\n"),)),
    Mutant("sleep-per-response", "LOOP001", _ENGINE, (
        _IMPORT_TIME,
        ("        self.queries_answered += 1\n",
         "        self.queries_answered += 1\n        time.sleep(1e-6)\n"))),
    Mutant("open-in-respond", "LOOP002", _ENGINE, (
        (_RESPOND, '        with open("queries.log", "a") as log:\n'
                   '            log.write(f"{query.msg_id}\\n")\n' + _RESPOND),)),
    Mutant("print-on-suspend", "OBS001", "src/repro/server/machine.py", (
        ("            self.state = MachineState.SUSPENDED\n",
         "            self.state = MachineState.SUSPENDED\n"
         '            print(f"{self.machine_id} suspended")\n'),)),
    Mutant("install-past-the-validator", "ROB001", _DEPLOYMENT, (
        ("            deployment.machine.install_zone(zone)\n",
         "            deployment.machine.engine.store.add(zone)\n"),)),
    Mutant("deferred-install-past-the-validator", "ROB001",
           "src/repro/server/machine.py", (
               ("            self.install_zone(zone, rollback=rollback)\n",
                "            self.engine.store.add(zone)\n"),)),
    Mutant("engage-past-the-ladder", "ROB002",
           "src/repro/experiments/resilience_scorecard.py", (
               ("        ladder.insert(0, FirewallRuleRung(\n",
                "        overblock_rung = (FirewallRuleRung(\n"),
               ("            cool_off_seconds=300.0))\n",
                "            cool_off_seconds=300.0))\n"
                "        overblock_rung.engage(deployment.loop.now)\n"))),
    Mutant("disengage-past-the-revert", "ROB002",
           "src/repro/control/defense.py", (
               ("        self.reverts += 1\n",
                "        self.reverts += 1\n"
                "        rung.disengage(now)\n"),)),
    Mutant("suspend-on-a-denied-lease", "ROB003",
           "src/repro/server/monitoring.py", (
               ("            self.metrics.suspensions_denied += 1\n",
                "            self.metrics.suspensions_denied += 1\n"
                "            self.machine.suspend()\n"),)),
    Mutant("suspend-on-a-denied-verdict", "ROB003",
           "src/repro/control/grayfail.py", (
               ("                    self.denials += 1\n",
                "                    self.denials += 1\n"
                "                    machine.suspend()\n"),)),
    Mutant("suspend-in-the-crash-loop", "ROB003",
           "src/repro/chaos/injectors.py", (
               ("        if machine.state != MachineState.CRASHED:\n"
                "            machine.crash()\n",
                "        if machine.state != MachineState.CRASHED:\n"
                "            machine.suspend()\n"
                "            machine.crash()\n"),)),
    # -- what the runtime proofs hold: no rule names these (the last is
    # what API001 named, before the seed test took it over)
    Mutant("seed-constant", _SEED_TEST, _DEPLOYMENT, (
        (_RESOLVER_RNG, "            rng=random.Random(1234),\n"),)),
    Mutant("seed-constant-through-a-helper", _SEED_TEST, _DEPLOYMENT, (
        (_RESOLVER_RNG, "            rng=_stream(1234),\n"),
        ("class AkamaiDNSDeployment:\n",
         "def _stream(value):\n    return random.Random(value)\n\n\n"
         "class AkamaiDNSDeployment:\n"))),
    Mutant("state-shared-between-units",
           "tests/experiments/test_fastpath_equivalence.py::TestParallelRunner"
           "::test_serial_and_parallel_byte_identical",
           "src/repro/workload/population.py", (
               ("class ResolverPopulation:\n",
                "_BUILT: list[int] = []\n\n\nclass ResolverPopulation:\n"),
               ("        scale = TOTAL_QPS / sum(raw)\n",
                "        _BUILT.append(1)\n"
                "        scale = TOTAL_QPS / sum(raw) * (1 + len(_BUILT) / 1e6)\n"))),
    # -- what the plan cache's validity rule holds: a replacement that
    # leaves the old zone in the cell its serving records read
    Mutant("replacement-keeps-the-old-cell",
           "tests/server/test_engine_dnssec.py::TestPlanInvalidation"
           "::test_store_replacement_retires_only_its_own_plans", _ENGINE, (
               ("            cell[0] = zone\n",
                "            self._cells[origin] = [zone]\n"),)),
    Mutant("seedless-entry-point", _SEED_TEST,
           "src/repro/experiments/fig9_decision_tree.py", (
               ("def run(seed: int = 42) -> ExperimentResult:\n",
                "def run() -> ExperimentResult:\n"),
               ("    rng = random.Random(seed)\n",
                "    rng = random.Random(42)\n"))),
    # -- what the codec holds with one construction per value on the
    # wire path
    Mutant("compression-offset-off-by-one",
           "tests/dnscore/test_wire_equivalence.py::test_golden_vector",
           "src/repro/dnscore/wire.py", (
               ("                offsets[suffix] = here\n",
                "                offsets[suffix] = here + 1\n"),)),
    Mutant("stamp-drops-the-do-bit", _STAMP_TEST, _MESSAGE, (
        ("dnssec_ok=edns.dnssec_ok,", "dnssec_ok=False,"),)),
    Mutant("stamp-drops-the-rd-echo", _STAMP_TEST, _MESSAGE, (
        ("rd=query.flags.rd,", "rd=False,"),)),
    Mutant("decoded-messages-share-flags",
           "tests/dnscore/test_message.py::TestFlags"
           "::test_each_decoded_message_has_its_own_flags", _MESSAGE, (
               ("_BLANK_HEADER = bytes(_HEADER.size)\n",
                "_BLANK_HEADER = bytes(_HEADER.size)\n_DECODED: dict = {}\n"),
               ("                      bits & _FLAG_RA != 0, rcode)\n",
                "                      bits & _FLAG_RA != 0, rcode)\n"
                "        flags = _DECODED.setdefault(bits, flags)\n"))),
    Mutant("name-order-by-tuple",
           "tests/dnscore/test_name.py::TestOrderingAndDisplay"
           "::test_canonical_ordering", "src/repro/dnscore/name.py", (
               ("        return self[::-1] < other[::-1]\n",
                "        return tuple(self) < tuple(other)\n"),)),
    # -- what a resolution result holds: the cache's own RRsets, stamped
    # on read at the TTLs fixed when it finished
    Mutant("answers-hand-out-the-cached-rrsets",
           "tests/resolver/test_resolver.py::TestIterativeResolution"
           "::test_results_never_alias_the_cache", _RESOLVER, (
               (_STAMP_ANSWERS,
                "        return [rrset for rrset, _ttl in self.chain]\n"),)),
    Mutant("answers-age-at-read-time",
           "tests/resolver/test_resolution_golden.py"
           "::test_ttls_read_later_are_the_ttls_at_finish", _RESOLVER, (
               ("        self.loop = loop\n",
                "        self.loop = loop\n"
                "        global _READ_LOOP\n"
                "        _READ_LOOP = loop\n"),
               (_STAMP_ANSWERS,
                "        return [rrset.with_ttl("
                "ttl - int(_READ_LOOP.now - self.finished_at))\n"
                "                for rrset, ttl in self.chain]\n"))),
    # -- what the network invalidates on a change: the flights toward
    # the prefix it moved, the distances reached over the link it moved
    Mutant("bump-keeps-its-own-prefixs-flights",
           "tests/netsim/test_route_cache_equivalence.py"
           "::test_churn_on_one_prefix_beside_another",
           _NETWORK, (
               ("            flights = self._inflight.pop(prefix, None)\n",
                "            flights = None\n"),)),
    Mutant("repair-skips-the-cut-subtree",
           "tests/netsim/test_link_faults.py"
           "::test_a_link_change_leaves_the_view_reading_as_a_fresh_one",
           _NETWORK, (
               ("        stack = [far]\n", "        stack = []\n"),)),
)

def plant(mutant: Mutant, source: str) -> str:
    """``source`` (the text of ``mutant.path``) with the defect in it."""
    for old, new in mutant.edits:
        assert source.count(old) == 1, (
            f"{mutant.id}: {old!r} occurs {source.count(old)} times in "
            f"{mutant.path}; the code moved, move the mutant with it")
        source = source.replace(old, new)
    return source


if __name__ == "__main__":
    (mutant,) = [m for m in MUTANTS if m.id == sys.argv[1]]
    target = Path(sys.argv[2]) / mutant.path
    target.write_text(plant(mutant, target.read_text()))

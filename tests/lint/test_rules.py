"""Per-rule fixtures: positive, negative, and suppressed variants.

Every rule code must (a) fire on a deliberately seeded violation,
(b) stay silent on the idiomatic fix, and (c) honor an inline
suppression — the acceptance contract for the rule set.
"""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, lint_source, rule_by_code
from repro.lint.core import Severity

SIM_PATH = "src/repro/netsim/fake.py"
EXPERIMENT_PATH = "src/repro/experiments/fake.py"


def codes(source, path="src/repro/fake.py"):
    return [f.code for f in lint_source(source, path=path)]


class TestWallClock:
    def test_time_time(self):
        assert codes("import time\nt = time.time()\n") == ["DET001"]

    def test_perf_counter_from_import(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert codes(src) == ["DET001"]

    def test_datetime_now(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert codes(src) == ["DET001"]

    def test_datetime_module_spelling(self):
        src = "import datetime\nd = datetime.datetime.utcnow()\n"
        assert codes(src) == ["DET001"]

    def test_aliased_import(self):
        assert codes("import time as t\nx = t.monotonic()\n") == \
            ["DET001"]

    def test_simulated_clock_is_fine(self):
        src = ("from repro.netsim.clock import EventLoop\n"
               "loop = EventLoop()\n"
               "t = loop.now\n")
        assert codes(src) == []

    def test_local_variable_named_time_is_fine(self):
        # `time` here is a float, not the module: must not resolve.
        assert codes("def f(time):\n    return time\n") == []


class TestGlobalRandom:
    def test_module_level_call(self):
        assert codes("import random\nx = random.random()\n") == \
            ["DET002"]

    def test_from_import(self):
        src = "from random import shuffle\nshuffle([1, 2])\n"
        assert codes(src) == ["DET002"]

    def test_global_seed_is_flagged(self):
        assert codes("import random\nrandom.seed(7)\n") == ["DET002"]

    def test_numpy_legacy_global(self):
        assert codes("import numpy as np\nnp.random.seed(1)\n") == \
            ["DET002"]
        assert codes("import numpy as np\nx = np.random.rand(3)\n") == \
            ["DET002"]

    def test_seeded_instances_are_fine(self):
        src = ("import random\n"
               "import numpy as np\n"
               "rng = random.Random(42)\n"
               "x = rng.random()\n"
               "gen = np.random.default_rng(42)\n"
               "y = gen.normal()\n")
        assert codes(src) == []

    def test_instance_method_not_confused_with_module(self):
        src = ("import random\n"
               "class C:\n"
               "    def __init__(self, seed):\n"
               "        self.rng = random.Random(seed)\n"
               "    def draw(self):\n"
               "        return self.rng.choice([1, 2])\n")
        assert codes(src) == []

    def test_applies_in_tests_tree(self):
        src = "import random\nx = random.randint(0, 9)\n"
        assert codes(src, path="tests/test_fake.py") == ["DET002"]


class TestEntropy:
    @pytest.mark.parametrize("src", [
        "import os\nb = os.urandom(16)\n",
        "import uuid\nu = uuid.uuid4()\n",
        "import uuid\nu = uuid.uuid1()\n",
        "import secrets\nt = secrets.token_hex(8)\n",
        "import random\nr = random.SystemRandom()\n",
    ])
    def test_entropy_sources_flagged(self, src):
        assert codes(src) == ["DET003"]

    def test_uuid5_is_deterministic_and_fine(self):
        src = ("import uuid\n"
               "u = uuid.uuid5(uuid.NAMESPACE_DNS, 'example.com')\n")
        assert codes(src) == []


class TestHashOrdering:
    def test_hash_as_sort_key(self):
        src = "order = sorted(names, key=lambda n: hash(n))\n"
        assert codes(src) == ["DET004"]

    def test_hash_for_partitioning(self):
        src = "def shard(name, n):\n    return hash(name) % n\n"
        assert codes(src) == ["DET004"]

    def test_allowed_inside_hash_defining_class(self):
        src = ("class Name:\n"
               "    def __init__(self, labels):\n"
               "        self._hash = hash(labels)\n"
               "    def __hash__(self):\n"
               "        return self._hash\n")
        assert codes(src) == []

    def test_class_without_dunder_hash_still_flagged(self):
        src = ("class Router:\n"
               "    def shard(self, name):\n"
               "        return hash(name) % 4\n")
        assert codes(src) == ["DET004"]


class TestSetIteration:
    def test_for_over_set_call(self):
        src = "def f(xs):\n    for x in set(xs):\n        use(x)\n"
        assert codes(src) == ["DET005"]

    def test_comprehension_over_frozenset(self):
        src = "def f(xs):\n    return [x for x in frozenset(xs)]\n"
        assert codes(src) == ["DET005"]

    def test_set_literal(self):
        src = "for x in {1, 2, 3}:\n    use(x)\n"
        assert codes(src) == ["DET005"]

    def test_sorted_wrapper_is_fine(self):
        src = "def f(xs):\n    return [x for x in sorted(set(xs))]\n"
        assert codes(src) == []

    def test_set_attribute_fixture(self):
        """``self.x`` where the class body makes ``x`` a set: every
        marked line of the fixture, and nothing else."""
        source = (Path(__file__).parent / "fixtures"
                  / "set_attribute_iteration.py").read_text()
        expected = [number for number, line
                    in enumerate(source.splitlines(), start=1)
                    if line.endswith("# expect")]
        findings = lint_source(source, path="src/repro/server/fake.py")
        assert [f.code for f in findings] == ["DET005"] * len(expected)
        assert [f.line for f in findings] == expected

    def test_annotated_set_attribute(self):
        src = ("class S:\n"
               "    def __init__(self):\n"
               "        self._x: set[str] = set()\n"
               "    def f(self):\n"
               "        return list(self._x)\n")
        assert codes(src) == ["DET005"]

    def test_assigned_set_attribute_in_for(self):
        src = ("class S:\n"
               "    def __init__(self, xs):\n"
               "        self._x = frozenset(xs)\n"
               "    def f(self):\n"
               "        for x in self._x:\n"
               "            use(x)\n")
        assert codes(src) == ["DET005"]

    def test_sorted_set_attribute_is_fine(self):
        src = ("class S:\n"
               "    def __init__(self):\n"
               "        self._x: set[str] = set()\n"
               "    def f(self):\n"
               "        return sorted(self._x), len(self._x)\n")
        assert codes(src) == []

    def test_set_attribute_of_another_class_is_not_guessed(self):
        src = ("class A:\n"
               "    def __init__(self):\n"
               "        self._x: set[str] = set()\n"
               "class B:\n"
               "    def f(self):\n"
               "        return list(self._x)\n")
        assert codes(src) == []

    def test_set_attribute_suppressed(self):
        src = ("class S:\n"
               "    def __init__(self):\n"
               "        self._x: set[str] = set()\n"
               "    def f(self):\n"
               "        return list(self._x)  # reprolint: disable=DET005\n")
        assert codes(src) == []

    def test_severity_is_warning(self):
        findings = lint_source("for x in set(ys):\n    pass\n")
        assert findings[0].severity is Severity.WARNING


class TestUnseededRng:
    def test_unseeded_random(self):
        assert codes("import random\nr = random.Random()\n") == \
            ["DET006"]

    def test_unseeded_default_rng(self):
        src = "import numpy as np\ng = np.random.default_rng()\n"
        assert codes(src) == ["DET006"]

    def test_seeded_constructors_are_fine(self):
        src = ("import random\n"
               "import numpy as np\n"
               "a = random.Random(1)\n"
               "b = np.random.default_rng(seed=2)\n")
        assert codes(src) == []


class TestSleep:
    def test_time_sleep(self):
        assert codes("import time\ntime.sleep(0.5)\n") == ["LOOP001"]

    def test_event_loop_delay_is_fine(self):
        src = ("def retry(loop, action):\n"
               "    loop.call_later(0.5, action)\n")
        assert codes(src) == []


class TestLoopBypass:
    @pytest.mark.parametrize("src", [
        "import threading\n",
        "import asyncio\n",
        "import socket\n",
        "import subprocess\n",
        "from concurrent.futures import ThreadPoolExecutor\n",
        "import sched\n",
        "import os\n",
        "from pathlib import Path\n",
        "import logging\n",
        "import urllib.request\n",
        "from tempfile import mkdtemp\n",
        "def respond(query):\n    open('/tmp/q', 'a').write(query)\n",
        "def respond(query):\n    breakpoint()\n",
    ])
    def test_bypass_imports_flagged_in_sim_code(self, src):
        assert codes(src, path=SIM_PATH) == ["LOOP002"]

    def test_everything_respond_reaches_is_in_scope(self):
        for package in ("server", "dnscore", "dnssec", "telemetry"):
            assert codes("import io\n",
                         path=f"src/repro/{package}/fake.py") == ["LOOP002"]

    def test_a_method_named_open_is_fine(self):
        assert codes("def f(valve):\n    valve.open()\n",
                     path=SIM_PATH) == []

    def test_not_applied_outside_sim_packages(self):
        # Offline analysis/tools may talk to the real world.
        assert codes("import subprocess\n",
                     path="src/repro/tools/fake.py") == []

    def test_heapq_is_fine(self):
        assert codes("import heapq\n", path=SIM_PATH) == []


class TestBarePrint:
    def test_print_in_library_code(self):
        src = "def emit(x):\n    print(x)\n"
        assert codes(src, path=SIM_PATH) == ["OBS001"]

    def test_print_with_kwargs_still_flagged(self):
        src = ("import sys\n"
               "def emit(x):\n"
               "    print(x, file=sys.stderr)\n")
        assert codes(src, path=SIM_PATH) == ["OBS001"]

    def test_entry_points_exempt(self):
        src = "def main():\n    print('report')\n"
        for path in ("src/repro/tools/dig.py",
                     "src/repro/lint/cli.py",
                     "src/repro/experiments/runner.py",
                     "src/repro/experiments/resilience_scorecard.py"):
            assert codes(src, path=path) == []

    def test_non_entry_point_experiment_flagged(self):
        src = "def run(seed=0):\n    print(seed)\n"
        assert codes(src, path=EXPERIMENT_PATH) == ["OBS001"]

    def test_shadowed_print_is_fine(self):
        # A locally imported/defined `print` is not the builtin.
        src = ("from repro.fake import print\n"
               "def emit(x):\n"
               "    print(x)\n")
        assert codes(src, path=SIM_PATH) == []

    def test_tests_out_of_scope(self):
        assert codes("print('debug')\n", path="tests/fake.py") == []


class TestZoneInstall:
    def test_store_add_flagged(self):
        src = ("from repro.server import ZoneStore\n"
               "store = ZoneStore()\n"
               "store.add(zone)\n")
        assert codes(src, path=SIM_PATH) == ["ROB001"]

    def test_attribute_store_add_flagged(self):
        src = "def f(engine, zone):\n    engine.store.add(zone)\n"
        assert codes(src, path=SIM_PATH) == ["ROB001"]

    def test_guarded_install_is_fine(self):
        src = "def f(machine, zone):\n    machine.install_zone(zone)\n"
        assert codes(src, path=SIM_PATH) == []

    def test_unrelated_add_is_fine(self):
        src = "def f(pipeline, x):\n    pipeline.add(x)\n    items.add(x)\n"
        assert codes(src, path=SIM_PATH) == []

    def test_rollout_module_exempt(self):
        src = "def f(store, zone):\n    store.add(zone)\n"
        assert codes(src, path="src/repro/control/rollout.py") == []

    def test_tests_out_of_scope(self):
        src = "def f(store, zone):\n    store.add(zone)\n"
        assert codes(src, path="tests/server/fake.py") == []

    def test_inline_suppression(self):
        src = ("def f(store, zone):\n"
               "    # reprolint: disable-next=ROB001 -- bootstrap\n"
               "    store.add(zone)\n")
        assert codes(src, path=SIM_PATH) == []


class TestMitigatorEngage:
    def test_direct_engage_flagged(self):
        src = "def f(rung, now):\n    rung.engage(now)\n"
        assert codes(src, path=SIM_PATH) == ["ROB002"]

    def test_disengage_flagged(self):
        src = "def f(nx_rung, now):\n    nx_rung.disengage(now)\n"
        assert codes(src, path=SIM_PATH) == ["ROB002"]

    def test_rung_attribute_receiver_flagged(self):
        src = "def f(self, now):\n    self.rung.engage(now)\n"
        assert codes(src, path=SIM_PATH) == ["ROB002"]

    def test_suffixed_receiver_flagged(self):
        src = "def f(firewall_rung, now):\n    firewall_rung.engage(now)\n"
        assert codes(src, path=SIM_PATH) == ["ROB002"]

    def test_tests_in_scope(self):
        src = "def f(rung, now):\n    rung.engage(now)\n"
        assert codes(src, path="tests/telemetry/fake.py") == ["ROB002"]

    def test_defense_module_exempt(self):
        src = "def f(rung, now):\n    rung.engage(now)\n"
        assert codes(src, path="src/repro/control/defense.py") == []

    def test_unrelated_receiver_is_fine(self):
        src = ("def f(clutch, gear):\n"
               "    clutch.engage(gear)\n"
               "    gear.disengage(clutch)\n")
        assert codes(src, path=SIM_PATH) == []

    def test_armed_controller_is_fine(self):
        src = "def f(controller, telemetry):\n    controller.arm(telemetry)\n"
        assert codes(src, path=SIM_PATH) == []

    def test_inline_suppression(self):
        src = ("def f(rung, now):\n"
               "    # reprolint: disable-next=ROB002 -- exercised directly\n"
               "    rung.engage(now)\n")
        assert codes(src, path=SIM_PATH) == []


class TestSuspensionPath:
    def test_direct_suspend_flagged(self):
        src = "def f(machine):\n    machine.suspend()\n"
        assert codes(src, path=SIM_PATH) == ["ROB003"]

    def test_direct_resume_flagged(self):
        src = "def f(machine):\n    machine.resume()\n"
        assert codes(src, path=SIM_PATH) == ["ROB003"]

    def test_attribute_receiver_flagged(self):
        src = "def f(self):\n    self.machine.suspend()\n"
        assert codes(src, path=SIM_PATH) == ["ROB003"]

    def test_suffixed_receiver_flagged(self):
        src = "def f(gray_machine):\n    gray_machine.resume()\n"
        assert codes(src, path=SIM_PATH) == ["ROB003"]

    def test_grayfail_module_exempt(self):
        src = "def f(machine):\n    machine.suspend()\n"
        assert codes(src, path="src/repro/control/grayfail.py") == []

    def test_recovery_module_exempt(self):
        src = "def f(machine):\n    machine.resume()\n"
        assert codes(src, path="src/repro/control/recovery.py") == []

    def test_tests_out_of_scope(self):
        src = "def f(machine):\n    machine.suspend()\n"
        assert codes(src, path="tests/server/fake.py") == []

    def test_unrelated_receiver_is_fine(self):
        src = ("def f(task, job):\n"
               "    task.suspend()\n"
               "    job.resume()\n")
        assert codes(src, path=SIM_PATH) == []

    def test_coordinator_request_is_fine(self):
        src = ("def f(coordinator, mid, now):\n"
               "    coordinator.request_suspension(mid, now)\n")
        assert codes(src, path=SIM_PATH) == []

    def test_inline_suppression(self):
        src = ("def f(self):\n"
               "    # reprolint: disable-next=ROB003 -- quorum granted\n"
               "    self.machine.suspend()\n")
        assert codes(src, path=SIM_PATH) == []


class TestRuleCatalogue:
    def test_codes_unique(self):
        all_codes = [r.code for r in ALL_RULES]
        assert len(all_codes) == len(set(all_codes))

    def test_every_rule_documented(self):
        for rule in ALL_RULES:
            assert rule.code and rule.name and rule.description
            assert rule.scopes

    def test_rule_by_code(self):
        assert rule_by_code("DET001").name == "wall-clock-read"
        with pytest.raises(KeyError):
            rule_by_code("NOPE999")

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n")
        assert [f.code for f in findings] == ["E999"]

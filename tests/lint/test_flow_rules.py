"""FLOW rule behavior on the fixture packages: true positives, true
negatives, witness chains, config knobs, and inline suppression."""

from repro.lint.core import Severity
from repro.lint.flow import FlowConfig, analyze

from .flowutil import load_contexts


def rng_config(exempt=(), seed_roots=()):
    return FlowConfig(packages=("rngflow",), rng_exempt=exempt,
                      seed_roots=seed_roots, hot_roots=(),
                      workunit_roots=(), state_allowlist=())


def hot_config(roots):
    return FlowConfig(packages=("hotflow",), rng_exempt=(),
                      hot_roots=roots, workunit_roots=(),
                      state_allowlist=())


def par_config(allowlist=("parflow.state",)):
    return FlowConfig(packages=("parflow",), rng_exempt=(),
                      hot_roots=(),
                      workunit_roots=("parflow.work:run_unit",
                                      "parflow.work:run_clean"),
                      state_allowlist=allowlist)


class TestRngProvenance:
    def findings(self, exempt=()):
        return analyze(load_contexts("rngflow"),
                       config=rng_config(exempt))

    def test_tainted_chain_flagged_clean_chain_not(self):
        found = self.findings()
        flagged_lines = {(f.path, f.line) for f in found}
        contexts = {c.path: c for c in load_contexts("rngflow")}
        seeds = contexts["src/rngflow/seeds.py"].source_lines
        # make_bad's construction flags; make_good's (same expression,
        # different callers) must not: only call-site taint separates
        # them.
        bad_line = next(i for i, t in enumerate(seeds, 1)
                        if "random.Random(value)" in t
                        and any(f.line == i for f in found
                                if f.path.endswith("seeds.py")))
        good_lines = [i for i, t in enumerate(seeds, 1)
                      if "random.Random(value)" in t and i != bad_line]
        assert ("src/rngflow/seeds.py", bad_line) in flagged_lines
        for line in good_lines:
            assert ("src/rngflow/seeds.py", line) not in flagged_lines

    def test_witness_spans_the_call_chain(self):
        found = self.findings()
        helper = next(f for f in found if f.path.endswith("seeds.py"))
        assert helper.witness[0] == "rngflow.app:run"
        assert helper.witness[-1] == "rngflow.seeds:make_bad"

    def test_direct_constant_flagged(self):
        found = self.findings()
        direct = [f for f in found if f.path.endswith("app.py")]
        assert len(direct) == 1
        assert "Random(42)" in direct[0].message
        assert direct[0].witness == ("rngflow.app:run",)

    def test_no_arg_constructor_is_not_flow001(self):
        # DET006's case: FLOW001 only judges seeds that exist.
        found = self.findings()
        assert not any("Random()" in f.message for f in found)

    def test_all_errors_carry_code(self):
        for finding in self.findings():
            assert finding.code == "FLOW001"

    def test_exempt_modules_skipped(self):
        with_tools = self.findings()
        assert any(f.path.endswith("tools/bench.py")
                   for f in with_tools)
        without = self.findings(exempt=("rngflow.tools.",))
        assert not any(f.path.endswith("tools/bench.py")
                       for f in without)

    def test_inline_suppression_honored(self):
        found = self.findings()
        assert not any("Random(7)" in f.message for f in found)


class TestSeedRoots:
    """Registered project-internal functions (``FlowConfig.seed_roots``)
    are judged exactly like RNG constructors — the contract the DNSSEC
    ``derive_keypair`` root carries in the real tree."""

    ROOT = ("rngflow.keys:derive_key",)

    def findings(self, seed_roots=ROOT):
        return analyze(load_contexts("rngflow"),
                       config=rng_config(seed_roots=seed_roots))

    def kdf_findings(self, **kwargs):
        return [f for f in self.findings(**kwargs)
                if f.path.endswith("kdf.py")]

    def test_constant_seed_to_root_flags(self):
        found = self.kdf_findings()
        assert any("derive_key(1234)" in f.message for f in found)
        for finding in found:
            assert finding.code == "FLOW001"
            assert finding.severity is Severity.ERROR

    def test_keyword_seed_spelling_judged_too(self):
        found = self.kdf_findings()
        assert any("derive_key(99)" in f.message for f in found)

    def test_seed_derived_caller_is_clean(self):
        lines = {f.line for f in self.kdf_findings()}
        contexts = {c.path: c for c in load_contexts("rngflow")}
        source = contexts["src/rngflow/kdf.py"].source_lines
        good = next(i for i, t in enumerate(source, 1)
                    if "derive_key(seed" in t)
        assert good not in lines

    def test_root_body_not_judged_against_itself(self):
        assert not any(f.path.endswith("keys.py")
                       for f in self.findings())

    def test_unregistered_root_is_ignored(self):
        assert self.kdf_findings(seed_roots=()) == []


class TestHotPathPurity:
    def test_impure_chain_flagged_with_witness(self):
        found = analyze(
            load_contexts("hotflow"),
            config=hot_config(("hotflow.engine:Engine.respond",)))
        assert {f.code for f in found} == {"FLOW002"}
        by_path = {f.path: f for f in found}
        wall = by_path["src/hotflow/stats.py"]
        assert "wall-clock" in wall.message
        assert wall.witness == (
            "hotflow.engine:Engine.respond",
            "hotflow.engine:Engine._lookup",
            "hotflow.stats:tally")

    def test_ref_edge_reaches_scheduled_callback(self):
        found = analyze(
            load_contexts("hotflow"),
            config=hot_config(("hotflow.engine:Engine.respond",)))
        emit = next(f for f in found if f.path.endswith("engine.py"))
        assert "console I/O" in emit.message
        assert emit.witness == ("hotflow.engine:Engine.respond",
                                "hotflow.engine:Engine._emit")

    def test_pure_root_is_clean(self):
        found = analyze(
            load_contexts("hotflow"),
            config=hot_config(("hotflow.engine:Engine.probe",)))
        assert found == []


class TestParallelSafety:
    def test_global_mutation_flagged_local_state_not(self):
        found = analyze(load_contexts("parflow"), config=par_config())
        assert len(found) == 1
        leak = found[0]
        assert leak.code == "FLOW003"
        assert "parflow.work._RESULTS" in leak.message
        assert leak.witness == ("parflow.work:run_unit",)

    def test_allowlist_covers_guarded_session(self):
        # Without the allowlist the sanctioned state.ACTIVE rebind
        # flags too — proving the allowlist is what excuses it.
        found = analyze(load_contexts("parflow"),
                        config=par_config(allowlist=()))
        assert len(found) == 2
        rebind = next(f for f in found if f.path.endswith("state.py"))
        assert "parflow.state.ACTIVE" in rebind.message
        assert rebind.witness == ("parflow.work:run_unit",
                                  "parflow.state:activate")


class TestFindingPlumbing:
    def test_witness_in_render_and_dict(self):
        found = analyze(
            load_contexts("hotflow"),
            config=hot_config(("hotflow.engine:Engine.respond",)))
        wall = next(f for f in found if f.path.endswith("stats.py"))
        rendered = wall.render()
        assert "via: hotflow.engine:Engine.respond -> " in rendered
        payload = wall.to_dict()
        assert payload["witness"] == list(wall.witness)

    def test_codes_filter_restricts_rules(self):
        contexts = load_contexts("parflow")
        none = analyze(contexts, config=par_config(),
                       codes={"FLOW001"})
        assert none == []
        some = analyze(contexts, config=par_config(),
                       codes={"FLOW003"})
        assert len(some) == 1

    def test_findings_sorted(self):
        found = analyze(load_contexts("rngflow"), config=rng_config())
        assert found == sorted(found, key=type(found[0]).sort_key)

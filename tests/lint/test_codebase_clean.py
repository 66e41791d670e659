"""Tier-1 gate: the shipped tree satisfies the determinism contract.

Runs the full reprolint rule set, flow analyses included, over
``src/repro`` (and the test trees) and fails on any finding. This is
the machine-checked form of the platform's headline claim: experiments
and chaos campaigns are byte-identical under a fixed seed, and nothing
in the tree can silently break that.
"""

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCodebaseClean:
    def test_no_new_findings(self):
        result = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests",
             REPO_ROOT / "benchmarks"], root=REPO_ROOT, flow=True)
        assert result.files_checked > 150
        rendered = "\n".join(f.render() for f in result.all_new_findings)
        assert result.clean, (
            f"reprolint found violations — fix them or add an inline "
            f"`# reprolint: disable=CODE` with justification:\n{rendered}")

    def test_flow_analyses_actually_ran(self):
        # Guard against the flow layer silently matching zero entry
        # points (a renamed hot root would make FLOW002/003 vacuous).
        import ast

        from repro.lint.core import ModuleContext
        from repro.lint.engine import iter_python_files
        from repro.lint.flow import DEFAULT_CONFIG
        from repro.lint.flow.graph import build_model

        contexts = []
        for path in iter_python_files([REPO_ROOT / "src"]):
            logical = path.relative_to(REPO_ROOT).as_posix()
            source = path.read_text(encoding="utf-8")
            contexts.append(ModuleContext(
                path=logical, tree=ast.parse(source, filename=logical),
                source_lines=source.splitlines()))
        model = build_model(contexts, DEFAULT_CONFIG.packages)
        hot = model.match_functions(DEFAULT_CONFIG.hot_roots)
        units = model.match_functions(DEFAULT_CONFIG.workunit_roots)
        assert len(hot) == len(DEFAULT_CONFIG.hot_roots), (
            "a configured hot root no longer names a real function — "
            "update FlowConfig.hot_roots")
        assert len(units) >= len(DEFAULT_CONFIG.workunit_roots)
        # The analyses cover a substantial slice of the tree.
        assert len(model.reachable_from(hot)) > 50
        assert len(model.reachable_from(units)) > 100

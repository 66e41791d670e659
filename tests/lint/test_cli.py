"""CLI behavior: exit codes, JSON schema, flow mode."""

import json

import pytest

from repro.lint.cli import JSON_SCHEMA_VERSION, main

CLEAN = "x = 1\n"
DIRTY = "import time\nt = time.time()\n"


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A miniature repo layout; cwd is moved into it."""
    pkg = tmp_path / "src" / "repro" / "demo"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "dirty.py").write_text(DIRTY)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        (tree / "src/repro/demo/dirty.py").write_text(CLEAN)
        assert main(["src"]) == 0

    def test_findings_exit_one(self, tree, capsys):
        assert main(["src"]) == 1

    def test_unknown_rule_code_exits_two(self, tree, capsys):
        assert main(["src", "--select", "NOPE999"]) == 2

    def test_select_subset(self, tree, capsys):
        # Only LOOP001 selected: the wall-clock finding is invisible.
        assert main(["src", "--select", "LOOP001"]) == 0


class TestJsonOutput:
    def test_schema(self, tree, capsys):
        assert main(["src", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_checked"] == 2
        assert set(payload["counts"]) == {"error", "warning"}
        assert payload["counts"]["error"] == 1
        finding = payload["findings"][0]
        assert set(finding) == {"path", "line", "col", "code",
                                "severity", "message", "source",
                                "witness"}
        assert finding["code"] == "DET001"
        assert finding["witness"] == []
        assert finding["path"].endswith("dirty.py")
        assert finding["severity"] in ("error", "warning")

    def test_clean_json(self, tree, capsys):
        (tree / "src/repro/demo/dirty.py").write_text(CLEAN)
        assert main(["src", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestListRules:
    def test_catalogue_lists_every_code(self, tree, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "DET004", "DET005",
                     "DET006", "LOOP001", "LOOP002", "API001",
                     "FLOW001", "FLOW002", "FLOW003"):
            assert code in out


FLOW_DIRTY = (
    "import random\n"
    "\n"
    "\n"
    "def helper(value):\n"
    "    return random.Random(value)\n"
    "\n"
    "\n"
    "def run(seed):\n"
    "    helper(1234)\n"
    "    return random.Random(seed)\n"
)


@pytest.fixture
def flow_tree(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "repro" / "demo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "app.py").write_text(FLOW_DIRTY)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestFlowMode:
    def test_off_by_default(self, flow_tree, capsys):
        assert main(["src"]) == 0

    def test_flow_flag_finds_tainted_helper(self, flow_tree, capsys):
        assert main(["src", "--flow"]) == 1
        out = capsys.readouterr().out
        assert "FLOW001" in out
        assert "via: repro.demo.app:run -> repro.demo.app:helper" in out

    def test_selecting_flow_code_implies_flow(self, flow_tree, capsys):
        assert main(["src", "--select", "FLOW001"]) == 1
        # A selection naming only per-file codes runs no flow rule.
        assert main(["src", "--select", "DET001"]) == 0

    def test_json_carries_witness(self, flow_tree, capsys):
        assert main(["src", "--flow", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        flow = [f for f in payload["findings"]
                if f["code"] == "FLOW001"]
        assert flow
        assert flow[0]["witness"] == [
            "repro.demo.app:run", "repro.demo.app:helper"]

"""CLI behavior: exit codes, JSON schema, rule catalogue."""

import json

import pytest

from repro.lint import ALL_RULES
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
                                "severity", "message", "source"}
        assert finding["code"] == "DET001"
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
        for rule in ALL_RULES:
            assert f"{rule.code}  {rule.name}" in out


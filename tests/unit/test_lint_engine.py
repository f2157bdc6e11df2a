"""Engine-level tests: discovery, reporters, the rule catalogue, CLI."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.engine import LintEngine
from repro.lint.graph import all_project_rules
from repro.lint.report import render_json, render_text

DIRTY = "import time\n\nnow = time.time()\nlater = time.time()\n"


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


@pytest.fixture
def dirty_tree(tmp_path):
    return write_tree(
        tmp_path / "tree",
        {
            "repro/core/mod.py": DIRTY,
            "repro/obs/export.py": "rows = [str(x) for x in set(values)]\n",
            "repro/analysis/clean.py": "def f():\n    return 1\n",
        },
    )


class TestDiscovery:
    def test_directory_scan_counts_files(self, dirty_tree):
        result = LintEngine().check_paths([dirty_tree])
        assert result.files == 3
        assert [f.rule for f in result.findings] == ["DET001", "DET001", "DET003"]

    def test_findings_sorted_by_location(self, dirty_tree):
        result = LintEngine().check_paths([dirty_tree])
        assert [f.sort_key for f in result.findings] == sorted(
            f.sort_key for f in result.findings
        )

    def test_explicit_file_keeps_layer(self, dirty_tree):
        target = dirty_tree / "repro" / "core" / "mod.py"
        result = LintEngine().check_paths([target])
        assert [f.rule for f in result.findings] == ["DET001", "DET001"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LintEngine().check_paths([tmp_path / "nope"])

    def test_pycache_and_egg_info_skipped(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/__pycache__/mod.py": DIRTY.replace("core", "x"),
                "repro.egg-info/mod.py": DIRTY,
                "repro/core/ok.py": "x = 1\n",
            },
        )
        result = LintEngine().check_paths([tmp_path])
        assert result.files == 1


class TestReporters:
    def test_text_report_names_rule_file_line(self, dirty_tree):
        result = LintEngine().check_paths([dirty_tree])
        text = render_text(result)
        assert "repro/core/mod.py:3:7: DET001" in text
        assert "3 finding(s)" in text

    def test_json_report_is_valid_and_sorted(self, dirty_tree):
        result = LintEngine().check_paths([dirty_tree])
        document = json.loads(render_json(result))
        assert document["summary"]["findings"] == 3
        assert document["findings"][0]["rule"] == "DET001"
        assert document["findings"][0]["path"] == "repro/core/mod.py"

    def test_json_reports_byte_identical_across_runs(self, dirty_tree):
        first = render_json(LintEngine().check_paths([dirty_tree]))
        second = render_json(LintEngine().check_paths([dirty_tree]))
        assert first == second


SURVIVORS = ["DET001", "DET003", "MSG102", "PROTO001", "PROTO101"]


class TestRuleCatalogue:
    def test_every_rule_documents_itself(self):
        rules = all_project_rules()
        assert [rule.rule_id for rule in rules] == SURVIVORS
        for rule in rules:
            assert rule.summary
            assert rule.rationale
            # Which defect it is the only net for, and the test that seeds it.
            assert "only net" in type(rule).__doc__
            assert "TestSeededViolation" in type(rule).__doc__

    def test_rule_ids_unique_and_sorted(self):
        ids = [rule.rule_id for rule in all_project_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_doc_catalogue_lists_the_same_ids(self, capsys):
        """docs/static-analysis.md's rule table and ``--list-rules`` cannot
        drift apart (a PROTO002 row was missing from the doc until PR 19)."""
        doc = (Path(__file__).resolve().parents[2] / "docs" / "static-analysis.md")
        section = doc.read_text(encoding="utf-8").split("## The rules")[1].split("\n## ")[0]
        documented = re.findall(r"^\| `([A-Z]+\d+)` \|", section, flags=re.MULTILINE)
        assert main(["lint", "--list-rules"]) == 0
        listed = re.findall(r"^([A-Z]+\d+) \[", capsys.readouterr().out, flags=re.MULTILINE)
        assert documented == listed == SURVIVORS


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {"repro/core/ok.py": "x = 1\n"})
        assert main(["lint", str(tree)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_names_rule_file_line(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "repro/core/mod.py:3" in out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2

    def test_json_format(self, dirty_tree, capsys):
        assert main(["lint", str(dirty_tree), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] == 3

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in SURVIVORS:
            assert rule_id in out

    def test_flag_surface(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        options = set(re.findall(r"(?<![\w-])--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--format", "--list-rules", "--graph"}


class TestHashSeedDeterminism:
    def test_json_report_byte_identical_across_hash_seeds(self, dirty_tree):
        """The linter holds itself to DET003: reports may not vary
        with PYTHONHASHSEED (two seeds, two subprocesses, byte compare)."""
        src_dir = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "lint", str(dirty_tree),
                 "--format", "json"],
                capture_output=True,
                env={"PYTHONPATH": str(src_dir), "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 1, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

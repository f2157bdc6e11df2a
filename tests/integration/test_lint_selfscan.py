"""The linter's acceptance test is the repo itself.

* the shipped ``src/`` tree is clean (under the shipped, empty baseline);
* seeding a DET001 violation into a copy of ``core/replica.py`` turns the
  scan red and the report names the rule, file and line;
* seeding a two-hop ambient leak trips the whole-program DET101 with the
  full witness chain, and a typo'd ``Promise`` field trips MSG101;
* two full self-scans are byte-identical across PYTHONHASHSEED values.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import Baseline, LintEngine

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "lint-baseline.json"


class TestSelfScan:
    def test_src_is_clean(self):
        result = LintEngine().check_paths([SRC])
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert result.files > 90  # the whole tree was actually scanned

    def test_src_is_clean_under_shipped_baseline(self, capsys):
        assert BASELINE.exists(), "lint-baseline.json must ship with the repo"
        baseline = Baseline.load(BASELINE)
        assert baseline.fingerprints == {}, (
            "the shipped baseline must stay empty: fix findings, do not bank them"
        )
        code = main(["lint", str(SRC), "--baseline", str(BASELINE)])
        capsys.readouterr()
        assert code == 0

    def test_cli_exits_zero_on_shipped_tree(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestSeededViolation:
    @pytest.fixture
    def tainted_tree(self, tmp_path):
        """A copy of the real core/ with a wall-clock read spliced into
        replica.py — the exact leak DET001 exists to catch."""
        tree = tmp_path / "repro" / "core"
        tree.parent.mkdir()
        shutil.copytree(SRC / "repro" / "core", tree)
        target = tree / "replica.py"
        source = target.read_text(encoding="utf-8")
        source += (
            "\n\nimport time\n\n\n"
            "def _leaky_timestamp() -> float:\n"
            "    return time.time()\n"
        )
        target.write_text(source, encoding="utf-8")
        line = source.count("\n")  # the return is the last line
        return tmp_path, line

    def test_seeded_det001_fails_scan_naming_rule_file_line(
        self, tainted_tree, capsys
    ):
        root, line = tainted_tree
        assert main(["lint", str(root)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert f"repro/core/replica.py:{line}" in out
        assert "time.time" in out

    def test_seeded_violation_is_suppressible_with_reason(self, tainted_tree, capsys):
        root, _ = tainted_tree
        target = root / "repro" / "core" / "replica.py"
        source = target.read_text(encoding="utf-8").replace(
            "return time.time()",
            "return time.time()  # lint: ignore[DET001] -- test fixture",
        )
        target.write_text(source, encoding="utf-8")
        assert main(["lint", str(root)]) == 0
        # The seeded DET001 suppression is the only one: core/ ships none.
        assert "1 suppressed" in capsys.readouterr().out


class TestSeededProjectViolations:
    """The ISSUE-mandated seeded bugs for the whole-program rules: the
    analyzer must catch them *through* the call graph, not just at the
    offending line."""

    @pytest.fixture
    def core_copy(self, tmp_path):
        tree = tmp_path / "repro" / "core"
        tree.parent.mkdir()
        shutil.copytree(SRC / "repro" / "core", tree)
        return tmp_path

    def test_two_hop_ambient_leak_trips_det101_with_full_path(
        self, core_copy, capsys
    ):
        # A helper package two call hops away from replica.py reads the
        # wall clock; replica.py itself never mentions ``time``.
        util = core_copy / "repro" / "util"
        util.mkdir()
        (util / "leak.py").write_text(
            "import time\n\n\n"
            "def leak_helper(x):\n"
            "    return _stamp(x)\n\n\n"
            "def _stamp(x):\n"
            "    return (x, time.time())\n",
            encoding="utf-8",
        )
        target = core_copy / "repro" / "core" / "replica.py"
        source = target.read_text(encoding="utf-8")
        source += (
            "\n\nfrom repro.util.leak import leak_helper\n\n\n"
            "def _leaky_entry(x):\n"
            "    return leak_helper(x)\n"
        )
        target.write_text(source, encoding="utf-8")
        assert main(["lint", str(core_copy), "--select", "DET101"]) == 1
        out = capsys.readouterr().out
        assert "DET101" in out
        assert "repro/core/replica.py" in out
        # The witness names every hop of the chain, ending at the clock.
        assert "repro.core.replica._leaky_entry" in out
        assert "repro.util.leak.leak_helper" in out
        assert "repro.util.leak._stamp" in out
        assert "time.time" in out

    def test_promise_field_typo_trips_msg101_with_file_line(
        self, core_copy, capsys
    ):
        target = core_copy / "repro" / "core" / "replica.py"
        source = target.read_text(encoding="utf-8")
        source += (
            "\n\ndef _peek_promise(msg: Promise) -> int:\n"
            "    return msg.balot\n"
        )
        target.write_text(source, encoding="utf-8")
        line = source.count("\n")  # the read is the last line
        assert main(["lint", str(core_copy), "--select", "MSG101"]) == 1
        out = capsys.readouterr().out
        assert "MSG101" in out
        assert f"repro/core/replica.py:{line}" in out
        assert "balot" in out


class TestGraphExport:
    def test_graph_json_export(self, capsys):
        assert main(["lint", str(SRC), "--graph", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert "repro.core.messages.Promise" in document["messages"]
        assert document["sends"], "the real tree has send sites"
        assert document["handlers"], "the real tree has handlers"
        assert document["call_edges"], "the real tree has call edges"

    def test_graph_dot_export(self, capsys):
        assert main(["lint", str(SRC), "--graph", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph msgflow {")
        assert out.rstrip().endswith("}")
        assert "Promise" in out


class TestSelfScanDeterminism:
    def test_full_scan_byte_identical_across_hash_seeds(self):
        outputs = []
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "lint", str(SRC),
                 "--format", "json"],
                capture_output=True,
                env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        document = json.loads(outputs[0])
        assert document["summary"]["findings"] == 0

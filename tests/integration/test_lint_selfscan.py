"""The linter's acceptance test is the repo itself.

* the shipped ``src/`` tree is clean;
* every surviving rule is a net: the defect it exists for, seeded into a
  copy of the real ``src/repro`` sources, is reported with rule, file and
  line (the audit table in docs/static-analysis.md, as a test);
* two full self-scans are byte-identical across PYTHONHASHSEED values.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.engine import LintEngine

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


class TestSelfScan:
    def test_src_is_clean(self):
        result = LintEngine().check_paths([SRC])
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert result.files > 90  # the whole tree was actually scanned

    def test_cli_exits_zero_on_shipped_tree(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


GROUP = "repro/core/group.py"
OMEGA = "repro/election/omega.py"
STATS = "repro/util/stats.py"

TICK = "self.host.set_timer(self.heartbeat_interval, self._tick)"
PROBE = (
    "                self.broadcast(\n"
    "                    self.others, FrontierProbe(instance=self.applied, ballot=self.ballot)\n"
    "                )\n"
)


def barrier_fork(comment: str, reply: str) -> str:
    """The ``needs_barrier`` fork guarding one acknowledgement in group.py."""
    return (
        "        if self.store.needs_barrier:\n"
        f"{comment}"
        f"            self.store.flush(lambda: self.send(src, {reply}))\n"
        "        else:\n"
        f"            self.send(src, {reply})\n"
    )


PROMISE_FORK = barrier_fork(
    "            # The promise must be on stable storage before it is visible:\n"
    "            # a crash after sending but before syncing would let us later\n"
    "            # accept a lower ballot we promised away.\n",
    "reply",
)
ACCEPTED_FORK = barrier_fork(
    "            # The leader counts this ack toward its quorum: the accepted\n"
    "            # proposals must survive our crash before we send it.\n",
    "ack",
)

#: The audit's edits: id -> (rule, file the finding is in, text whose line
#: it names, words its report must contain, [(file, old, new), ...]).
SEEDED = {
    "jitter": (
        "DET001", OMEGA, "random.random()", ["random.random", "layer 'election'"],
        [
            (OMEGA, "from dataclasses", "import random\nfrom dataclasses"),
            (OMEGA, TICK, TICK.replace("val,", "val * (1 + random.random() / 100),")),
        ],
    ),
    "jitter-via-util": (
        "DET001", OMEGA, "jitter(",
        [
            "repro.election.omega.OmegaElector._tick (repro/election/omega.py:",
            "-> repro.util.stats.jitter (repro/util/stats.py:",
            "-> random.random (repro/util/stats.py:",
            "2 hop(s)",
        ],
        [
            (STATS, "from dataclasses", "import random\nfrom dataclasses"),
            (STATS, "@dataclass", "def jitter(x):\n    return x * (1 + random.random() / 100)\n\n\n@dataclass"),
            (OMEGA, "from repro.types", "from repro.util.stats import jitter\nfrom repro.types"),
            (OMEGA, TICK, TICK.replace("self.heartbeat_interval", "jitter(self.heartbeat_interval)")),
        ],
    ),
    "set-iteration": (
        "DET003", GROUP, "set(self.others)", ["hash-seed dependent"],
        [
            (
                GROUP, PROBE,
                "                for peer in set(self.others):\n"
                "                    self.send(peer, FrontierProbe(instance=self.applied, ballot=self.ballot))\n",
            ),
        ],
    ),
    "threading-import": (
        "PROTO001", GROUP, "import threading", ["imports threading"],
        [(GROUP, "import enum\n", "import enum\nimport threading\n")],
    ),
    "dead-handler": (
        "MSG102", GROUP, "def _on_ghost", ["_on_ghost dispatches Ghost"],
        [
            (
                "repro/core/messages.py", "@fast_pickle\n@dataclass(frozen=True, slots=True)\nclass Nack:",
                "@dataclass(frozen=True, slots=True)\nclass Ghost:\n    ballot: Ballot\n\n\n"
                "@fast_pickle\n@dataclass(frozen=True, slots=True)\nclass Nack:",
            ),
            (GROUP, "    Nack,\n", "    Ghost,\n    Nack,\n"),
            (GROUP, '        Nack: "_on_nack",\n', '        Nack: "_on_nack",\n        Ghost: "_on_ghost",\n'),
            (
                GROUP, "    def _on_nack(",
                "    def _on_ghost(self, src: ProcessId, msg: Ghost) -> None:\n"
                "        self.observe_round(msg.ballot.round)\n\n"
                "    def _on_nack(",
            ),
        ],
    ),
    "unbarriered-promise": (
        "PROTO101", GROUP, "        self.send(src, reply)\n",
        [
            "handler ReplicationGroup._on_prepare",
            "-> store.record_promise (repro/core/group.py:",
            "-> send Promise (repro/core/group.py:",
        ],
        [(GROUP, PROMISE_FORK, "        self.send(src, reply)\n")],
    ),
    "unbarriered-accepted": (
        "PROTO101", GROUP, "        self.send(src, ack)\n",
        [
            "handler ReplicationGroup._on_accept_batch",
            "-> store.accept (repro/core/group.py:",
            "-> send AcceptedBatch (repro/core/group.py:",
        ],
        [(GROUP, ACCEPTED_FORK, "        self.send(src, ack)\n")],
    ),
}


class TestSeededViolation:
    """Each surviving rule is the only thing between its defect and a green
    build (docs/static-analysis.md), so each is shown to fire on that defect
    in the real sources — alone, and with the words a reader needs."""

    @pytest.fixture(scope="class")
    def sources(self):
        root = SRC / "repro"
        return {
            f"repro/{file.relative_to(root).as_posix()}": file.read_text(encoding="utf-8")
            for file in sorted(root.rglob("*.py"))
        }

    def test_unedited_copy_is_clean(self, sources):
        assert LintEngine().check_sources(sources).ok

    @pytest.mark.parametrize("defect", SEEDED)
    def test_defect_reported(self, sources, defect):
        rule, path, anchor, words, edits = SEEDED[defect]
        tree = dict(sources)
        for rel, old, new in edits:
            assert tree[rel].count(old) == 1, (rel, old)
            tree[rel] = tree[rel].replace(old, new)
        line = tree[path][: tree[path].index(anchor)].count("\n") + 1

        result = LintEngine().check_sources(tree)
        assert [(f.rule, f.path, f.line) for f in result.findings] == [(rule, path, line)]
        report = "\n".join([result.findings[0].render(), *result.findings[0].render_witness()])
        for word in words:
            assert word in report, report


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

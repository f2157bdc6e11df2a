"""Per-rule tests for the rules that need the whole project: DET001 at
≥ 1 call-graph hops, MSG102, PROTO101 — positive and negative cases for
each, driven through the real engine over small ``{rel: source}``
projects, findings filtered by rule."""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import LintEngine, LintResult
from repro.lint.report import render_text

PING = """\
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Ping:
    seq: int
"""

MESSAGES = PING + """\


@dataclass(frozen=True, slots=True)
class Promise:
    ballot: int
"""

STORE = """\
class Store:
    def __init__(self) -> None:
        self.needs_barrier = True

    def record_promise(self, ballot: int) -> None:
        del ballot

    def flush(self, callback) -> None:
        callback()
"""


def scan(files: dict[str, str], rule: str) -> LintResult:
    """Every rule runs; the result keeps ``rule``'s findings."""
    result = LintEngine().check_sources(files)
    result.findings = [f for f in result.findings if f.rule == rule]
    return result


class TestDET101:
    """DET001 at ≥ 1 hops — what the id DET101 used to report."""

    LEAKY_HELPER = (
        "import time\n\n\n"
        "def stamp(x):\n"
        "    return _now(x)\n\n\n"
        "def _now(x):\n"
        "    return (x, time.time())\n"
    )

    def test_two_hop_taint_fires_with_full_witness(self):
        result = scan(
            {
                "repro/core/replica.py": (
                    "from repro.util.helper import stamp\n\n\n"
                    "def choose(x):\n"
                    "    return stamp(x)\n"
                ),
                "repro/util/helper.py": self.LEAKY_HELPER,
            },
            rule="DET001",
        )
        assert [f.rule for f in result.findings] == ["DET001"]
        finding = result.findings[0]
        assert finding.path == "repro/core/replica.py"
        assert finding.line == 5
        assert "time.time" in finding.message
        witness = "\n".join(finding.witness)
        assert "repro.core.replica.choose" in witness
        assert "repro.util.helper.stamp" in witness
        assert "repro.util.helper._now" in witness
        assert "time.time" in witness

    def test_witness_rendered_in_text_report(self):
        result = scan(
            {
                "repro/core/replica.py": (
                    "from repro.util.helper import stamp\n\n\n"
                    "def choose(x):\n"
                    "    return stamp(x)\n"
                ),
                "repro/util/helper.py": self.LEAKY_HELPER,
            },
            rule="DET001",
        )
        text = render_text(result)
        assert "witness:" in text
        assert "->" in text

    def test_clean_helper_chain_is_negative(self):
        result = scan(
            {
                "repro/core/replica.py": (
                    "from repro.util.helper import stamp\n\n\n"
                    "def choose(x):\n"
                    "    return stamp(x)\n"
                ),
                "repro/util/helper.py": "def stamp(x):\n    return (x, 0)\n",
            },
            rule="DET001",
        )
        assert result.ok

    def test_direct_ambient_left_to_det001(self):
        # A det-layer function calling time.time() directly is the same
        # rule at zero hops: reported once, at the call, not again at a
        # frontier.
        result = scan(
            {
                "repro/core/replica.py": (
                    "import time\n\n\n"
                    "def choose(x):\n"
                    "    return (x, time.time())\n\n\n"
                    "def decide(x):\n"
                    "    return choose(x)\n"
                ),
            },
            rule="DET001",
        )
        assert [(f.line, f.col) for f in result.findings] == [(5, 16)]
        assert result.findings[0].witness == (
            "repro.core.replica.choose (repro/core/replica.py:5)",
            "time.time (repro/core/replica.py:5)",
        )

    def test_nondet_layer_caller_is_negative(self):
        # The frontier only matters inside deterministic layers.
        result = scan(
            {
                "repro/parallel/runner.py": (
                    "from repro.util.helper import stamp\n\n\n"
                    "def drive(x):\n"
                    "    return stamp(x)\n"
                ),
                "repro/util/helper.py": self.LEAKY_HELPER,
            },
            rule="DET001",
        )
        assert result.ok

class TestMSG102:
    def test_orphan_send_fires(self):
        result = scan(
            {
                "repro/core/messages.py": PING,
                "repro/core/node.py": (
                    "from repro.core.messages import Ping\n\n\n"
                    "class Node:\n"
                    "    def send(self, dst, msg):\n"
                    "        del dst, msg\n\n"
                    "    def start(self):\n"
                    "        self.send(0, Ping(seq=1))\n"
                ),
            },
            rule="MSG102",
        )
        assert [f.rule for f in result.findings] == ["MSG102"]
        finding = result.findings[0]
        assert "Ping" in finding.message
        assert "no handler" in finding.message
        assert finding.line == 9

    def test_dead_handler_fires(self):
        result = scan(
            {
                "repro/core/messages.py": PING,
                "repro/core/node.py": (
                    "from repro.core.messages import Ping\n\n\n"
                    "class Node:\n"
                    "    def on_message(self, src, msg):\n"
                    "        if isinstance(msg, Ping):\n"
                    "            pass\n"
                ),
            },
            rule="MSG102",
        )
        assert [f.rule for f in result.findings] == ["MSG102"]
        assert "nothing in the project constructs" in result.findings[0].message

    def test_paired_send_and_handler_is_negative(self):
        result = scan(
            {
                "repro/core/messages.py": PING,
                "repro/core/node.py": (
                    "from repro.core.messages import Ping\n\n\n"
                    "class Node:\n"
                    "    def send(self, dst, msg):\n"
                    "        del dst, msg\n\n"
                    "    def start(self):\n"
                    "        self.send(0, Ping(seq=1))\n\n"
                    "    def on_message(self, src, msg):\n"
                    "        if isinstance(msg, Ping):\n"
                    "            pass\n"
                ),
            },
            rule="MSG102",
        )
        assert result.ok

    def test_payload_classes_not_flagged(self):
        # A message constructed and *nested inside* another send (payload
        # style, like PromiseEntry) is not an orphan send.
        result = scan(
            {
                "repro/core/messages.py": PING,
                "repro/core/node.py": (
                    "from repro.core.messages import Ping\n\n\n"
                    "def build():\n"
                    "    return Ping(seq=1)\n"
                ),
            },
            rule="MSG102",
        )
        assert result.ok

    def test_unconstructed_message_class_fires(self):
        # Neither sent nor handled: the class itself is the dead surface
        # (core.messages.Accept / Accepted until PR 22).
        result = scan(
            {
                "repro/core/messages.py": MESSAGES,
                "repro/core/node.py": (
                    "from repro.core.messages import Ping\n\n\n"
                    "def build():\n"
                    "    return Ping(seq=1)\n"
                ),
            },
            rule="MSG102",
        )
        assert [(f.path, f.line) for f in result.findings] == [
            ("repro/core/messages.py", 10)
        ]
        assert "Promise is constructed nowhere" in result.findings[0].message

    def test_dispatch_row_and_annotation_report_one_dead_handler(self):
        result = scan(
            {
                "repro/core/messages.py": PING,
                "repro/core/node.py": (
                    "from repro.core.messages import Ping\n\n\n"
                    "class Node:\n"
                    "    DISPATCH = {Ping: '_on_ping'}\n\n"
                    "    def _on_ping(self, src, msg: Ping):\n"
                    "        pass\n"
                ),
            },
            rule="MSG102",
        )
        assert [(f.path, f.line) for f in result.findings] == [
            ("repro/core/node.py", 7)
        ]


class TestPROTO101:
    def test_unbarriered_ack_fires_with_witness(self):
        result = scan(
            {
                "repro/core/messages.py": MESSAGES,
                "repro/core/store.py": STORE,
                "repro/core/node.py": (
                    "from repro.core.messages import Promise\n"
                    "from repro.core.store import Store\n\n\n"
                    "class Node:\n"
                    "    def __init__(self):\n"
                    "        self.store = Store()\n\n"
                    "    def send(self, dst, msg):\n"
                    "        del dst, msg\n\n"
                    "    def on_prepare(self, src, msg):\n"
                    "        self._promise(src)\n\n"
                    "    def _promise(self, src):\n"
                    "        self.store.record_promise(1)\n"
                    "        self.send(src, Promise(ballot=1))\n"
                ),
            },
            rule="PROTO101",
        )
        assert [f.rule for f in result.findings] == ["PROTO101"]
        finding = result.findings[0]
        assert finding.path == "repro/core/node.py"
        assert finding.line == 17  # the unbarriered ack-send site
        assert "Promise" in finding.message
        assert "record_promise" in finding.message
        witness = "\n".join(finding.witness)
        assert "on_prepare" in witness
        assert "store.record_promise" in witness
        assert "send Promise" in witness

    def test_ack_sent_by_the_writers_caller_fires(self):
        # The shape of ReplicationGroup._on_prepare with its flush fork
        # removed: the write is in a callee, the ack in the handler itself.
        result = scan(
            {
                "repro/core/messages.py": MESSAGES,
                "repro/core/store.py": STORE,
                "repro/core/node.py": (
                    "from repro.core.messages import Promise\n"
                    "from repro.core.store import Store\n\n\n"
                    "class Node:\n"
                    "    def __init__(self):\n"
                    "        self.store = Store()\n\n"
                    "    def send(self, dst, msg):\n"
                    "        del dst, msg\n\n"
                    "    def on_prepare(self, src, msg):\n"
                    "        self._set_promised(1)\n"
                    "        self.send(src, Promise(ballot=1))\n\n"
                    "    def _set_promised(self, ballot):\n"
                    "        self.store.record_promise(ballot)\n"
                ),
            },
            rule="PROTO101",
        )
        assert [(f.path, f.line) for f in result.findings] == [
            ("repro/core/node.py", 14)
        ]
        assert result.findings[0].witness == (
            "repro.core.node.Node.on_prepare (repro/core/node.py:13)",
            "repro.core.node.Node._set_promised (repro/core/node.py:16)",
            "store.record_promise (repro/core/node.py:17)",
            "send Promise (repro/core/node.py:14)",
        )

    def test_two_handlers_on_one_ack_site_report_once(self):
        result = scan(
            {
                "repro/core/messages.py": MESSAGES,
                "repro/core/store.py": STORE,
                "repro/core/node.py": (
                    "from repro.core.messages import Promise\n"
                    "from repro.core.store import Store\n\n\n"
                    "class Node:\n"
                    "    def __init__(self):\n"
                    "        self.store = Store()\n\n"
                    "    def send(self, dst, msg):\n"
                    "        del dst, msg\n\n"
                    "    def on_message(self, src, msg):\n"
                    "        self._on_prepare(src, msg)\n\n"
                    "    def _on_prepare(self, src, msg):\n"
                    "        self.store.record_promise(1)\n"
                    "        self.send(src, Promise(ballot=1))\n"
                ),
            },
            rule="PROTO101",
        )
        assert [f.line for f in result.findings] == [17]
        assert "handler Node._on_prepare" in result.findings[0].message

    def test_barriered_ack_is_negative(self):
        result = scan(
            {
                "repro/core/messages.py": MESSAGES,
                "repro/core/store.py": STORE,
                "repro/core/node.py": (
                    "from repro.core.messages import Promise\n"
                    "from repro.core.store import Store\n\n\n"
                    "class Node:\n"
                    "    def __init__(self):\n"
                    "        self.store = Store()\n\n"
                    "    def send(self, dst, msg):\n"
                    "        del dst, msg\n\n"
                    "    def on_prepare(self, src, msg):\n"
                    "        self._promise(src)\n\n"
                    "    def _promise(self, src):\n"
                    "        self.store.record_promise(1)\n"
                    "        reply = Promise(ballot=1)\n"
                    "        if self.store.needs_barrier:\n"
                    "            self.store.flush(lambda: self.send(src, reply))\n"
                    "        else:\n"
                    "            self.send(src, reply)\n"
                ),
            },
            rule="PROTO101",
        )
        assert result.ok

    def test_write_unreachable_from_handlers_is_negative(self):
        result = scan(
            {
                "repro/core/messages.py": MESSAGES,
                "repro/core/store.py": STORE,
                "repro/core/node.py": (
                    "from repro.core.messages import Promise\n"
                    "from repro.core.store import Store\n\n\n"
                    "class Node:\n"
                    "    def __init__(self):\n"
                    "        self.store = Store()\n\n"
                    "    def send(self, dst, msg):\n"
                    "        del dst, msg\n\n"
                    "    def bootstrap(self, src):\n"
                    "        self.store.record_promise(1)\n"
                    "        self.send(src, Promise(ballot=1))\n"
                ),
            },
            rule="PROTO101",
        )
        assert result.ok

    def test_non_ack_send_is_negative(self):
        result = scan(
            {
                "repro/core/messages.py": MESSAGES,
                "repro/core/store.py": STORE,
                "repro/core/node.py": (
                    "from repro.core.messages import Ping\n"
                    "from repro.core.store import Store\n\n\n"
                    "class Node:\n"
                    "    def __init__(self):\n"
                    "        self.store = Store()\n\n"
                    "    def send(self, dst, msg):\n"
                    "        del dst, msg\n\n"
                    "    def on_prepare(self, src, msg):\n"
                    "        self.store.record_promise(1)\n"
                    "        self.send(src, Ping(seq=1))\n"
                ),
            },
            rule="PROTO101",
        )
        assert result.ok

class TestGoldenSnapshots:
    """The fixture package under tests/fixtures/lintpkg pins the analyzer's
    call-graph and message-flow exports byte-for-byte.  If these fail after
    an intentional analyzer change, regenerate the goldens with the scan
    below and review the diff."""

    FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

    def _project(self):
        engine = LintEngine()
        result = engine.check_paths([self.FIXTURES / "lintpkg"])
        assert result.ok, "\n".join(f.render() for f in result.findings)
        assert engine.project is not None
        return engine.project

    def test_call_graph_matches_golden(self):
        import json

        project = self._project()
        got = {
            "version": 1,
            "edges": {
                caller: [[callee, line] for callee, line in callees]
                for caller, callees in sorted(project.graph.edges.items())
            },
        }
        golden = json.loads(
            (self.FIXTURES / "lintpkg-callgraph.golden.json").read_text(
                encoding="utf-8"
            )
        )
        assert got == golden

    def test_message_flow_matches_golden(self):
        import json

        from repro.lint.graph.msgflow import message_flow

        project = self._project()
        golden = json.loads(
            (self.FIXTURES / "lintpkg-msgflow.golden.json").read_text(
                encoding="utf-8"
            )
        )
        assert message_flow(project) == golden


class TestProjectRuleCatalogue:
    def test_project_rules_document_themselves(self):
        from repro.lint.graph import all_project_rules

        rules = all_project_rules()
        assert [rule.rule_id for rule in rules] == [
            "DET001",
            "DET003",
            "MSG102",
            "PROTO001",
            "PROTO101",
        ]
        for rule in rules:
            assert rule.summary
            assert rule.rationale

"""Unit tests for the analysis layer: facts, index, call graph."""

from __future__ import annotations

import pytest

from repro.lint.context import FileContext
from repro.lint.graph.callgraph import CallGraph
from repro.lint.graph.facts import extract_facts, module_of
from repro.lint.graph.index import ProjectIndex


def parse(source: str, rel: str) -> FileContext:
    return FileContext.parse(source, rel)


def build_index(files: dict[str, str]) -> ProjectIndex:
    contexts = {rel: parse(source, rel) for rel, source in files.items()}
    return ProjectIndex.build(contexts)


NODE = """\
from repro.core.messages import Ping, Pong
from repro.core.store import Store


class Node:
    def __init__(self) -> None:
        self.store = Store()

    def send(self, dst: int, msg: object) -> None:
        del dst, msg

    def on_message(self, src: int, msg: object) -> None:
        if isinstance(msg, Ping):
            self._on_ping(src, msg)
        elif isinstance(msg, Pong):
            self._on_pong(src, msg)

    def _on_ping(self, src: int, msg: Ping) -> None:
        self.store.accept(msg.seq)
        if self.store.needs_barrier:
            self.store.flush(lambda: self.send(src, Pong(seq=msg.seq)))
        else:
            self.send(src, Pong(seq=msg.seq))

    def _on_pong(self, src: int, msg: Pong) -> None:
        del src
        self.helper(msg.seq)

    def helper(self, seq: int) -> int:
        return seq * 2

    def start(self) -> None:
        self.send(0, Ping(seq=1))
"""

MESSAGES = """\
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Ping:
    seq: int


@dataclass(frozen=True, slots=True)
class Pong:
    seq: int
"""

STORE = """\
class Store:
    def __init__(self) -> None:
        self.rows: list[int] = []
        self.needs_barrier = True

    def accept(self, seq: int) -> None:
        self.rows.append(seq)

    def flush(self, callback) -> None:
        callback()
"""

FIXTURE = {
    "repro/core/messages.py": MESSAGES,
    "repro/core/node.py": NODE,
    "repro/core/store.py": STORE,
}


class TestFacts:
    def test_module_of(self):
        assert module_of("repro/core/replica.py") == "repro.core.replica"
        assert module_of("repro/core/__init__.py") == "repro.core"
        assert module_of("mod.py") == "mod"

    def test_handler_and_dispatch_extraction(self):
        facts = extract_facts(parse(NODE, "repro/core/node.py"))
        on_message = facts.functions["Node.on_message"]
        assert on_message.handler
        assert on_message.handled == (
            "repro.core.messages.Ping",
            "repro.core.messages.Pong",
        )
        assert not facts.functions["Node.helper"].handler

    def test_sends_and_flush_callback_attribution(self):
        facts = extract_facts(parse(NODE, "repro/core/node.py"))
        on_ping = facts.functions["Node._on_ping"]
        # Both the flush-callback send and the else-branch send belong to
        # _on_ping, and both resolve the Pong constructor.
        assert [send.msg for send in on_ping.sends] == [
            "repro.core.messages.Pong",
            "repro.core.messages.Pong",
        ]
        assert on_ping.barrier
        assert on_ping.stable_calls == (("accept", 19),)

    def test_param_annotations_resolved(self):
        facts = extract_facts(parse(NODE, "repro/core/node.py"))
        on_pong = facts.functions["Node._on_pong"]
        assert on_pong.params == (("src", "int"), ("msg", "repro.core.messages.Pong"))

    def test_ambient_detection(self):
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        facts = extract_facts(parse(source, "repro/util/clock.py"))
        assert facts.functions["now"].ambient == (("time.time", 5, 12),)
        assert "<module>" not in facts.functions  # nothing ambient at import time

    def test_module_and_class_bodies_are_the_module_function(self):
        source = (
            "import os, random\n\n"
            "HOME = os.getenv('HOME')\n\n\n"
            "class Link:\n"
            "    rng = random.Random()\n\n"
            "    def seeded(self):\n"
            "        return random.Random(7)\n"
        )
        facts = extract_facts(parse(source, "repro/net/link.py"))
        assert facts.functions["<module>"].ambient == (
            ("os.getenv", 3, 8),
            ("random.Random", 7, 11),
        )
        assert facts.functions["Link.seeded"].ambient == ()

    def test_local_names_qualified_with_module(self):
        source = (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass(frozen=True, slots=True)\n"
            "class Local:\n"
            "    x: int\n\n\n"
            "def make():\n"
            "    return Local(x=1)\n"
        )
        facts = extract_facts(parse(source, "repro/core/mod.py"))
        targets = [c.target for c in facts.functions["make"].calls]
        assert "repro.core.mod.Local" in targets

    def test_message_classification(self):
        facts = extract_facts(parse(MESSAGES, "repro/core/messages.py"))
        assert facts.classes["Ping"].is_message
        assert facts.classes["Ping"].frozen
        assert facts.classes["Ping"].fields == ("seq",)


class TestProjectIndex:
    def test_function_lookup_module_and_method(self):
        index = build_index(FIXTURE)
        assert index.function("repro.core.node.Node._on_ping") is not None
        assert index.function("repro.core.node.Node.missing") is None
        facts, fn = index.function("repro.core.node.Node.helper")
        assert facts.rel == "repro/core/node.py"
        assert fn.name == "helper"

    def test_resolve_symbol_chases_reexports(self):
        files = dict(FIXTURE)
        files["repro/core/__init__.py"] = "from repro.core.messages import Ping\n"
        files["repro/api.py"] = "from repro.core import Ping\n"
        index = build_index(files)
        assert index.resolve_symbol("repro.api.Ping") == "repro.core.messages.Ping"

    def test_find_method_walks_bases(self):
        files = dict(FIXTURE)
        files["repro/core/subnode.py"] = (
            "from repro.core.node import Node\n\n\n"
            "class SubNode(Node):\n"
            "    def extra(self) -> None:\n"
            "        pass\n"
        )
        index = build_index(files)
        assert (
            index.find_method("repro.core.subnode.SubNode", "helper")
            == "repro.core.node.Node.helper"
        )

    def test_attr_type_wiring(self):
        index = build_index(FIXTURE)
        assert (
            index.attr_type("repro.core.node.Node", "store")
            == "repro.core.store.Store"
        )

    def test_message_classes_enumeration(self):
        index = build_index(FIXTURE)
        assert sorted(index.message_classes()) == [
            "repro.core.messages.Ping",
            "repro.core.messages.Pong",
        ]


class TestCallGraph:
    @pytest.fixture
    def graph(self):
        return CallGraph.build(build_index(FIXTURE))

    def test_self_method_edges(self, graph):
        callees = [c for c, _ in graph.callees("repro.core.node.Node.on_message")]
        assert "repro.core.node.Node._on_ping" in callees
        assert "repro.core.node.Node._on_pong" in callees

    def test_attr_method_edges(self, graph):
        callees = [c for c, _ in graph.callees("repro.core.node.Node._on_ping")]
        assert "repro.core.store.Store.accept" in callees
        assert "repro.core.store.Store.flush" in callees

    def test_constructor_edges(self, graph):
        callees = [c for c, _ in graph.callees("repro.core.node.Node.__init__")]
        assert "repro.core.store.Store.__init__" in callees

    def test_reverse_edges(self, graph):
        callers = graph.callers("repro.core.node.Node.helper")
        assert callers == ("repro.core.node.Node._on_pong",)

    def test_shortest_path_and_rendering(self, graph):
        path = graph.shortest_path(
            "repro.core.node.Node.on_message",
            {"repro.core.node.Node.helper"},
        )
        assert [node for node, _ in path] == [
            "repro.core.node.Node.on_message",
            "repro.core.node.Node._on_pong",
            "repro.core.node.Node.helper",
        ]
        rendered = graph.render_path(path)
        assert rendered[0].startswith("repro.core.node.Node.on_message (repro/core/node.py:")
        assert rendered[-1].endswith(")")

    def test_reachability_respects_blocked_nodes(self, graph):
        blocked = frozenset({"repro.core.node.Node._on_pong"})
        reach = graph.reachable_from(
            ["repro.core.node.Node.on_message"], blocked=blocked
        )
        assert "repro.core.node.Node.helper" not in reach
        assert "repro.core.node.Node._on_ping" in reach

"""Per-rule unit tests: positive, negative and suppression fixtures.

Each fixture is a small source snippet checked through the real engine
(`LintEngine.check_source`), so suppression handling, layer
classification and import resolution are exercised exactly as they are
on the real tree.
"""

from __future__ import annotations

import pytest

from repro.lint import LintEngine

CORE = "repro/core/mod.py"
NET = "repro/net/mod.py"
OBS = "repro/obs/mod.py"
ANALYSIS = "repro/analysis/mod.py"


def lint(source: str, rel: str = CORE, select: list[str] | None = None):
    engine = LintEngine(select=select)
    return engine.check_source(source, rel)


def rule_ids(source: str, rel: str = CORE, select: list[str] | None = None):
    return [finding.rule for finding in lint(source, rel, select)]


# ------------------------------------------------------------------ DET001
class TestAmbientNondeterminism:
    def test_time_time_in_core_flagged(self):
        findings = lint("import time\n\nnow = time.time()\n")
        assert [f.rule for f in findings] == ["DET001"]
        assert findings[0].line == 3
        assert "time.time" in findings[0].message

    def test_random_module_function_flagged(self):
        assert rule_ids("import random\nx = random.randint(0, 5)\n") == ["DET001"]

    def test_from_import_alias_resolved(self):
        src = "from random import randint as ri\nx = ri(0, 5)\n"
        assert rule_ids(src) == ["DET001"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nts = datetime.now()\n"
        assert rule_ids(src) == ["DET001"]

    @pytest.mark.parametrize("call", ["uuid.uuid4()", "os.urandom(8)"])
    def test_entropy_sources_flagged(self, call):
        assert rule_ids(f"import uuid, os\nx = {call}\n") == ["DET001"]

    def test_seeded_random_instance_allowed(self):
        src = "import random\nrng = random.Random('seed/1')\nx = rng.random()\n"
        assert rule_ids(src) == []

    def test_outside_deterministic_layers_allowed(self):
        src = "import time\nnow = time.time()\n"
        assert rule_ids(src, rel="repro/transport/mod.py") == []
        assert rule_ids(src, rel="repro/cli.py") == []

    @pytest.mark.parametrize(
        "layer", ["sim", "core", "net", "chaos", "election", "cluster"]
    )
    def test_applies_in_every_deterministic_layer(self, layer):
        src = "import time\nnow = time.time()\n"
        assert rule_ids(src, rel=f"repro/{layer}/mod.py") == ["DET001"]


# ------------------------------------------------------------------ DET002
class TestUnseededRng:
    def test_unseeded_flagged_everywhere(self):
        src = "import random\nrng = random.Random()\n"
        assert rule_ids(src, rel=ANALYSIS) == ["DET002"]

    def test_seeded_allowed(self):
        src = "import random\nrng = random.Random(42)\n"
        assert rule_ids(src, rel=ANALYSIS) == []

    def test_world_boundary_exempt(self):
        src = "import random\nrng = random.Random()\n"
        assert rule_ids(src, rel="repro/sim/world.py") == []


# ------------------------------------------------------------------ DET003
class TestHashOrderIteration:
    def test_for_over_set_call_flagged(self):
        assert rule_ids("for x in set(items):\n    emit(x)\n") == ["DET003"]

    def test_set_union_flagged(self):
        src = "for x in set(a) | set(b):\n    emit(x)\n"
        assert rule_ids(src) == ["DET003"]

    def test_attribute_union_with_set_literal_flagged(self):
        src = "for o in lock.readers | ({lock.writer} if lock.writer else set()):\n    pass\n"
        assert rule_ids(src) == ["DET003"]

    def test_comprehension_over_set_flagged(self):
        assert rule_ids("ys = [f(x) for x in {1, 2, 3}]\n") == ["DET003"]

    def test_sorted_wrapper_allowed(self):
        assert rule_ids("for x in sorted(set(items)):\n    emit(x)\n") == []

    def test_plain_list_iteration_allowed(self):
        assert rule_ids("for x in [1, 2]:\n    emit(x)\n") == []


# ------------------------------------------------------------------ DET004
class TestUnsortedJson:
    def test_dumps_without_sort_keys_flagged(self):
        src = "import json\nout = json.dumps({'a': 1})\n"
        assert rule_ids(src, rel=OBS) == ["DET004"]

    def test_dump_sort_keys_false_flagged(self):
        src = "import json\njson.dump(d, fh, sort_keys=False)\n"
        assert rule_ids(src, rel=OBS) == ["DET004"]

    def test_sort_keys_true_allowed(self):
        src = "import json\nout = json.dumps({'a': 1}, sort_keys=True)\n"
        assert rule_ids(src, rel=OBS) == []

    def test_forwarded_kwargs_not_flagged(self):
        src = "import json\nout = json.dumps(d, **kwargs)\n"
        assert rule_ids(src, rel=OBS) == []


# ------------------------------------------------------------------ MSG001
class TestMutableMessageDataclass:
    FROZEN = (
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class Accept:\n"
        '    """Leader -> replicas: accept this value."""\n'
        "    value: int\n"
    )

    def test_frozen_slots_allowed(self):
        assert rule_ids(self.FROZEN, rel="repro/core/messages.py") == []

    def test_bare_dataclass_in_messages_module_flagged(self):
        src = "from dataclasses import dataclass\n\n@dataclass\nclass M:\n    x: int\n"
        findings = lint(src, rel="repro/core/messages.py")
        assert [f.rule for f in findings] == ["MSG001"]
        assert "frozen=True" in findings[0].message
        assert "slots=True" in findings[0].message

    def test_missing_slots_flagged(self):
        src = (
            "from dataclasses import dataclass\n\n"
            "@dataclass(frozen=True)\nclass M:\n    x: int\n"
        )
        findings = lint(src, rel="repro/core/messages.py")
        assert [f.rule for f in findings] == ["MSG001"]
        assert "slots=True" in findings[0].message
        assert "frozen=True" not in findings[0].message

    def test_direction_docstring_marks_message_outside_messages_py(self):
        src = (
            "from dataclasses import dataclass\n\n"
            "@dataclass(slots=True)\n"
            "class P1a:\n"
            '    """Prepare: leader -> acceptors."""\n'
            "    ballot: int\n"
        )
        assert rule_ids(src, rel=CORE) == ["MSG001"]

    def test_mutable_state_dataclass_allowed(self):
        src = (
            "from dataclasses import dataclass\n\n"
            "@dataclass(slots=True)\n"
            "class ExecutedTable:\n"
            '    """At-most-once table of executed requests."""\n'
            "    entries: dict\n"
        )
        assert rule_ids(src, rel=CORE) == []

    def test_outside_core_net_not_checked(self):
        src = "from dataclasses import dataclass\n\n@dataclass\nclass M:\n    x: int\n"
        assert rule_ids(src, rel="repro/obs/messages.py") == []


# ------------------------------------------------------------------ MSG002
class TestHandlerMutatesMessage:
    def test_assignment_to_message_param_flagged(self):
        src = (
            "class Replica:\n"
            "    def _on_accept(self, src, msg):\n"
            "        msg.ballot = 7\n"
        )
        findings = lint(src)
        assert [f.rule for f in findings] == ["MSG002"]
        assert "'msg'" in findings[0].message

    def test_nested_attribute_assignment_flagged(self):
        src = (
            "def handle_request(ctx, request):\n"
            "    request.header.seen = True\n"
        )
        assert rule_ids(src) == ["MSG002"]

    def test_augmented_assignment_flagged(self):
        src = "def on_reply(self, src, msg):\n    msg.count += 1\n"
        assert rule_ids(src) == ["MSG002"]

    def test_self_attribute_assignment_allowed(self):
        src = (
            "class Replica:\n"
            "    def _on_accept(self, src, msg):\n"
            "        self.last = msg.ballot\n"
        )
        assert rule_ids(src) == []

    def test_local_variable_attribute_allowed(self):
        src = (
            "def on_commit(self, src, msg):\n"
            "    entry = make_entry()\n"
            "    entry.value = msg.value\n"
        )
        assert rule_ids(src) == []

    def test_non_handler_not_checked(self):
        src = "def rebuild(self, snapshot):\n    snapshot.count = 1\n"
        assert rule_ids(src) == []


# ---------------------------------------------------------------- PROTO001
class TestCoreLayering:
    def test_transport_import_flagged(self):
        src = "from repro.transport.codec import encode_frame\n"
        assert rule_ids(src) == ["PROTO001"]

    def test_socket_import_flagged(self):
        assert rule_ids("import socket\n") == ["PROTO001"]

    def test_relative_layering_unaffected(self):
        src = "from repro.core.messages import Accept\n"
        assert rule_ids(src) == []

    def test_print_flagged_in_core(self):
        assert rule_ids("print('debug')\n") == ["PROTO001"]

    def test_open_flagged_in_election(self):
        src = "fh = open('/tmp/x')\n"
        assert rule_ids(src, rel="repro/election/mod.py") == ["PROTO001"]

    def test_transport_layer_itself_allowed(self):
        src = "import socket\nprint('server up')\n"
        assert rule_ids(src, rel="repro/transport/tcp.py") == []


# ---------------------------------------------------------------- PROTO002
class TestStableStoreBypass:
    def test_store_aliasing_flagged(self):
        src = "replica.store = other.store\n"
        assert rule_ids(src) == ["PROTO002"]

    def test_store_construction_allowed(self):
        src = (
            "from repro.storage.store import StableStore\n"
            "self.store = StableStore(self)\n"
        )
        assert rule_ids(src) == []

    def test_reads_allowed(self):
        src = "log = self.store.log\nsame = replica.store is other.store\n"
        assert rule_ids(src) == []

    def test_store_api_calls_allowed(self):
        src = "self.store.accept(pn, value)\nself.store.flush(cb)\n"
        assert rule_ids(src) == []

    def test_cluster_layer_checked(self):
        src = "replica.store = other.store\n"
        assert rule_ids(src, rel="repro/cluster/mod.py") == ["PROTO002"]

    def test_suppression_honored(self):
        src = (
            "replica.store = other.store  "
            "# lint: ignore[PROTO002] -- legacy fixture\n"
        )
        assert rule_ids(src) == []


# ------------------------------------------------------------------ OBS001
class TestMetricNameConvention:
    def test_literal_name_allowed(self):
        src = "self.metrics.counter('net.drop.partition').inc()\n"
        assert rule_ids(src, rel=NET) == []

    def test_fstring_with_literal_head_allowed(self):
        src = "metrics.counter(f'msg.send.{type_name}').inc()\n"
        assert rule_ids(src, rel=NET) == []

    def test_variable_name_flagged(self):
        src = "metrics.counter(name).inc()\n"
        assert rule_ids(src, rel=NET) == ["OBS001"]

    def test_fstring_without_literal_head_flagged(self):
        src = "metrics.counter(f'{prefix}.sends').inc()\n"
        assert rule_ids(src, rel=NET) == ["OBS001"]

    def test_uppercase_literal_flagged(self):
        src = "metrics.counter('Net.Drops').inc()\n"
        assert rule_ids(src, rel=NET) == ["OBS001"]

    def test_registry_module_exempt(self):
        src = "self._registry.counter(f'{self._prefix}.{name}')\n"
        assert rule_ids(src, rel="repro/obs/registry.py") == []


# ------------------------------------------------------------------ OBS002
class TestProfilerScopeConvention:
    def test_balanced_literal_scope_allowed(self):
        src = (
            "def f(self):\n"
            "    self.profiler.enter('execute')\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        self.profiler.exit()\n"
        )
        assert rule_ids(src) == []

    def test_computed_label_flagged(self):
        src = (
            "def f(self, label):\n"
            "    self.profiler.enter(label)\n"
            "    self.profiler.exit()\n"
        )
        assert rule_ids(src) == ["OBS002"]

    def test_fstring_label_flagged(self):
        src = (
            "def f(prof, kind):\n"
            "    prof.enter(f'execute.{kind}')\n"
            "    prof.exit()\n"
        )
        assert rule_ids(src) == ["OBS002"]

    def test_uppercase_label_flagged(self):
        src = "def f(prof):\n    prof.enter('Execute')\n    prof.exit()\n"
        assert rule_ids(src) == ["OBS002"]

    def test_unbalanced_enter_flagged(self):
        src = "def f(profiler):\n    profiler.enter('apply')\n    work()\n"
        assert rule_ids(src) == ["OBS002"]

    def test_unbalanced_exit_flagged(self):
        src = "def f(profiler):\n    profiler.exit()\n"
        assert rule_ids(src) == ["OBS002"]

    def test_balance_is_per_function_scope(self):
        # An enter in one function cannot be closed by an exit in another.
        src = (
            "def opens(prof):\n"
            "    prof.enter('propose')\n"
            "\n"
            "def closes(prof):\n"
            "    prof.exit()\n"
        )
        assert rule_ids(src) == ["OBS002", "OBS002"]

    def test_nested_function_scopes_independent(self):
        src = (
            "def outer(prof):\n"
            "    prof.enter('txn')\n"
            "    def inner():\n"
            "        prof.enter('read')\n"
            "        prof.exit()\n"
            "    try:\n"
            "        inner()\n"
            "    finally:\n"
            "        prof.exit()\n"
        )
        assert rule_ids(src) == []

    def test_event_aliases_not_matched(self):
        # The kernel's dynamic-label event frames use the enter_event /
        # exit_event aliases on purpose; OBS002 keys only on .enter/.exit.
        src = (
            "def loop(profiler, fn):\n"
            "    profiler.enter_event(fn.__qualname__)\n"
            "    fn()\n"
            "    profiler.exit_event()\n"
        )
        assert rule_ids(src) == []

    def test_non_profiler_receiver_not_matched(self):
        src = "def f(ctx):\n    ctx.enter(compute_name())\n"
        assert rule_ids(src) == []

    def test_profiler_module_itself_exempt(self):
        src = (
            "def enter(self, label):\n"
            "    self._stack.append(label)\n"
            "\n"
            "def f(profiler, label):\n"
            "    profiler.enter(label)\n"
        )
        assert rule_ids(src, rel="repro/obs/prof/profiler.py") == []


# ------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_reasoned_suppression_silences_finding(self):
        src = (
            "import time\n"
            "now = time.time()  # lint: ignore[DET001] -- wall clock is display-only here\n"
        )
        assert rule_ids(src) == []

    def test_suppression_without_reason_is_its_own_finding(self):
        src = "import time\nnow = time.time()  # lint: ignore[DET001]\n"
        ids = rule_ids(src)
        assert ids == ["LINT001"]

    def test_unknown_rule_in_suppression_flagged(self):
        src = "x = 1  # lint: ignore[NOPE999] -- because\n"
        assert rule_ids(src) == ["LINT001"]

    def test_unused_suppression_flagged(self):
        src = "x = 1  # lint: ignore[DET001] -- leftover\n"
        assert rule_ids(src) == ["LINT002"]

    def test_wrong_rule_does_not_suppress(self):
        src = (
            "import time\n"
            "now = time.time()  # lint: ignore[DET004] -- wrong rule\n"
        )
        ids = rule_ids(src)
        assert "DET001" in ids  # the finding survives

    def test_wildcard_suppression(self):
        src = (
            "import time\n"
            "now = time.time()  # lint: ignore[*] -- fixture exercising everything\n"
        )
        assert rule_ids(src) == []

    def test_docstring_mentioning_syntax_is_not_a_suppression(self):
        src = '"""Docs: write # lint: ignore[DET001] to suppress."""\nx = 1\n'
        assert rule_ids(src) == []


# ------------------------------------------------------------------ LINT000
class TestParseErrors:
    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert [f.rule for f in findings] == ["LINT000"]
        assert "syntax error" in findings[0].message

"""Per-rule unit tests for the rules that read one file at a time.

Each fixture is a small source snippet placed at a path inside a project
(``{rel: source}``) and checked through the real engine
(`LintEngine.check_sources`), so layer classification and import
resolution are exercised exactly as they are on the real tree. Every
rule runs on every snippet; the tests compare the complete list of ids.
"""

from __future__ import annotations

import pytest

from repro.lint.engine import LintEngine

CORE = "repro/core/mod.py"


def lint(source: str, rel: str = CORE, extra: dict[str, str] | None = None):
    return LintEngine().check_sources({rel: source, **(extra or {})}).findings


def rule_ids(source: str, rel: str = CORE, extra: dict[str, str] | None = None):
    return [finding.rule for finding in lint(source, rel, extra)]


# ------------------------------------------------------------------ DET001
class TestAmbientNondeterminism:
    def test_time_time_in_core_flagged(self):
        findings = lint("import time\n\nnow = time.time()\n")
        assert [f.rule for f in findings] == ["DET001"]
        assert (findings[0].line, findings[0].col) == (3, 7)
        assert "time.time" in findings[0].message
        # Import-time code is the function ``<module>``; zero hops.
        assert findings[0].witness == (
            "repro.core.mod.<module> (repro/core/mod.py:3)",
            "time.time (repro/core/mod.py:3)",
        )

    def test_call_inside_a_function_and_a_class_body_flagged(self):
        src = (
            "import time\n\n\n"
            "class Replica:\n"
            "    BORN = time.time()\n\n"
            "    def now(self):\n"
            "        return time.monotonic()\n"
        )
        assert [(f.rule, f.line) for f in lint(src)] == [("DET001", 5), ("DET001", 8)]

    def test_env_read_flagged(self):
        assert rule_ids("import os\nhome = os.getenv('HOME')\n") == ["DET001"]

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
        "layer", ["sim", "core", "net", "chaos", "election", "cluster", "storage"]
    )
    def test_applies_in_every_deterministic_layer(self, layer):
        src = "import time\nnow = time.time()\n"
        assert rule_ids(src, rel=f"repro/{layer}/mod.py") == ["DET001"]


# ------------------------------------------- DET001: unseeded random.Random()
class TestUnseededRng:
    UNSEEDED = "import random\n\n\ndef stream():\n    return random.Random()\n"

    def test_unseeded_flagged_everywhere(self):
        """Everywhere a deterministic layer can reach: in the layer itself
        (zero hops) and behind a helper outside it."""
        assert rule_ids(self.UNSEEDED, rel="repro/net/mod.py") == ["DET001"]
        caller = "from repro.analysis.mod import stream\n\n\ndef link():\n    return stream()\n"
        findings = lint(caller, extra={"repro/analysis/mod.py": self.UNSEEDED})
        assert [(f.rule, f.path, f.line) for f in findings] == [("DET001", CORE, 5)]
        assert findings[0].witness[-1] == "random.Random (repro/analysis/mod.py:5)"
        # Nothing deterministic reaches it: not this rule's business.
        assert rule_ids(self.UNSEEDED, rel="repro/analysis/mod.py") == []

    def test_seeded_allowed(self):
        src = "import random\nrng = random.Random(42)\nalso = random.Random(x='s')\n"
        assert rule_ids(src) == []

    def test_world_boundary_exempt(self):
        src = "import random\nrng = random.Random()\n"
        assert rule_ids(src, rel="repro/sim/world.py") == []
        assert rule_ids(src, rel="repro/sim/kernel.py") == []
        assert rule_ids(src, rel="repro/sim/cpu.py") == ["DET001"]


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


# ---------------------------------------------------------------- PROTO001
class TestCoreLayering:
    def test_transport_import_flagged(self):
        src = "from repro.transport.codec import encode_frame\n"
        assert rule_ids(src) == ["PROTO001"]

    def test_socket_import_flagged(self):
        assert rule_ids("import socket\n") == ["PROTO001"]

    def test_relative_layering_unaffected(self):
        src = "from repro.core.messages import AcceptBatch\n"
        assert rule_ids(src) == []

    def test_print_flagged_in_core(self):
        assert rule_ids("print('debug')\n") == ["PROTO001"]

    def test_open_flagged_in_election(self):
        src = "fh = open('/tmp/x')\n"
        assert rule_ids(src, rel="repro/election/mod.py") == ["PROTO001"]

    def test_transport_layer_itself_allowed(self):
        src = "import socket\nprint('server up')\n"
        assert rule_ids(src, rel="repro/transport/tcp.py") == []


# ------------------------------------------------------------------ LINT000
class TestParseErrors:
    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert [f.rule for f in findings] == ["LINT000"]
        assert "syntax error" in findings[0].message

"""``repro lint`` — AST-based determinism and protocol-invariant analysis.

Every guarantee this reproduction makes (byte-identical artifacts,
replayable schedules, the §3.2 "durable before acknowledged" contract)
rests on house rules the runtime cannot check and no test sees broken:
RNGs and clocks must be injected, sets must be sorted before they reach a
send, the protocol core must stay transport-free, acknowledgements must
wait for their barrier. This package enforces those rules statically, at
review time. A rule lives here only while it is some defect's *only* net
(``docs/static-analysis.md`` holds the audit).

Architecture — one analysis phase:

* :mod:`repro.lint.context` — one parsed file: AST, import/alias
  resolution (absolute and relative), layer classification;
* :mod:`repro.lint.graph` — per-file facts, the linked project index, the
  call graph, and the rules, each a query over that project with
  witness-path reporting;
* :mod:`repro.lint.engine` — walks trees, parses, builds the project,
  runs the rules, sorts the findings;
* :mod:`repro.lint.report` — text and byte-deterministic JSON reporters;
* :mod:`repro.lint.cli` — the ``repro lint`` subcommand.
"""

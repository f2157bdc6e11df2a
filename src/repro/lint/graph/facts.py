"""Per-file fact extraction: the first step of the analysis.

It walks each file's AST exactly once and distills it into
:class:`FileFacts` — functions with their resolved call sites, message
sends, handler dispatch checks, ambient clock/RNG/env calls,
stable-storage calls and durability barriers; classes with their fields,
bases and attribute types. All name resolution that needs
the file's *own* import table happens here, so facts are self-contained.
Cross-file linking (method resolution, re-export chasing, reachability)
happens later in :mod:`repro.lint.graph.index`, over facts only.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.lint.context import FileContext

#: Handler naming convention: ``on_*`` / ``_on_*`` / ``handle_*``.
HANDLER_RE = re.compile(r"^_?(on|handle)_")

#: Facts key of the pseudo-function holding module- and class-body code.
MODULE_BODY = "<module>"

#: ``<...>.store.<method>()`` writes whose loss violates Paxos safety — the
#: ones PROTO101 requires a durability barrier for before any
#: acknowledgement leaves.
SAFETY_CRITICAL_MUTATORS = frozenset({"accept", "record_promise", "record_round"})

#: Fully-qualified callables that read wall clocks, process entropy or
#: the environment (nondeterministic across hosts even though stable
#: within one process).
AMBIENT_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.getenv",
        "os.environ.get",
        "os.environb.get",
    }
)

#: Files allowed to construct ``random.Random()`` without a seed: they
#: *are* the seed boundary of a run.
UNSEEDED_RNG_BOUNDARY = ("sim/world.py", "sim/kernel.py")


def module_of(rel: str) -> str:
    """Dotted module name of a file, relative to the scan root.

    ``repro/core/replica.py`` -> ``repro.core.replica``;
    ``pkg/__init__.py`` -> ``pkg``.
    """
    parts = list(PurePosixPath(rel).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def is_ambient(ctx: FileContext, node: ast.Call, target: str) -> bool:
    """Is this call (``target`` its resolved dotted callee) a source of
    nondeterminism? Every ``random.*`` module function is; constructing
    ``random.Random`` is only when it draws its seed from the OS."""
    if target == "random.Random":
        unseeded = not node.args and not node.keywords
        return unseeded and not ctx.rel.endswith(UNSEEDED_RNG_BOUNDARY)
    return (
        target in AMBIENT_CALLS
        or target.startswith("secrets.")
        or target.startswith("random.")
    )


@dataclass(slots=True)
class CallSite:
    """One call expression inside a function body."""

    target: str | None      # import-resolved dotted callee, or None
    chain: tuple[str, ...]  # raw attribute chain, e.g. ("self", "store", "accept")
    line: int


@dataclass(slots=True)
class SendSite:
    """One ``send``/``broadcast`` call with its message argument."""

    kind: str               # "send" | "broadcast"
    msg: str | None         # resolved message constructor (dotted), or None
    line: int


@dataclass(slots=True)
class FunctionFacts:
    """Everything the project pass needs to know about one function."""

    qualname: str                               # "Replica._on_prepare" / "helper"
    name: str
    cls: str | None                             # enclosing class name, if a method
    line: int
    handler: bool                               # name matches on_*/_on_*/handle_*
    params: tuple[tuple[str, str | None], ...]  # (name, resolved annotation)
    calls: tuple[CallSite, ...] = ()
    sends: tuple[SendSite, ...] = ()
    ambient: tuple[tuple[str, int, int], ...] = ()  # (callee, line, col)
    stable_calls: tuple[tuple[str, int], ...] = ()  # safety-critical store writes
    barrier: bool = False                       # touches flush()/needs_barrier
    handled: tuple[str, ...] = ()               # isinstance-dispatched classes
    local_types: tuple[tuple[str, str], ...] = ()  # var -> constructor class


@dataclass(slots=True)
class ClassFacts:
    """Schema and wiring of one class definition."""

    name: str
    line: int
    bases: tuple[str, ...] = ()         # resolved dotted base names
    methods: tuple[str, ...] = ()
    fields: tuple[str, ...] = ()        # class-body AnnAssign/Assign names
    attr_types: tuple[tuple[str, str], ...] = ()  # self.x = Ctor(...) wiring
    frozen: bool = False
    is_message: bool = False
    #: Declarative handler registries: class-body dict literals mapping
    #: message classes to handler method names, as (resolved class,
    #: method name) pairs — e.g. ``DISPATCH = {Prepare: "_on_prepare"}``.
    dispatch: tuple[tuple[str, str], ...] = ()


@dataclass(slots=True)
class FileFacts:
    """The distilled, linkable view of one source file."""

    rel: str
    module: str
    layer: str | None
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)


# ============================================================== extraction
#: Layers whose dataclasses can be messages (where messages are defined).
_MESSAGE_LAYERS = frozenset({"core", "net"})

#: Docstring convention marking a message class outside ``messages.py``:
#: the first line names sender and receiver, e.g. "Replica -> leader: ...".
_DIRECTION_RE = re.compile(r"\S\s*->\s*\S")


def _attribute_chain(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` -> ``("a", "b", "c")``; None for non-name chains."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return tuple(reversed(parts))


def _resolve_annotation(ctx: FileContext, node: ast.expr | None) -> str | None:
    """Resolved dotted class name of a simple annotation, or None.

    Handles ``Prepare``, ``messages.Prepare``, string annotations, and
    ``X | None`` unions (taking the non-None side). Subscripted generics
    are opaque on purpose — a handler takes a concrete message type.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _resolve_annotation(ctx, node.left)
        if left is not None:
            return left
        return _resolve_annotation(ctx, node.right)
    if isinstance(node, (ast.Name, ast.Attribute)):
        resolved = ctx.resolve(node)
        if resolved in (None, "None"):
            return None
        return resolved
    return None


def _is_message_class(ctx: FileContext, node: ast.ClassDef) -> bool:
    """A dataclass in a core/net ``messages.py`` module, or a core/net
    dataclass whose docstring declares a ``sender -> receiver`` direction."""
    if ctx.layer not in _MESSAGE_LAYERS:
        return False
    if ctx.rel.endswith("messages.py"):
        return True
    docstring = ast.get_docstring(node)
    if not docstring:
        return False
    return bool(_DIRECTION_RE.search(docstring.splitlines()[0]))


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
            return decorator
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "dataclass"
        ):
            return decorator
    return None


class _FunctionWalker(ast.NodeVisitor):
    """Collects one function's facts. Nested functions, classes and
    lambdas contribute to the *enclosing* function's facts (closures over
    handler state are pervasive here) — a send inside a
    ``flush(lambda: ...)`` callback belongs to the function that armed it."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.calls: list[CallSite] = []
        self.sends: list[SendSite] = []
        self.ambient: list[tuple[str, int, int]] = []
        self.stable_calls: list[tuple[str, int]] = []
        self.barrier = False
        self.handled: list[str] = []
        self.local_types: dict[str, str] = {}

    def visit_Call(self, node: ast.Call) -> None:
        ctx = self.ctx
        chain = _attribute_chain(node.func) or ()
        target = ctx.resolve(node.func)
        if target is not None and is_ambient(ctx, node, target):
            self.ambient.append((target, node.lineno, node.col_offset + 1))
        if chain:
            self.calls.append(CallSite(target=target, chain=chain, line=node.lineno))
            if len(chain) >= 2 and chain[-2] == "store":
                if chain[-1] == "flush":
                    self.barrier = True
                elif chain[-1] in SAFETY_CRITICAL_MUTATORS:
                    self.stable_calls.append((chain[-1], node.lineno))
            if chain[-1] in ("send", "broadcast") and len(node.args) >= 2:
                self.sends.append(
                    SendSite(
                        kind=chain[-1],
                        msg=self._message_argument(node.args[1]),
                        line=node.lineno,
                    )
                )
        if target == "isinstance" and len(node.args) == 2:
            self._collect_isinstance(node.args[1])
        self.generic_visit(node)

    def _message_argument(self, arg: ast.expr) -> str | None:
        """The message class a send's payload argument resolves to."""
        if isinstance(arg, ast.Call):
            return self.ctx.resolve(arg.func)
        if isinstance(arg, ast.Name):
            return self.local_types.get(arg.id)
        return None

    def _collect_isinstance(self, spec: ast.expr) -> None:
        elements = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for element in elements:
            resolved = self.ctx.resolve(element)
            if resolved is not None:
                self.handled.append(resolved)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "needs_barrier":
            chain = _attribute_chain(node)
            if chain and len(chain) >= 3 and chain[-2] == "store":
                self.barrier = True
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            ctor = self.ctx.resolve(node.value.func)
            for target in node.targets:
                if isinstance(target, ast.Name) and ctor is not None:
                    self.local_types[target.id] = ctor
        self.generic_visit(node)


def _function_facts(
    walker: _FunctionWalker,
    name: str,
    cls: str | None = None,
    line: int = 1,
    params: tuple[tuple[str, str | None], ...] = (),
) -> FunctionFacts:
    return FunctionFacts(
        qualname=f"{cls}.{name}" if cls is not None else name,
        name=name,
        cls=cls,
        line=line,
        handler=bool(HANDLER_RE.match(name)),
        params=params,
        calls=tuple(walker.calls),
        sends=tuple(walker.sends),
        ambient=tuple(walker.ambient),
        stable_calls=tuple(walker.stable_calls),
        barrier=walker.barrier,
        handled=tuple(dict.fromkeys(walker.handled)),
        local_types=tuple(sorted(walker.local_types.items())),
    )


def _extract_function(
    ctx: FileContext,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    cls: ast.ClassDef | None,
) -> FunctionFacts:
    params = tuple(
        (arg.arg, _resolve_annotation(ctx, arg.annotation))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg not in ("self", "cls")
    )
    walker = _FunctionWalker(ctx)
    for statement in node.body:
        walker.visit(statement)
    return _function_facts(
        walker, node.name, cls.name if cls is not None else None, node.lineno, params
    )


def _dispatch_entries(ctx: FileContext, value: ast.expr) -> list[tuple[str, str]]:
    """Entries of a class-body handler registry, or ``[]``.

    A registry is a dict literal whose keys resolve to class names and
    whose values are string constants naming methods — the declarative
    replacement for an ``isinstance`` dispatch chain. Mixed or non-literal
    dicts yield nothing: partial extraction would make MSG102 claim a
    handler exists for a type the table never routes.
    """
    if not isinstance(value, ast.Dict):
        return []
    entries: list[tuple[str, str]] = []
    for key, val in zip(value.keys, value.values):
        if key is None:  # ``**spread`` — not a statically known table
            return []
        if not (isinstance(val, ast.Constant) and isinstance(val.value, str)):
            return []
        resolved = ctx.resolve(key)
        if resolved is None:
            return []
        entries.append((resolved, val.value))
    return entries


def _extract_class(ctx: FileContext, node: ast.ClassDef) -> ClassFacts:
    decorator = _dataclass_decorator(node)
    frozen = False
    if isinstance(decorator, ast.Call):
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                frozen = True
    bases = tuple(
        resolved
        for base in node.bases
        if (resolved := ctx.resolve(base)) is not None
    )
    methods: list[str] = []
    fields: list[str] = []
    attr_types: dict[str, str] = {}
    dispatch: list[tuple[str, str]] = []
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(item.name)
            # ``self.x = Ctor(...)`` wiring, for attribute-method resolution.
            for statement in ast.walk(item):
                if not isinstance(statement, ast.Assign):
                    continue
                for target in statement.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and isinstance(statement.value, ast.Call)
                    ):
                        ctor = ctx.resolve(statement.value.func)
                        if ctor is not None and target.attr not in attr_types:
                            attr_types[target.attr] = ctor
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            fields.append(item.target.id)
            if item.value is not None:
                dispatch.extend(_dispatch_entries(ctx, item.value))
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    fields.append(target.id)
            dispatch.extend(_dispatch_entries(ctx, item.value))
    return ClassFacts(
        name=node.name,
        line=node.lineno,
        bases=bases,
        methods=tuple(methods),
        fields=tuple(fields),
        attr_types=tuple(sorted(attr_types.items())),
        frozen=frozen,
        is_message=decorator is not None and _is_message_class(ctx, node),
        dispatch=tuple(dispatch),
    )


def _qualify(name: str | None, module: str, local: frozenset[str]) -> str | None:
    """Prefix module onto names the file defines itself.

    ``ctx.resolve`` leaves locally-defined symbols bare (``CTEstimate``
    instead of ``repro.core.ctconsensus.CTEstimate``) because the import
    table never mentions them; qualification happens here, once, so every
    downstream consumer (call graph, msgflow, base-class chains) sees
    fully-dotted names.
    """
    if name is None or not module:
        return name
    root = name.split(".", 1)[0]
    return f"{module}.{name}" if root in local else name


def _qualify_facts(facts: FileFacts, local: frozenset[str]) -> None:
    module = facts.module
    for fn in facts.functions.values():
        fn.calls = tuple(
            CallSite(
                target=_qualify(call.target, module, local),
                chain=call.chain,
                line=call.line,
            )
            for call in fn.calls
        )
        fn.sends = tuple(
            SendSite(
                kind=send.kind,
                msg=_qualify(send.msg, module, local),
                line=send.line,
            )
            for send in fn.sends
        )
        fn.params = tuple(
            (name, _qualify(annotation, module, local))
            for name, annotation in fn.params
        )
        fn.handled = tuple(_qualify(h, module, local) for h in fn.handled)
        fn.local_types = tuple(
            (name, _qualify(ctor, module, local)) for name, ctor in fn.local_types
        )
    for cls_facts in facts.classes.values():
        cls_facts.bases = tuple(
            _qualify(base, module, local) for base in cls_facts.bases
        )
        cls_facts.attr_types = tuple(
            (attr, _qualify(ctor, module, local))
            for attr, ctor in cls_facts.attr_types
        )
        cls_facts.dispatch = tuple(
            (_qualify(msg, module, local), method)
            for msg, method in cls_facts.dispatch
        )


def extract_facts(ctx: FileContext) -> FileFacts:
    """Distill one parsed file into its linkable facts."""
    facts = FileFacts(
        rel=ctx.rel,
        module=module_of(ctx.rel),
        layer=ctx.layer,
        imports=dict(ctx.imports),
    )
    body = _FunctionWalker(ctx)  # module- and class-body statements
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _extract_function(ctx, node, cls=None)
            facts.functions[fn.qualname] = fn
        elif isinstance(node, ast.ClassDef):
            cls_facts = _extract_class(ctx, node)
            facts.classes[cls_facts.name] = cls_facts
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    fn = _extract_function(ctx, item, cls=node)
                    facts.functions[fn.qualname] = fn
                else:
                    body.visit(item)
        else:
            body.visit(node)
    if body.ambient:
        # Import-time code is a function of its own only when it reaches
        # for ambient state — a node per clean file would be noise in the
        # call graph and its exports.
        facts.functions[MODULE_BODY] = _function_facts(body, MODULE_BODY)
    local = frozenset(facts.classes) | {
        fn.name for fn in facts.functions.values() if fn.cls is None
    }
    _qualify_facts(facts, local)
    return facts

"""Per-file fact extraction: phase one of the project analysis.

It walks each file's AST exactly once and distills it into
:class:`FileFacts` — functions with their resolved call sites, message
sends, handler dispatch checks, field reads on annotated parameters,
stable-storage calls and durability barriers; classes with their fields,
bases and attribute types. All name resolution that needs
the file's *own* import table happens here, so facts are self-contained.
Cross-file linking (method resolution, re-export chasing, reachability)
happens later in :mod:`repro.lint.graph.index`, over facts only — it never
needs the AST back.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath

from repro.lint.context import FileContext
from repro.lint.rules.determinism import AMBIENT_CALLS, AMBIENT_PREFIXES

#: Handler naming convention (mirrors the MSG002 rule).
HANDLER_RE = re.compile(r"^_?(on|handle)_")

#: ``<...>.store.<method>()`` calls that mutate crash-surviving state.
STABLE_MUTATORS = frozenset(
    {"accept", "choose", "record_promise", "record_round",
     "write_checkpoint", "install_state", "initialize"}
)

#: The subset whose loss violates Paxos safety — the writes PROTO101
#: requires a durability barrier for before any acknowledgement leaves.
SAFETY_CRITICAL_MUTATORS = frozenset({"accept", "record_promise", "record_round"})

#: Additional interprocedural taint sources beyond DET001's ambient set:
#: environment reads are nondeterministic across hosts even though they
#: are stable within one process.
ENV_CALLS = frozenset({"os.getenv", "os.environ.get", "os.environb.get"})


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


def is_ambient(target: str) -> bool:
    """Is ``target`` (a resolved dotted callable) a nondeterminism source?"""
    return (
        target in AMBIENT_CALLS
        or target in ENV_CALLS
        or target.startswith(AMBIENT_PREFIXES)
        or (target.startswith("random.") and target != "random.Random")
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
    ambient: tuple[tuple[str, int], ...] = ()   # direct nondeterminism calls
    reads: tuple[tuple[str, str, int], ...] = ()  # param attribute reads
    stable_calls: tuple[tuple[str, int], ...] = ()  # *.store.<mutator>() sites
    barrier: bool = False                       # touches flush()/needs_barrier
    handled: tuple[str, ...] = ()               # isinstance-dispatched classes
    local_types: tuple[tuple[str, str], ...] = ()  # var -> constructor class
    rebound: tuple[str, ...] = ()               # params reassigned in the body


@dataclass(slots=True)
class ClassFacts:
    """Schema and wiring of one class definition."""

    name: str
    line: int
    bases: tuple[str, ...] = ()         # resolved dotted base names
    methods: tuple[str, ...] = ()
    properties: tuple[str, ...] = ()
    fields: tuple[str, ...] = ()        # class-body AnnAssign/Assign names
    attr_types: tuple[tuple[str, str], ...] = ()  # self.x = Ctor(...) wiring
    is_dataclass: bool = False
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
_MESSAGE_LAYERS = frozenset({"core", "net"})
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
    """Mirror of MSG001's classification: a dataclass in a ``messages.py``
    module, or a core/net dataclass whose docstring declares a direction."""
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


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for decorator in node.decorator_list:
        chain = _attribute_chain(decorator)
        if chain:
            names.add(chain[-1])
            names.add(chain[0])
    return names


class _FunctionWalker(ast.NodeVisitor):
    """Collects one function's facts without descending into nested defs
    (nested functions and lambdas share the enclosing function's facts —
    a send inside a ``flush(lambda: ...)`` callback belongs to the
    function that armed it)."""

    def __init__(self, ctx: FileContext, params: dict[str, str | None]) -> None:
        self.ctx = ctx
        self.params = params
        self.calls: list[CallSite] = []
        self.sends: list[SendSite] = []
        self.ambient: list[tuple[str, int]] = []
        self.reads: list[tuple[str, str, int]] = []
        self.stable_calls: list[tuple[str, int]] = []
        self.barrier = False
        self.handled: list[str] = []
        self.local_types: dict[str, str] = {}
        self.rebound: set[str] = set()

    def visit_Call(self, node: ast.Call) -> None:
        ctx = self.ctx
        chain = _attribute_chain(node.func) or ()
        target = ctx.resolve(node.func)
        if target is not None and is_ambient(target):
            self.ambient.append((target, node.lineno))
        if chain:
            self.calls.append(CallSite(target=target, chain=chain, line=node.lineno))
            if len(chain) >= 2 and chain[-2] == "store":
                if chain[-1] == "flush":
                    self.barrier = True
                elif chain[-1] in STABLE_MUTATORS:
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
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in self.params
            and not node.attr.startswith("__")
        ):
            self.reads.append((node.value.id, node.attr, node.lineno))
        if node.attr == "needs_barrier":
            chain = _attribute_chain(node)
            if chain and len(chain) >= 3 and chain[-2] == "store":
                self.barrier = True
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if target.id in self.params:
                    self.rebound.add(target.id)
                if isinstance(node.value, ast.Call):
                    ctor = self.ctx.resolve(node.value.func)
                    if ctor is not None:
                        self.local_types[target.id] = ctor
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.target.id in self.params:
            self.rebound.add(node.target.id)
        self.generic_visit(node)

    # Nested function/class definitions contribute to the *enclosing*
    # function's facts (closures over handler state are pervasive here),
    # so the walker descends into them via generic_visit. Only their
    # parameter lists would shadow ours; rebinding via inner defs is rare
    # enough to accept the imprecision.


def _extract_function(
    ctx: FileContext,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    cls: ast.ClassDef | None,
) -> FunctionFacts:
    params: dict[str, str | None] = {}
    for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
        if arg.arg in ("self", "cls"):
            continue
        params[arg.arg] = _resolve_annotation(ctx, arg.annotation)
    walker = _FunctionWalker(ctx, params)
    for statement in node.body:
        walker.visit(statement)
    qualname = f"{cls.name}.{node.name}" if cls is not None else node.name
    return FunctionFacts(
        qualname=qualname,
        name=node.name,
        cls=cls.name if cls is not None else None,
        line=node.lineno,
        handler=bool(HANDLER_RE.match(node.name)),
        params=tuple(params.items()),
        calls=tuple(walker.calls),
        sends=tuple(walker.sends),
        ambient=tuple(walker.ambient),
        reads=tuple(walker.reads),
        stable_calls=tuple(walker.stable_calls),
        barrier=walker.barrier,
        handled=tuple(dict.fromkeys(walker.handled)),
        local_types=tuple(sorted(walker.local_types.items())),
        rebound=tuple(sorted(walker.rebound)),
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
    properties: list[str] = []
    fields: list[str] = []
    attr_types: dict[str, str] = {}
    dispatch: list[tuple[str, str]] = []
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if "property" in _decorator_names(item) or "cached_property" in _decorator_names(item):
                properties.append(item.name)
            else:
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
        properties=tuple(properties),
        fields=tuple(fields),
        attr_types=tuple(sorted(attr_types.items())),
        is_dataclass=decorator is not None,
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
    local = frozenset(facts.classes) | {
        fn.name for fn in facts.functions.values() if fn.cls is None
    }
    _qualify_facts(facts, local)
    return facts

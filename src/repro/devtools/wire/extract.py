"""RPC-surface extraction: every call site that crosses the Transport seam.

The extractor walks the flow of each module looking for calls on a
``*.transport`` receiver (``send``/``probe``/``route``), records one
:class:`SendSite` per call site, and resolves each send's bound-method
handler expression to the class that defines it.  Resolution is static:
a binding table is built from the analyzed modules' own ``__init__``
bodies (``self.store = store`` with ``store: LocalStore`` binds the
attribute hint ``store`` to ``LocalStore``), so ``target.store.
verify_replica`` resolves without executing anything.

Everything downstream — the wire rules, the committed schema, the
codec's message table — is derived from this analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..flow.callgraph import NESTED_SCOPES, FunctionInfo, get_index, iter_own_nodes
from ..framework import ModuleInfo, shared_analysis

#: Modules whose dataclasses may cross the seam as message payloads.
#: ``repro.core.messages`` holds the request envelopes (routed hop to
#: hop and returned in ``RouteResult.message``) and
#: ``repro.security.certificates`` the frozen certificate/receipt
#: records embedded in them.
MESSAGE_MODULES = ("repro.core.messages", "repro.security.certificates")

#: Python scalar types the wire codec encodes natively.
WIRE_PRIMITIVES = ("None", "bool", "int", "float", "str", "bytes")

#: Generic containers the codec encodes recursively.
_CONTAINERS = {
    "List", "Set", "FrozenSet", "Tuple", "Sequence", "Iterable", "Dict",
    "list", "set", "frozenset", "tuple", "dict",
}


def _annotation_str(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    text = ast.unparse(node)
    # String-literal forward references ('PastNetwork') unwrap to the name.
    if len(text) >= 2 and text[0] in "'\"" and text[-1] == text[0]:
        text = text[1:-1]
    return text


def _last_name(annotation: Optional[str]) -> Optional[str]:
    """``repro.core.storage.LocalStore`` / ``'LocalStore'`` -> ``LocalStore``."""
    if annotation is None:
        return None
    return annotation.split("[", 1)[0].split(".")[-1].strip()


def is_wire_safe(annotation: Optional[str], message_types: Set[str]) -> bool:
    """Is this annotation encodable by the wire codec?

    Accepts the primitive scalars, ``Optional``/``Union`` and generic
    containers of safe types, and registered message dataclasses.  Bare
    containers (``tuple`` with no element type) are rejected: the codec
    cannot certify what it cannot see.
    """
    if annotation is None:
        return False
    try:
        node = ast.parse(annotation, mode="eval").body
    except SyntaxError:
        return False
    return _safe_node(node, message_types)


def _safe_node(node: ast.AST, message_types: Set[str]) -> bool:
    if isinstance(node, ast.Constant):
        if node.value is None:
            return True
        if isinstance(node.value, str):  # nested forward reference
            return is_wire_safe(node.value, message_types)
        return node.value is Ellipsis  # Tuple[int, ...]
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):  # typing.Optional etc.
        name = node.attr
    if name is not None:
        if name in WIRE_PRIMITIVES or name in message_types:
            return True
        return False  # bare container or unknown class
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else None
        )
        if head_name not in _CONTAINERS and head_name not in ("Optional", "Union"):
            return False
        inner = node.slice
        elems = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(_safe_node(e, message_types) for e in elems)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # PEP 604 unions: int | None
        return _safe_node(node.left, message_types) and _safe_node(
            node.right, message_types
        )
    return False


@dataclass
class RemoteHandler:
    """One method remote callers invoke through the transport."""

    cls: str
    method: str
    module: str
    path: str
    line: int
    #: (name, annotation) per parameter, ``self`` excluded.
    params: List[Tuple[str, Optional[str]]]
    returns: Optional[str]
    #: How many trailing params carry defaults (for arity checking).
    defaults: int = 0

    @property
    def key(self) -> str:
        return f"{self.cls}.{self.method}"


@dataclass
class SendSite:
    """One transport call site (``send``, ``probe`` or ``route``)."""

    kind: str
    module: str
    path: str
    line: int
    function: str
    handler_expr: Optional[str] = None
    handler: Optional[str] = None  # resolved "Class.method"
    resolution_error: Optional[str] = None
    reliable: bool = False
    #: ``None if member is None else member.m`` — the crashed-target form.
    dead_target_guard: bool = False
    delivered_name: Optional[str] = None
    delivered_tested: bool = False
    retry_policy_in_scope: bool = False
    message_type: Optional[str] = None  # route payload class
    positional_args: int = 0
    keyword_args: Tuple[str, ...] = ()

    @property
    def site_key(self) -> str:
        return f"{self.module}.{self.function}"


@dataclass
class ClassInfo:
    name: str
    module: str
    path: str
    line: int
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: attribute name -> class name, from ``self.x = ...`` in __init__.
    attr_types: Dict[str, str] = field(default_factory=dict)
    is_dataclass: bool = False
    frozen: bool = False
    #: Declared fields in declaration order (dataclasses only).
    fields: List[Tuple[str, str]] = field(default_factory=list)


def _is_transport_call(func: ast.AST) -> Optional[str]:
    """``<expr>.transport.send`` / ``self.transport.probe`` -> kind."""
    if not isinstance(func, ast.Attribute) or func.attr not in ("send", "probe", "route"):
        return None
    owner = func.value
    if isinstance(owner, ast.Attribute) and owner.attr == "transport":
        return func.attr
    if isinstance(owner, ast.Name) and owner.id == "transport":
        return func.attr
    return None


class WireAnalysis:
    """The RPC surface of a module set."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules = list(modules)
        self.classes: Dict[str, ClassInfo] = {}
        #: attribute hint -> class names it is known to hold.
        self.attr_hints: Dict[str, Set[str]] = {}
        self.sites: List[SendSite] = []
        #: resolved "Class.method" -> handler record (send handlers only).
        self.handlers: Dict[str, RemoteHandler] = {}
        self.message_classes: Dict[str, ClassInfo] = {}
        self._collect_classes()
        self._collect_sites()
        self._resolve()

    # ------------------------------------------------------------- classes

    def _collect_classes(self) -> None:
        raw_assigns: List[Tuple[ClassInfo, str, ast.AST]] = []
        for module in self.modules:
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                info = ClassInfo(
                    name=node.name, module=module.name,
                    path=module.path, line=node.lineno,
                )
                self._apply_decorators(info, node)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        info.methods[item.name] = item
                    elif isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        ann = _annotation_str(item.annotation)
                        if ann is not None and not ann.startswith("ClassVar"):
                            info.fields.append((item.target.id, ann))
                # Last definition wins on duplicate class names; collisions
                # across modules surface as ambiguous-handler findings.
                self.classes[node.name] = info
                if module.name in MESSAGE_MODULES:
                    self.message_classes[node.name] = info
                init = info.methods.get("__init__")
                if init is not None:
                    param_types = {
                        arg.arg: _last_name(_annotation_str(arg.annotation))
                        for arg in init.args.args
                    }
                    for stmt in ast.walk(init):
                        if not (
                            isinstance(stmt, ast.Assign)
                            and len(stmt.targets) == 1
                            and isinstance(stmt.targets[0], ast.Attribute)
                            and isinstance(stmt.targets[0].value, ast.Name)
                            and stmt.targets[0].value.id == "self"
                        ):
                            continue
                        attr = stmt.targets[0].attr
                        value = stmt.value
                        if isinstance(value, ast.Name):
                            typed = param_types.get(value.id)
                            if typed:
                                raw_assigns.append((info, attr, ast.Name(id=typed)))
                        elif isinstance(value, ast.Call) and isinstance(
                            value.func, ast.Name
                        ):
                            raw_assigns.append((info, attr, value.func))
        for info, attr, type_node in raw_assigns:
            type_name = type_node.id if isinstance(type_node, ast.Name) else None
            if type_name and type_name in self.classes:
                info.attr_types[attr] = type_name
                self.attr_hints.setdefault(attr, set()).add(type_name)

    @staticmethod
    def _apply_decorators(info: ClassInfo, node: ast.ClassDef) -> None:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name != "dataclass":
                continue
            info.is_dataclass = True
            if isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                        info.frozen = bool(kw.value.value)

    # --------------------------------------------------------------- sites

    def _collect_sites(self) -> None:
        # Site keys name a function ``Class.method`` (``.inner`` for a
        # closure), relative to its module.
        for func in get_index(self.modules).functions.values():
            if not func.is_module_body:
                self._scan_function(func)

    def _scan_function(self, func: FunctionInfo) -> None:
        """Record the sends in ``func``'s own nodes; a closure scans its own."""
        module, funcdef = func.module, func.node
        funcname = func.qualname[len(module.name) + 1:].replace(".<locals>", "")
        own = list(iter_own_nodes(func, NESTED_SCOPES))
        sites: List[SendSite] = []
        call_bindings: Dict[int, str] = {}  # id(call node) -> delivered name
        retry_policy = any(
            "RetryPolicy" in (_annotation_str(arg.annotation) or "")
            for arg in funcdef.args.args + funcdef.args.kwonlyargs
        )
        for node in own:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Tuple):
                    first = node.targets[0].elts[0]
                    if isinstance(first, ast.Name):
                        call_bindings[id(node.value)] = first.id
            if not isinstance(node, ast.Call):
                continue
            kind = _is_transport_call(node.func)
            if kind is None:
                continue
            site = SendSite(
                kind=kind, module=module.name, path=module.path,
                line=node.lineno, function=funcname,
                retry_policy_in_scope=retry_policy,
            )
            for kw in node.keywords:
                if kw.arg == "reliable" and isinstance(kw.value, ast.Constant):
                    site.reliable = bool(kw.value.value)
            if kind == "send":
                self._fill_send(site, node)
                site.delivered_name = call_bindings.get(id(node))
            elif kind == "route":
                self._fill_route(site, node, own)
            sites.append(site)
        tested = _tested_names(own)
        for site in sites:
            if site.delivered_name is not None and site.delivered_name in tested:
                site.delivered_tested = True
        self.sites.extend(sites)

    def _fill_send(self, site: SendSite, call: ast.Call) -> None:
        if len(call.args) < 3:
            site.resolution_error = "send() call with no handler argument"
            return
        handler = call.args[3 - 1]
        site.positional_args = len(call.args) - 3
        site.keyword_args = tuple(
            sorted(kw.arg for kw in call.keywords if kw.arg and kw.arg != "reliable")
        )
        if isinstance(handler, ast.IfExp):
            # ``None if member is None else member.m``: the crashed-target
            # form — the live branch names the handler.
            site.dead_target_guard = True
            branches = [handler.body, handler.orelse]
            live = [b for b in branches if not (
                isinstance(b, ast.Constant) and b.value is None
            )]
            if len(live) != 1:
                site.resolution_error = "conditional handler has no single live branch"
                return
            handler = live[0]
        if isinstance(handler, ast.Constant) and handler.value is None:
            site.handler_expr = "None"
            site.dead_target_guard = True
            return
        if not isinstance(handler, ast.Attribute):
            site.resolution_error = (
                f"handler {ast.unparse(handler)!r} is not a bound-method reference"
            )
            return
        site.handler_expr = ast.unparse(handler)

    def _fill_route(self, site: SendSite, call: ast.Call, own: List[ast.AST]) -> None:
        message = None
        for kw in call.keywords:
            if kw.arg == "message":
                message = kw.value
        if message is None:
            return
        if isinstance(message, ast.Call) and isinstance(message.func, ast.Name):
            site.message_type = message.func.id
            return
        if isinstance(message, ast.Name):
            wanted = message.id
            for node in own:
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == wanted
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                ):
                    site.message_type = node.value.func.id

    # ------------------------------------------------------------ resolve

    def _resolve(self) -> None:
        for site in self.sites:
            if site.kind != "send" or site.resolution_error is not None:
                continue
            if site.handler_expr in (None, "None"):
                continue
            expr = ast.parse(site.handler_expr, mode="eval").body
            method = expr.attr  # type: ignore[union-attr]
            owner = expr.value  # type: ignore[union-attr]
            hint = owner.attr if isinstance(owner, ast.Attribute) else None
            candidates = sorted(self._candidate_classes(method, hint))
            if not candidates:
                site.resolution_error = f"no handler named {method!r} in any known class"
                continue
            if len(candidates) > 1:
                site.resolution_error = (
                    f"handler {method!r} is ambiguous across classes "
                    f"{', '.join(candidates)}"
                )
                continue
            cls = candidates[0]
            site.handler = f"{cls}.{method}"
            if site.handler not in self.handlers:
                self.handlers[site.handler] = self._handler_record(cls, method)

    def _candidate_classes(self, method: str, hint: Optional[str]) -> Set[str]:
        """Classes that could own a remote method, narrowed by attr hint."""
        candidates = {
            name for name, info in self.classes.items()
            if method in info.methods
        }
        if hint is not None and hint in self.attr_hints:
            narrowed = candidates & self.attr_hints[hint]
            if narrowed:
                return narrowed
        return candidates

    def _handler_record(self, cls: str, method: str) -> RemoteHandler:
        info = self.classes[cls]
        funcdef = info.methods[method]
        params = [
            (arg.arg, _annotation_str(arg.annotation))
            for arg in funcdef.args.args
            if arg.arg != "self"
        ]
        return RemoteHandler(
            cls=cls, method=method, module=info.module, path=info.path,
            line=funcdef.lineno, params=params,
            returns=_annotation_str(funcdef.returns),
            defaults=len(funcdef.args.defaults),
        )

    # ------------------------------------------------------------- queries

    def message_type_names(self) -> Set[str]:
        """Classes allowed to cross the seam (transitively via fields)."""
        return set(self.message_classes)


def _tested_names(own: List[ast.AST]) -> Set[str]:
    """Names consumed in test position among a function's own nodes."""
    tested: Set[str] = set()

    def harvest(expr: Optional[ast.AST]) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                tested.add(node.id)

    for node in own:
        if isinstance(node, (ast.If, ast.While, ast.IfExp)):
            harvest(node.test)
        elif isinstance(node, ast.Assert):
            harvest(node.test)
        elif isinstance(node, ast.Return):
            harvest(node.value)
        elif isinstance(node, (ast.BoolOp, ast.Compare)):
            harvest(node)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            harvest(node)
    return tested


def get_wire_analysis(modules: Sequence[ModuleInfo]) -> WireAnalysis:
    return shared_analysis(WireAnalysis, modules)

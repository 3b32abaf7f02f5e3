"""Interprocedural effect analysis: who writes what, reached from where.

The substrate of the EOF4xx concurrency pass
(:mod:`repro.analysis.concurrency`).  Parsing every Python file under a
root yields a :class:`CodeIndex` with, per function or method:

* the **effect set** — instance-attribute writes (``self.x = ...``,
  ``self.x += ...``, ``self.x[k] = ...``, mutator calls like
  ``self.x.append(...)``), writes to module-level globals, and writes
  through *typed* external receivers (``state.crashes[sig] = ...``
  where ``state`` is known to be a ``CampaignState``);
* the **outgoing calls**, each tagged with how its receiver resolves;
* the **signal handlers** it registers (``signal.signal(sig, f)``).

Per class it records the declared concurrency contract: a ``GUARDED_BY``
mapping (attribute name -> guard), where a guard is one of two
sentinels — ``"@atomic"`` (writes must be single constant assignments,
which a signal handler can make without tearing anything) or
``"@main"`` (the attribute is only ever written from the main thread,
never from a signal handler) — plus the attribute types recovered from
annotations and constructor assignments.

Call resolution is *typed first*: ``self.m()`` binds within the class
(bases included); receivers with a recoverable type (parameter
annotations, ``x = ClassName(...)`` assignments, typed attributes,
``List[T]`` element access, module-level singletons such as ``CLAMPS =
ClampCounter()``) bind to that class and any subclass overrides.  A
call that resolves no type falls back to name matching — and the
reachability walk follows a fallback edge only when the method name is
*unique* across the scanned tree, so ubiquitous names (``close``,
``emit``, ``get``) never smear signal context across unrelated
classes.
"""

from __future__ import annotations

import ast
import builtins
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import _iter_python_files, _rel, default_lint_root

#: Method calls treated as a *write* to their receiver (container
#: mutation in place).
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "extend", "insert",
    "remove", "discard", "pop", "popleft", "popitem", "clear",
    "setdefault", "sort", "reverse",
})

#: Method names that are overwhelmingly dict/list/str/file plumbing.
#: Name-fallback resolution never binds these — a typed receiver is the
#: only way to reach a same-named real method.
_FALLBACK_BLOCKLIST = frozenset({
    "get", "items", "keys", "values", "copy", "join", "split",
    "strip", "encode", "decode", "format", "read", "readline",
    "write", "flush", "close", "seek", "index", "count", "startswith",
    "endswith", "lower", "upper", "replace", "isdigit",
})

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass(frozen=True)
class Effect:
    """One write: an attribute or module-global mutation."""

    kind: str                    # "attr" | "global"
    owner: str                   # class name ("" unknown) / module rel path
    name: str                    # attribute / global name
    op: str                      # "assign" | "aug" | "item" | "mutate"
    line: int
    via_self: bool = False
    const: bool = False          # simple assignment of a literal
    detail: str = ""             # mutator method name for op == "mutate"


@dataclass(frozen=True)
class CallSite:
    """One outgoing call and how its receiver resolved."""

    scope: str                   # "self" | "type" | "name" | "attr"
    name: str                    # callee method/function name
    type_name: str               # receiver class for scope == "type"
    line: int


@dataclass(eq=False)
class FunctionInfo:
    """One function or method with its extracted effect summary."""

    name: str
    qual: str
    rel_path: str
    lineno: int
    node: ast.AST = field(repr=False, default=None)
    cls: Optional["ClassInfo"] = None
    effects: List[Effect] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    local_types: Dict[str, str] = field(default_factory=dict)
    global_decls: Set[str] = field(default_factory=set)
    #: Unresolved expressions registered as signal handlers inside this
    #: body.
    signal_refs: List[ast.expr] = field(default_factory=list)


@dataclass(eq=False)
class ClassInfo:
    """One class body plus its declared concurrency contract."""

    name: str
    rel_path: str
    lineno: int
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)
    guarded_by: Dict[str, str] = field(default_factory=dict)


@dataclass(eq=False)
class ModuleInfo:
    """Per-file symbol tables the scanners resolve against."""

    rel_path: str
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    globals: Set[str] = field(default_factory=set)
    instance_types: Dict[str, str] = field(default_factory=dict)
    imported_modules: Set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# annotation / expression typing
# ---------------------------------------------------------------------------

_CONTAINER_BASES = frozenset({
    "List", "Sequence", "Deque", "Set", "FrozenSet", "Tuple",
    "list", "set", "tuple", "deque", "Iterable", "Iterator",
})
_MAPPING_BASES = frozenset({"Dict", "Mapping", "DefaultDict", "dict"})


def _ann_str(node: Optional[ast.AST]) -> str:
    """A class name ("T"), an element type ("[T]"), or ""."""
    if node is None:
        return ""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _ann_str(node.left)
        if left and left != "None":
            return left
        return _ann_str(node.right)
    if isinstance(node, ast.Subscript):
        base = _ann_str(node.value)
        inner = node.slice
        if base == "Optional":
            return _ann_str(inner)
        if base in _CONTAINER_BASES:
            elem = inner.elts[0] if isinstance(inner, ast.Tuple) and \
                inner.elts else inner
            elem_t = _ann_str(elem)
            return f"[{elem_t}]" if elem_t else ""
        if base in _MAPPING_BASES:
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                value_t = _ann_str(inner.elts[1])
                return f"[{value_t}]" if value_t else ""
        return ""
    return ""


def _module_rooted(expr: ast.AST, module: ModuleInfo) -> bool:
    """True when an attribute chain is rooted at an imported module
    (``os.path.join`` — an external call, never an in-repo method)."""
    base = expr
    while isinstance(base, ast.Attribute):
        base = base.value
    return isinstance(base, ast.Name) and \
        base.id in module.imported_modules


class CodeIndex:
    """Everything the concurrency rules query."""

    def __init__(self) -> None:
        self.files: List[Tuple[str, str]] = []      # (abs, rel)
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.ambiguous_classes: Set[str] = set()
        self.functions: List[FunctionInfo] = []
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        self.subclasses: Dict[str, List[str]] = {}
        self.signal_roots: List[FunctionInfo] = []
        self.parse_failures: List[Tuple[str, int, str]] = []

    # -- class/method resolution -------------------------------------------

    def class_of(self, name: str) -> Optional[ClassInfo]:
        if name in self.ambiguous_classes:
            return None
        return self.classes.get(name)

    def _base_closure(self, name: str) -> List[str]:
        """``name`` plus its base classes, nearest first."""
        out, stack, seen = [], [name], set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            cls = self.class_of(current)
            if cls is not None:
                stack.extend(cls.bases)
        return out

    def _subclass_closure(self, name: str) -> List[str]:
        out, stack, seen = [], [name], set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            out.append(current)
            stack.extend(self.subclasses.get(current, ()))
        return out

    def method_lookup(self, cls_name: str, method: str,
                      include_subclasses: bool = False
                      ) -> List[FunctionInfo]:
        """Resolve a method on a class: own/base def, plus subclass
        overrides when dispatch could be virtual."""
        targets: List[FunctionInfo] = []
        for name in self._base_closure(cls_name):
            cls = self.class_of(name)
            if cls is not None and method in cls.methods:
                targets.append(cls.methods[method])
                break
        if include_subclasses:
            for name in self._subclass_closure(cls_name):
                if name == cls_name:
                    continue
                cls = self.class_of(name)
                if cls is not None and method in cls.methods:
                    override = cls.methods[method]
                    if override not in targets:
                        targets.append(override)
        return targets

    def attr_type(self, cls_name: str, attr: str) -> str:
        """An attribute's recorded type, searching base classes too."""
        for name in self._base_closure(cls_name):
            cls = self.class_of(name)
            if cls is not None and attr in cls.attr_types:
                return cls.attr_types[attr]
        return ""

    # -- call-graph edges ----------------------------------------------------

    def resolve_call(self, fn: FunctionInfo, site: CallSite
                     ) -> Tuple[List[FunctionInfo], bool]:
        """``(targets, strong)``: strong edges came from typed or lexical
        resolution; weak ones from global name fallback."""
        if site.scope == "self" and fn.cls is not None:
            targets = self.method_lookup(fn.cls.name, site.name)
            if targets:
                return targets, True
            return self._fallback(site.name)
        if site.scope == "type":
            return self.method_lookup(site.type_name, site.name,
                                      include_subclasses=True), True
        if site.scope == "name":
            module = self.modules.get(fn.rel_path)
            if module is not None and site.name in module.functions:
                return [module.functions[site.name]], True
            cls = self.class_of(site.name)
            if cls is not None:
                init = cls.methods.get("__init__")
                return ([init] if init else []), True
            return self._fallback(site.name)
        return self._fallback(site.name)

    def _fallback(self, name: str) -> Tuple[List[FunctionInfo], bool]:
        if name in _FALLBACK_BLOCKLIST or name in _BUILTIN_NAMES:
            return [], False
        return list(self.by_name.get(name, ())), False

    def traversable(self, targets: List[FunctionInfo],
                    strong: bool) -> List[FunctionInfo]:
        """The targets a reachability walk may follow: every typed edge,
        or a name-fallback edge iff the name is unique."""
        if strong:
            return targets
        return targets if len(targets) == 1 else []

    # -- resolved refs (signal roots) ---------------------------------------

    def resolve_ref(self, fn: FunctionInfo,
                    ref: ast.expr) -> List[FunctionInfo]:
        """A function reference passed to ``signal.signal()``."""
        if isinstance(ref, ast.Attribute):
            receiver_t = _expr_type(ref.value, fn, self)
            if receiver_t and not receiver_t.startswith("["):
                return self.method_lookup(receiver_t, ref.attr,
                                          include_subclasses=True)
            return list(self.by_name.get(ref.attr, ()))
        if isinstance(ref, ast.Name):
            module = self.modules.get(fn.rel_path)
            if module is not None and ref.id in module.functions:
                return [module.functions[ref.id]]
            return list(self.by_name.get(ref.id, ()))
        if isinstance(ref, ast.Lambda):
            return []
        return []


def _expr_type(expr: ast.AST, fn: FunctionInfo, index: CodeIndex) -> str:
    """Static type of an expression: "T", "[T]" (element type), or ""."""
    if isinstance(expr, ast.Name):
        if expr.id == "self" and fn.cls is not None:
            return fn.cls.name
        local = fn.local_types.get(expr.id, "")
        if local:
            return local
        module = index.modules.get(fn.rel_path)
        if module is not None:
            return module.instance_types.get(expr.id, "")
        return ""
    if isinstance(expr, ast.Attribute):
        base_t = _expr_type(expr.value, fn, index)
        if base_t and not base_t.startswith("["):
            return index.attr_type(base_t, expr.attr)
        return ""
    if isinstance(expr, ast.Subscript):
        base_t = _expr_type(expr.value, fn, index)
        if base_t.startswith("[") and base_t.endswith("]"):
            return base_t[1:-1]
        return ""
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and \
                index.class_of(func.id) is not None:
            return func.id
        if isinstance(func, ast.Attribute) and \
                index.class_of(func.attr) is not None:
            return func.attr
        return ""
    return ""


# ---------------------------------------------------------------------------
# class contracts (GUARDED_BY / attribute types)
# ---------------------------------------------------------------------------

def _scan_class_contract(cls: ClassInfo, node: ast.ClassDef) -> None:
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and \
                isinstance(item.target, ast.Name):
            ann = _ann_str(item.annotation)
            if ann:
                cls.attr_types[item.target.id] = ann
            continue
        if not (isinstance(item, ast.Assign) and len(item.targets) == 1
                and isinstance(item.targets[0], ast.Name)):
            continue
        if item.targets[0].id == "GUARDED_BY" and \
                isinstance(item.value, ast.Dict):
            for key, value in zip(item.value.keys, item.value.values):
                if isinstance(key, ast.Constant) and \
                        isinstance(value, ast.Constant) and \
                        isinstance(key.value, str) and \
                        isinstance(value.value, str):
                    cls.guarded_by[key.value] = value.value


def _scan_attr_types(cls: ClassInfo, index: CodeIndex) -> None:
    """``self.x`` types from annotations and constructor assignments."""
    for method in cls.methods.values():
        params = _param_types(method.node)
        for stmt in ast.walk(method.node):
            target, value, ann = None, None, None
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Attribute) and \
                    isinstance(stmt.target.value, ast.Name) and \
                    stmt.target.value.id == "self":
                target, value, ann = stmt.target.attr, stmt.value, \
                    stmt.annotation
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Attribute) and \
                    isinstance(stmt.targets[0].value, ast.Name) and \
                    stmt.targets[0].value.id == "self":
                target, value = stmt.targets[0].attr, stmt.value
            if target is None or target in cls.attr_types:
                continue
            inferred = _ann_str(ann) if ann is not None else ""
            if not inferred and isinstance(value, ast.Call):
                func = value.func
                ctor = func.id if isinstance(func, ast.Name) else \
                    (func.attr if isinstance(func, ast.Attribute) else "")
                if ctor and index.class_of(ctor) is not None:
                    inferred = ctor
            if not inferred and isinstance(value, ast.Name):
                inferred = params.get(value.id, "")
            if inferred:
                cls.attr_types[target] = inferred


def _param_types(node: ast.AST) -> Dict[str, str]:
    out: Dict[str, str] = {}
    args = getattr(node, "args", None)
    if args is None:
        return out
    for arg in list(args.posonlyargs) + list(args.args) + \
            list(args.kwonlyargs):
        ann = _ann_str(arg.annotation)
        if ann:
            out[arg.arg] = ann
    return out


def _local_types(fn: FunctionInfo, index: CodeIndex) -> Dict[str, str]:
    """Parameter annotations plus simple typed local assignments."""
    types = _param_types(fn.node)
    fn.local_types = types
    for _ in range(2):          # two rounds: x = T(); y = x.attr
        for stmt in _walk_own(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                inferred = _expr_type(stmt.value, fn, index)
                if inferred:
                    types[stmt.targets[0].id] = inferred
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                ann = _ann_str(stmt.annotation)
                if ann:
                    types[stmt.target.id] = ann
            elif isinstance(stmt, ast.For) and \
                    isinstance(stmt.target, ast.Name):
                iter_t = _expr_type(stmt.iter, fn, index)
                if iter_t.startswith("[") and iter_t.endswith("]"):
                    types[stmt.target.id] = iter_t[1:-1]
    return types


def _walk_own(node: ast.AST):
    """ast.walk that does not descend into nested def/class bodies."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(current))


# ---------------------------------------------------------------------------
# per-function effect extraction
# ---------------------------------------------------------------------------

class _FunctionScanner:
    """One recursive pass over a body, recording stores and calls."""

    def __init__(self, fn: FunctionInfo, index: CodeIndex):
        self.fn = fn
        self.index = index
        self.module = index.modules[fn.rel_path]

    def scan(self) -> None:
        for decl in _walk_own(self.fn.node):
            if isinstance(decl, ast.Global):
                self.fn.global_decls.update(decl.names)
        for stmt in self.fn.node.body:
            self._walk(stmt)

    def _walk(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return                              # separate scope
        if isinstance(node, ast.Assign):
            const = isinstance(node.value, ast.Constant)
            for target in node.targets:
                self._record_store(target, op="assign", const=const)
            self._walk(node.value)
            for target in node.targets:
                for child in ast.iter_child_nodes(target):
                    self._walk(child)
            return
        if isinstance(node, ast.AugAssign):
            self._record_store(node.target, op="aug")
            self._walk(node.value)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                const = isinstance(node.value, ast.Constant)
                self._record_store(node.target, op="assign", const=const)
                self._walk(node.value)
            return
        if isinstance(node, ast.Call):
            self._record_call(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    # -- stores --------------------------------------------------------------

    def _record_store(self, target: ast.AST, op: str,
                      const: bool = False) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, op=op)
            return
        item_store = False
        while isinstance(target, ast.Subscript):
            target = target.value
            item_store = True
        effective_op = "item" if item_store and op == "assign" else op
        if isinstance(target, ast.Name):
            # A bare ``x = ...`` rebinding is a global write only under
            # an explicit ``global x``; subscript stores on a module
            # global (``TABLE[k] = v``) mutate it regardless.
            is_global = target.id in self.module.globals and \
                (item_store or target.id in self.fn.global_decls)
            if is_global:
                self._add_effect(Effect(
                    kind="global", owner=self.fn.rel_path,
                    name=target.id, op=effective_op, line=target.lineno,
                    const=const and not item_store))
            return
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                owner = self.fn.cls.name if self.fn.cls else ""
                self._add_effect(Effect(
                    kind="attr", owner=owner, name=target.attr,
                    op=effective_op, line=target.lineno, via_self=True,
                    const=const and not item_store))
                return
            owner_t = _expr_type(base, self.fn, self.index)
            if owner_t and not owner_t.startswith("[") and \
                    self.index.class_of(owner_t) is not None:
                self._add_effect(Effect(
                    kind="attr", owner=owner_t, name=target.attr,
                    op=effective_op, line=target.lineno,
                    const=const and not item_store))

    # -- calls ---------------------------------------------------------------

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        self._maybe_register_handler(node)
        if isinstance(func, ast.Name):
            if func.id in _BUILTIN_NAMES:
                return
            self.fn.calls.append(CallSite(
                scope="name", name=func.id, type_name="",
                line=node.lineno))
            return
        if not isinstance(func, ast.Attribute):
            return
        if _module_rooted(func.value, self.module) or (
                isinstance(func.value, ast.Attribute)
                and _module_rooted(func.value, self.module)):
            return                              # os.path.join(...) etc.
        if func.attr in MUTATOR_METHODS:
            self._record_mutator(func)
            return
        base = func.value
        if isinstance(base, ast.Name) and base.id == "self" and \
                self.fn.cls is not None:
            self.fn.calls.append(CallSite(
                scope="self", name=func.attr, type_name="",
                line=node.lineno))
            return
        receiver_t = _expr_type(base, self.fn, self.index)
        if receiver_t and not receiver_t.startswith("[") and \
                self.index.class_of(receiver_t) is not None:
            self.fn.calls.append(CallSite(
                scope="type", name=func.attr, type_name=receiver_t,
                line=node.lineno))
            return
        self.fn.calls.append(CallSite(
            scope="attr", name=func.attr, type_name="",
            line=node.lineno))

    def _record_mutator(self, func: ast.Attribute) -> None:
        recv = func.value
        while isinstance(recv, ast.Subscript):
            recv = recv.value
        if isinstance(recv, ast.Attribute):
            base = recv.value
            if isinstance(base, ast.Name) and base.id == "self":
                owner = self.fn.cls.name if self.fn.cls else ""
                self._add_effect(Effect(
                    kind="attr", owner=owner, name=recv.attr,
                    op="mutate", line=func.lineno, via_self=True,
                    detail=func.attr))
                return
            owner_t = _expr_type(base, self.fn, self.index)
            if owner_t and not owner_t.startswith("[") and \
                    self.index.class_of(owner_t) is not None:
                self._add_effect(Effect(
                    kind="attr", owner=owner_t, name=recv.attr,
                    op="mutate", line=func.lineno, detail=func.attr))
            return
        if isinstance(recv, ast.Name):
            if recv.id in self.module.globals and \
                    recv.id not in self.fn.local_types:
                self._add_effect(Effect(
                    kind="global", owner=self.fn.rel_path,
                    name=recv.id, op="mutate", line=func.lineno,
                    detail=func.attr))
                return
            # A mutator on a typed module singleton (``CLAMPS.record``
            # is a call, not a mutator) — nothing else to record here.
            return

    def _maybe_register_handler(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "signal" and \
                isinstance(func.value, ast.Name) and \
                func.value.id == "signal" and len(node.args) >= 2:
            self.fn.signal_refs.append(node.args[1])

    def _add_effect(self, effect: Effect) -> None:
        self.fn.effects.append(effect)


# ---------------------------------------------------------------------------
# index construction
# ---------------------------------------------------------------------------

def build_index(paths: Optional[Sequence[str]] = None) -> CodeIndex:
    """Parse every Python file under ``paths`` into a CodeIndex."""
    if not paths:
        paths = [default_lint_root()]
    abs_paths = [os.path.abspath(p) for p in paths]
    root = os.path.commonpath(abs_paths) if len(abs_paths) > 1 \
        else abs_paths[0]
    if os.path.isfile(root):
        root = os.path.dirname(root)

    index = CodeIndex()
    trees: List[Tuple[ModuleInfo, ast.Module]] = []
    for path in _iter_python_files(abs_paths):
        rel_path = _rel(path, root)
        index.files.append((path, rel_path))
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            index.parse_failures.append(
                (rel_path, exc.lineno or 0, exc.msg or "syntax error"))
            continue
        module = ModuleInfo(rel_path=rel_path)
        index.modules[rel_path] = module
        trees.append((module, tree))
        _collect_module(index, module, tree)

    # Subclass map + contract scan need the full class table first.
    for cls in index.classes.values():
        for base in cls.bases:
            index.subclasses.setdefault(base, []).append(cls.name)
    for module, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and \
                    node.name in module.classes:
                _scan_class_contract(module.classes[node.name], node)
    for module, _tree in trees:
        for cls in module.classes.values():
            _scan_attr_types(cls, index)

    # Effects need types; types need every class scanned — last pass.
    for fn in index.functions:
        _local_types(fn, index)
    for fn in index.functions:
        _FunctionScanner(fn, index).scan()

    for fn in index.functions:
        for ref in fn.signal_refs:
            index.signal_roots.extend(index.resolve_ref(fn, ref))
    return index


def _collect_module(index: CodeIndex, module: ModuleInfo,
                    tree: ast.Module) -> None:
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.imported_modules.add(
                    alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            module.globals.add(name)
            if isinstance(node.value, ast.Call):
                func = node.value.func
                ctor = func.id if isinstance(func, ast.Name) else \
                    (func.attr if isinstance(func, ast.Attribute) else "")
                if ctor:
                    module.instance_types[name] = ctor
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            module.globals.add(node.target.id)

    def add_function(node, cls: Optional[ClassInfo], prefix: str) -> None:
        qual = f"{prefix}{node.name}"
        fn = FunctionInfo(name=node.name, qual=qual,
                          rel_path=module.rel_path, lineno=node.lineno,
                          node=node, cls=cls)
        index.functions.append(fn)
        index.by_name.setdefault(node.name, []).append(fn)
        if cls is not None:
            cls.methods[node.name] = fn
        # Bare-name resolution inside this module sees every def,
        # including nested ones (closures registered as callbacks).
        module.functions.setdefault(node.name, fn)
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _direct_parent_scope(node, child):
                add_function(child, cls=None, prefix=f"{qual}.<locals>.")

    def add_class(node: ast.ClassDef) -> None:
        cls = ClassInfo(
            name=node.name, rel_path=module.rel_path, lineno=node.lineno,
            bases=tuple(b.id if isinstance(b, ast.Name) else
                        (b.attr if isinstance(b, ast.Attribute) else "")
                        for b in node.bases))
        module.classes[node.name] = cls
        if node.name in index.classes:
            index.ambiguous_classes.add(node.name)
        else:
            index.classes[node.name] = cls
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(item, cls=cls, prefix=f"{node.name}.")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, cls=None, prefix="")
        elif isinstance(node, ast.ClassDef):
            add_class(node)


def _direct_parent_scope(parent: ast.AST, child: ast.AST) -> bool:
    """True when ``child`` is a def nested directly in ``parent`` (not
    inside some deeper nested def/class)."""
    stack = [(parent, True)]
    while stack:
        node, direct = stack.pop()
        for sub in ast.iter_child_nodes(node):
            if sub is child:
                return direct
            nested = isinstance(sub, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef))
            stack.append((sub, direct and not nested))
    return False


# ---------------------------------------------------------------------------
# reachability the rule layer runs
# ---------------------------------------------------------------------------

def reachable(index: CodeIndex,
              roots: Iterable[FunctionInfo]) -> List[FunctionInfo]:
    """Every function reachable from ``roots`` over traversable edges,
    the roots included, in discovery order."""
    seen: Set[int] = set()
    stack = list(roots)
    out: List[FunctionInfo] = []
    while stack:
        fn = stack.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        out.append(fn)
        for site in fn.calls:
            targets, strong = index.resolve_call(fn, site)
            stack.extend(index.traversable(targets, strong))
    return out


def signal_reachable(index: CodeIndex) -> Set[FunctionInfo]:
    """Signal context: every registered handler and what it may call."""
    return set(reachable(index, index.signal_roots))


def transitive_effects(index: CodeIndex,
                       root: FunctionInfo) -> List[Tuple[FunctionInfo,
                                                         Effect]]:
    """Every effect reachable from ``root`` over traversable edges."""
    return [(fn, effect) for fn in reachable(index, [root])
            for effect in fn.effects]

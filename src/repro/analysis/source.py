"""One parsed model of a component module, read by every static pass.

The Cactus Configuration Language keeps one spec per thorn that every
check reads.  This module is that spec for ``repro`` component source:
each module is parsed here, once, into a :class:`ModuleModel`, and the
passes query it instead of walking the AST themselves.

Per class (:class:`ClassModel`):

* port traffic — ``register_uses_port``/``add_provides_port``
  registrations (and those made outside ``set_services``), ``get_port``
  fetches with their guard state, ``release_port`` names — read by the
  RA1xx lifecycle pass and, through
  :func:`repro.analysis.lifecycle.class_fetch_profile`, by wiring;
* parameter reads — name, type, literal default, reads under computed
  keys, and the reads of same-module helper classes attributed to the
  component that instantiates them — read by the RA40x manifest pass;
* mutable class attributes and the rank-executed step methods, with the
  one ``global``/``self.attr`` pre-pass per method (:class:`Method`) —
  read by the RA2xx and RA3xx passes through :func:`shared_writes`, the
  one classifier of "which shared object does this statement write".

Per module: the mutable module-level bindings and the one
``# scmd: shared`` pragma rule, :meth:`ModuleModel.pragma`.

:func:`parse_module` builds a model from text (the only ``ast.parse``
under :mod:`repro.analysis`); :func:`model_of` finds a live class's
model from its module source (the only source loader), cached per file.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.findings import Finding, finding

#: the pragma marking a statement intentionally SCMD-shared: optional
#: space after ``#`` and around the colon; anything may follow.
_PRAGMA_RE = re.compile(r"#\s*scmd\s*:\s*shared\b")

#: rank-executed entry points whose writes to shared state race.
STEP_METHODS = frozenset({
    "go", "run", "step", "advance", "integrate", "apply", "exchange",
    "regrid", "initialize",
})

#: constructor names producing mutable containers.
_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "bytearray", "defaultdict", "deque",
    "Counter", "OrderedDict",
    "zeros", "ones", "empty", "full", "array", "arange", "linspace",
    "zeros_like", "ones_like", "empty_like", "full_like",
})

#: method calls that mutate their receiver.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse", "fill",
})

#: exception names accepted as a get_port guard in ``except`` clauses.
_GUARD_EXCEPTIONS = {
    "PortNotConnectedError", "CCAError", "ReproError", "Exception",
}

#: Options/Services accessor -> declared type implied by the accessor.
_ACCESSOR_TYPES = {
    "get_float": "float", "get_int": "int", "get_bool": "bool",
    "get_str": "str", "get_parameter": "any", "get": "any",
    "require": "any",
}

#: builtins whose wrapping call pins the read's type.
_CAST_TYPES = {"float": "float", "int": "int", "str": "str", "bool": "bool"}


# --------------------------------------------------------------------------
# the model
# --------------------------------------------------------------------------
@dataclass
class Fetch:
    """One ``get_port`` occurrence."""

    name: str
    line: int
    guarded: bool


@dataclass
class ParamRead:
    """One statically visible parameter read (merged per name)."""

    name: str
    type: str = "any"
    default: Any = None
    has_default: bool = False


def _add_read(params: dict[str, ParamRead], read: ParamRead) -> None:
    """Merge ``read`` into ``params``: the most specific type and the
    first literal default win."""
    prior = params.get(read.name)
    if prior is None:
        params[read.name] = dataclasses.replace(read)
        return
    if prior.type == "any":
        prior.type = read.type
    if not prior.has_default and read.has_default:
        prior.default, prior.has_default = read.default, True


@dataclass
class Method:
    """One method of a class, with its per-method pre-pass."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: names declared ``global`` anywhere in the method
    globals: set[str] = field(default_factory=set)
    #: ``self.attr = ...`` plain stores: they shadow the class attribute
    #: with an instance attribute, so ``self.attr`` is private after one
    shadowed: set[str] = field(default_factory=set)
    #: local names bound from a ``...parameters`` expression
    param_bags: set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassModel:
    """Everything the static passes know about one class statement."""

    name: str
    module: "ModuleModel" = field(repr=False)
    methods: list[Method] = field(default_factory=list)
    has_set_services: bool = False
    uses: dict[str, int] = field(default_factory=dict)       # name -> line
    provides: dict[str, int] = field(default_factory=dict)   # name -> line
    fetches: list[Fetch] = field(default_factory=list)
    releases: set[str] = field(default_factory=set)
    #: (kind, name, line, method) registrations outside set_services
    stray_registrations: list[tuple[str, str, int, str]] = \
        field(default_factory=list)
    nonliteral_fetches: list[int] = field(default_factory=list)
    params: dict[str, ParamRead] = field(default_factory=dict)
    #: a parameter read under a computed key (f-strings, variables)
    dynamic_reads: bool = False
    #: names of same-module classes instantiated inside this class body
    helper_calls: set[str] = field(default_factory=set)
    #: every mutable class-attribute binding, in source order
    mutable_bindings: list[tuple[str, ast.stmt]] = \
        field(default_factory=list)
    #: attribute -> its first mutable binding
    mutables: dict[str, ast.stmt] = field(default_factory=dict)

    @property
    def step_methods(self) -> list[Method]:
        return [m for m in self.methods if m.name in STEP_METHODS]

    @property
    def scmd_shared(self) -> list[str]:
        """Mutable class attributes carrying the ``# scmd: shared``
        pragma."""
        return sorted(a for a, stmt in self.mutables.items()
                      if self.module.pragma(stmt))

    def writes(self, method: Method) -> list["SharedWrite"]:
        """Every shared write anywhere in ``method`` (nested defs too)."""
        return [w for node in ast.walk(method.node)
                for w in shared_writes(node, self, method)]


@dataclass
class ModuleModel:
    """One parsed module: its classes and its shared bindings."""

    path: str
    lines: list[str]
    classes: list[ClassModel] = field(default_factory=list)
    #: every mutable module-level binding, in source order
    mutable_bindings: list[tuple[str, ast.stmt]] = \
        field(default_factory=list)
    #: name -> its first mutable module-level binding
    mutables: dict[str, ast.stmt] = field(default_factory=dict)
    class_names: set[str] = field(default_factory=set)

    def cls(self, name: str) -> ClassModel | None:
        return next((c for c in self.classes if c.name == name), None)

    def pragma(self, node: ast.AST) -> bool:
        """The one pragma rule: ``# scmd: shared`` on *any* line the
        node spans — a multi-line literal can carry it on its closing
        brace just as well as on the opening line."""
        first = node.lineno
        last = getattr(node, "end_lineno", None) or first
        return any(_PRAGMA_RE.search(line)
                   for line in self.lines[first - 1:last])


# --------------------------------------------------------------------------
# building
# --------------------------------------------------------------------------
def _arg(call: ast.Call, pos: int, kw: str) -> ast.expr | None:
    """The argument at positional ``pos`` or keyword ``kw``."""
    if len(call.args) > pos:
        return call.args[pos]
    for k in call.keywords:
        if k.arg == kw:
            return k.value
    return None


def _str_arg(call: ast.Call, pos: int, kw: str) -> str | None:
    node = _arg(call, pos, kw)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        return name in _MUTABLE_CALLS
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        # [0] * n style preallocation
        return _is_mutable_value(node.left) or _is_mutable_value(node.right)
    return False


def _mutable_bindings(body: list[ast.stmt]) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for plain-name bindings of mutable values."""
    out: list[tuple[str, ast.stmt]] = []
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            pairs = [(t.id, stmt.value) for t in stmt.targets
                     if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            pairs = [(stmt.target.id, stmt.value)]
        else:
            continue
        out.extend((name, stmt) for name, value in pairs
                   if value is not None and _is_mutable_value(value))
    return out


def _first_bindings(bindings: list[tuple[str, ast.stmt]]
                    ) -> dict[str, ast.stmt]:
    out: dict[str, ast.stmt] = {}
    for name, stmt in bindings:
        out.setdefault(name, stmt)
    return out


def _catches_guard(handler: ast.ExceptHandler) -> bool:
    """Does this except clause catch a port-not-connected style error?"""
    if handler.type is None:  # bare except
        return True
    t = handler.type
    names = {n.id if isinstance(n, ast.Name) else n.attr
             for n in (t.elts if isinstance(t, ast.Tuple) else [t])
             if isinstance(n, (ast.Name, ast.Attribute))}
    return bool(_GUARD_EXCEPTIONS & names)


def _is_connected_names(test: ast.expr) -> frozenset[str]:
    """Port literals appearing in ``is_connected("x")`` calls in a test."""
    return frozenset(
        name for node in ast.walk(test)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "is_connected"
        and (name := _str_arg(node, 0, "port_name")))


def _literal_type(value: Any) -> str:
    for py, name in ((bool, "bool"), (int, "int"), (float, "float"),
                     (str, "str")):
        if isinstance(value, py):
            return name
    return "any"


def _method(node: ast.FunctionDef | ast.AsyncFunctionDef) -> Method:
    """The per-method pre-pass: ``global`` names, ``self.attr`` shadows
    and parameters-bag locals."""
    m = Method(node)
    for inner in ast.walk(node):
        if isinstance(inner, ast.Global):
            m.globals.update(inner.names)
        elif isinstance(inner, ast.Assign):
            for t in inner.targets:
                if isinstance(t, ast.Attribute) and \
                        isinstance(t.value, ast.Name) and \
                        t.value.id == "self":
                    m.shadowed.add(t.attr)
                elif isinstance(t, ast.Name) and \
                        isinstance(inner.value, ast.Attribute) and \
                        inner.value.attr == "parameters":
                    m.param_bags.add(t.id)
    return m


class _MethodScanner:
    """Walks one method, tracking the get_port guard context, and
    records its port traffic and parameter reads on the class."""

    def __init__(self, cls: ClassModel, method: Method,
                 cast_of: dict[int, str]) -> None:
        self.cls = cls
        self.method = method
        self.cast_of = cast_of

    def scan(self) -> None:
        self._walk(self.method.node, False, frozenset())

    def _walk(self, node: ast.AST, guarded: bool,
              guarded_names: frozenset[str]) -> None:
        if isinstance(node, ast.ClassDef):
            return  # nested classes are modelled as their own scope
        if isinstance(node, ast.Try):
            has_guard = any(_catches_guard(h) for h in node.handlers)
            for stmt in node.body:
                self._walk(stmt, guarded or has_guard, guarded_names)
            for part in node.handlers + node.orelse + node.finalbody:
                self._walk(part, guarded, guarded_names)
            return
        if isinstance(node, ast.If):
            self._walk(node.test, guarded, guarded_names)
            inner = guarded_names | _is_connected_names(node.test)
            for stmt in node.body:
                self._walk(stmt, guarded, inner)
            for stmt in node.orelse:
                self._walk(stmt, guarded, guarded_names)
            return
        if isinstance(node, ast.Call):
            self._record(node, guarded, guarded_names)
        for child in ast.iter_child_nodes(node):
            self._walk(child, guarded, guarded_names)

    def _record(self, call: ast.Call, guarded: bool,
                guarded_names: frozenset[str]) -> None:
        cls, func = self.cls, call.func
        if isinstance(func, ast.Name) and func.id in cls.module.class_names:
            cls.helper_calls.add(func.id)
            return
        if not isinstance(func, ast.Attribute):
            return
        kind = func.attr
        if kind in ("register_uses_port", "add_provides_port"):
            provides = kind == "add_provides_port"
            name = _str_arg(call, 1 if provides else 0, "port_name")
            if name is None:
                return
            (cls.provides if provides else cls.uses).setdefault(
                name, call.lineno)
            if self.method.name != "set_services":
                cls.stray_registrations.append(
                    (kind, name, call.lineno, self.method.name))
        elif kind == "get_port":
            name = _str_arg(call, 0, "port_name")
            if name is None:
                cls.nonliteral_fetches.append(call.lineno)
            else:
                cls.fetches.append(Fetch(
                    name, call.lineno, guarded or name in guarded_names))
        elif kind == "release_port":
            name = _str_arg(call, 0, "port_name")
            if name is not None:
                cls.releases.add(name)
        elif kind in _ACCESSOR_TYPES:
            self._record_param(call, kind)

    def _record_param(self, call: ast.Call, accessor: str) -> None:
        recv = call.func.value  # type: ignore[attr-defined]
        if accessor in ("get", "require") and not (
                isinstance(recv, ast.Attribute) and recv.attr == "parameters"
                or isinstance(recv, ast.Name)
                and recv.id in self.method.param_bags):
            return  # a dict/other .get, not a parameters bag
        key = _arg(call, 0, "key")
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            self.cls.dynamic_reads = True
            return
        read = ParamRead(key.value, _ACCESSOR_TYPES[accessor])
        if read.type == "any":
            read.type = self.cast_of.get(id(call), "any")
        default = _arg(call, 1, "default")
        if isinstance(default, ast.Constant) and default.value is not None:
            read.default, read.has_default = default.value, True
            if read.type == "any":
                read.type = _literal_type(default.value)
        _add_read(self.cls.params, read)


def parse_module(text: str, path: str = "<source>") -> ModuleModel:
    """Parse one module's source into its model (raises SyntaxError)."""
    tree = ast.parse(text, filename=path)
    module_bindings = _mutable_bindings(tree.body)
    model = ModuleModel(path=path, lines=text.splitlines(),
                        mutable_bindings=module_bindings,
                        mutables=_first_bindings(module_bindings))
    # casts wrapping a call — float(services.get_parameter(...))
    cast_of: dict[int, str] = {}
    class_defs: list[ast.ClassDef] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            class_defs.append(node)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in _CAST_TYPES and len(node.args) == 1 and \
                isinstance(node.args[0], ast.Call):
            cast_of[id(node.args[0])] = _CAST_TYPES[node.func.id]
    model.class_names = {node.name for node in class_defs}
    for node in class_defs:
        bindings = _mutable_bindings(node.body)
        cls = ClassModel(name=node.name, module=model,
                         mutable_bindings=bindings,
                         mutables=_first_bindings(bindings))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = _method(stmt)
                cls.methods.append(method)
                cls.has_set_services |= stmt.name == "set_services"
                _MethodScanner(cls, method, cast_of).scan()
        model.classes.append(cls)
    _attribute_helper_params(model.classes)
    return model


def _attribute_helper_params(classes: list[ClassModel]) -> None:
    """Credit helper-class parameter reads (the port implementations
    that close over ``owner.services``) to the component classes that
    instantiate them; a helper no component instantiates falls back to
    every component class in the module."""
    components = [c for c in classes if c.has_set_services]
    for helper in classes:
        if helper.has_set_services:
            continue
        owners = [c for c in components if helper.name in c.helper_calls]
        for comp in owners or components:
            for read in helper.params.values():
                _add_read(comp.params, read)
            comp.dynamic_reads |= helper.dynamic_reads


_MODELS: dict[str, tuple[str, ModuleModel | None]] = {}


def model_of(cls: type) -> ClassModel | None:
    """The model of a live class, from its module's source.

    Cached per module file (re-parsed only when the source text
    changes).  None when the source is unavailable — dynamically
    created classes, modules without a file — or does not parse.
    """
    module = inspect.getmodule(cls)
    path = getattr(module, "__file__", None)
    if path is None:
        return None
    try:
        text = inspect.getsource(module)
    except (OSError, TypeError):
        return None
    cached = _MODELS.get(path)
    if cached is None or cached[0] != text:
        try:
            cached = (text, parse_module(text, path))
        except SyntaxError:
            cached = (text, None)
        _MODELS[path] = cached
    model = cached[1]
    return model.cls(cls.__name__) if model is not None else None


def syntax_finding(exc: SyntaxError, path: str) -> Finding:
    """The RA001 finding for a source file that does not parse."""
    return finding("RA001", f"not parseable as Python: {exc.msg}",
                   path=path, line=exc.lineno)


# --------------------------------------------------------------------------
# the shared-write classifier (RA203, RA301/RA302, RA307)
# --------------------------------------------------------------------------
@dataclass
class SharedWrite:
    """One write to a shared object (module global or class attribute)."""

    #: the writing statement, or the mutating call
    node: ast.AST
    #: the shared binding written
    name: str
    #: how it is written, as the RA203 message words it
    what: str
    #: an augmented assignment (``+=``)
    accum: bool = False
    #: the mutating method, for ``obj.append(...)``-style writes
    method: str | None = None


def _shared_ref(expr: ast.expr, cls: ClassModel,
                method: Method) -> tuple[str, str, str] | None:
    """``(name, kind, spelling)`` when ``expr`` names a shared object.

    ``kind`` is ``module`` (a module-level mutable), ``class``
    (``Cls.attr``), ``via`` (``...__class__.attr``) or ``self``
    (``self.attr`` on a class-level mutable no instance store shadows).
    """
    if isinstance(expr, ast.Name):
        if expr.id in cls.module.mutables:
            return expr.id, "module", expr.id
        return None
    if not isinstance(expr, ast.Attribute):
        return None
    owner, attr = expr.value, expr.attr
    if isinstance(owner, ast.Name) and owner.id in cls.module.class_names:
        return attr, "class", f"{owner.id}.{attr}"
    if isinstance(owner, ast.Attribute) and owner.attr == "__class__":
        return attr, "via", f"__class__.{attr}"
    if isinstance(owner, ast.Name) and owner.id == "self" and \
            attr in cls.mutables and attr not in method.shadowed:
        return attr, "self", f"self.{attr}"
    return None


def shared_writes(node: ast.AST, cls: ClassModel,
                  method: Method) -> list[SharedWrite]:
    """The shared objects one statement or call writes.

    Mutation is caught in every spelling: direct assignment, subscript
    stores, augmented assignment (``Cls.cache += ...``,
    ``self.tallies[k] += 1`` on a class-level dict), ``global`` rebinds,
    and mutating method calls (``Cls.seen.add(...)``,
    ``self.history.append(...)``, ``__class__.cfg.update(...)``).
    """
    if isinstance(node, ast.Call):
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS):
            return []
        ref = _shared_ref(func.value, cls, method)
        if ref is None:
            return []
        name, kind, spelled = ref
        where = {"module": "module-level state",
                 "self": f"a class-level mutable of {cls.name}",
                 }.get(kind, "a class-level mutable")
        return [SharedWrite(node, name,
                            f"calls {spelled}.{func.attr}() on {where}",
                            method=func.attr)]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    accum = isinstance(node, ast.AugAssign)
    out: list[SharedWrite] = []
    for t in targets:
        hit = _target_write(t, accum, cls, method)
        if hit is not None:
            out.append(SharedWrite(node, *hit, accum=accum))
    return out


def _target_write(t: ast.expr, accum: bool, cls: ClassModel,
                  method: Method) -> tuple[str, str] | None:
    """``(name, what)`` when assignment target ``t`` writes a shared
    object."""
    if isinstance(t, ast.Name):
        if t.id in method.globals:
            return t.id, f"rebinds module global {t.id!r}"
        return None
    if not isinstance(t, (ast.Attribute, ast.Subscript)):
        return None
    ref = _shared_ref(t if isinstance(t, ast.Attribute) else t.value,
                      cls, method)
    if ref is None:
        return None
    name, kind, spelled = ref
    of = f"a class-level mutable of {cls.name}"
    if isinstance(t, ast.Subscript):
        return name, {
            "module": f"writes into module-level {name!r}",
            "class": f"writes into class attribute {spelled}",
            "via": f"writes into class attribute via {spelled}",
            "self": f"writes into {spelled} — {of}",
        }[kind]
    if kind != "self":
        via = "via " if kind == "via" else ""
        return name, f"assigns class attribute {via}{spelled}"
    # self.attr += ... mutates the shared class-level container in place
    # (no instance shadow is created for lists/arrays; dict += is a
    # TypeError anyway); a plain store would shadow it instead
    return (name, f"augments {spelled} — {of}") if accum else None

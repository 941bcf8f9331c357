"""SCMD race detector, static layer (RA301–RA308).

:mod:`repro.analysis.scmd_safety` lints for state that *aliases* across
rank-threads; this pass goes one step further and reasons about the
*ordering* of accesses with a happens-before approximation tuned to the
SCMD execution model of :func:`repro.mpi.launcher.mpirun`:

* All P rank-threads execute the same component code, so a write that is
  **not** guarded by a rank test executes on every rank-thread.  Inside
  one address space, barriers and collectives do **not** help such a
  write: every rank writes the same shared object between the same pair
  of collectives, i.e. concurrently.  Only a rank guard
  (``if comm.rank == 0:``) serializes it — followed by a collective to
  publish the result.
* A *rank-guarded* write is ordered, but other ranks only observe it
  after an ordering collective; a guarded write with no subsequent
  collective in the same method is a stale-read hazard.
* A collective inside a rank-dependent branch is executed by a subset of
  ranks — the others never arrive, and the rendezvous in
  ``repro.mpi.comm`` deadlocks (then times out).

The per-component write sets are the RA2xx ones, from the source model
(:func:`repro.analysis.source.shared_writes`); patch arrays are tracked
through the GrACE/Hierarchy accessor surface (``dobj.array(p)`` writes
inside loops over ``.patches``).  The rc-script checks (RA306/RA307)
read the script's :class:`~repro.analysis.contracts.AssemblyModel`.

Findings
--------
* ``RA301`` (error) — unguarded write to a shared object in rank code:
  every rank-thread races on one object; no collective orders it.
* ``RA302`` (error) — reduction/accumulation (``+=``, ``.append``,
  ``.update`` …) into a shared object outside a collective; use
  ``comm.allreduce``/``comm.reduce`` instead.
* ``RA303`` (warning) — rank-guarded shared write never published by a
  later collective in the same method (stale reads on other ranks).
* ``RA304`` (warning) — patch-array write inside a loop over *all*
  patches with no owner guard; iterate ``owned_patches()`` or test
  ``patch.owner == rank``.
* ``RA305`` (error) — collective call inside a rank-dependent branch:
  only a subset of ranks arrives, so the rendezvous hangs.
* ``RA306`` (error) — rc-script ``parameter`` directive after ``go``:
  connect-time configuration mutated after the run started (the wiring
  pass's RA009 covers late ``connect``; this covers late ``parameter``).
* ``RA307`` (warning) — the same shared object is written through two
  or more instances reachable from the script's ``go`` targets.
* ``RA308`` (info) — rank code reads a shared mutable; benign until
  someone writes it, so it is surfaced for review only.

The ``# scmd: shared`` pragma and the SCMD allowlist suppress RA30x on
the same terms as the RA2xx pass.
"""

from __future__ import annotations

import ast
from typing import Sequence, Type

from repro.analysis.contracts import model_from_script
from repro.analysis.findings import Finding, finding
from repro.analysis.scmd_safety import (
    DEFAULT_ALLOWLIST,
    PRAGMA,
    _CONSTANT_NAME,
)
from repro.analysis.source import (ClassModel, Method, ModuleModel,
                                   SharedWrite, model_of, parse_module,
                                   shared_writes)
from repro.cca.component import Component

#: rendezvous operations in :class:`repro.mpi.comm.Comm` — every rank
#: must arrive, and arrival orders the participants' clocks.
COLLECTIVES = frozenset({
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "alltoall", "scatter",
})

#: accumulate-style mutators: their use on a shared object is a
#: hand-rolled reduction (RA302) rather than a plain racy store (RA301).
_ACCUMULATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
})

#: accessor method names that hand back owner-filtered patch sequences —
#: loops over these need no explicit owner guard.
_OWNED_ITERATORS = frozenset({"owned_patches"})


def _mentions_rank(expr: ast.AST) -> bool:
    """Does the expression read a rank id (``comm.rank``, ``self.rank()``,
    a bare ``rank`` local)?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        if isinstance(node, ast.Name) and node.id == "rank":
            return True
    return False


def _is_owner_guard(test: ast.expr) -> bool:
    """``p.owner == rank`` style test (any compare touching ``.owner``)."""
    return any(isinstance(n, ast.Attribute) and n.attr == "owner"
               for n in ast.walk(test))


def _is_collective_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Attribute) and \
        node.func.attr in COLLECTIVES


class _MethodScanner:
    """One rank-executed method: write/read sets vs. ordering points."""

    def __init__(self, cls: ClassModel, method: Method,
                 allowlist: frozenset[str]) -> None:
        self.cls = cls
        self.model = cls.module
        self.class_name = cls.name
        self.method = method
        self.allowlist = allowlist
        self.out: list[Finding] = []
        #: linenos of collectives executed by *all* ranks (unguarded)
        self.uniform_collectives: list[int] = []
        #: rank-guarded shared writes, for RA303
        self.guarded_writes: list[SharedWrite] = []

    # -- emit helpers ------------------------------------------------------
    def flag(self, code: str, node: ast.AST, message: str,
             target: str | None = None) -> None:
        if self.model.pragma(node):
            return
        if target is not None and target in self.allowlist:
            return
        self.out.append(finding(
            code, message, path=self.model.path, line=node.lineno,
            context=self.class_name))

    # -- walk --------------------------------------------------------------
    def scan(self) -> list[Finding]:
        self._scan_block(self.method.node.body, rank_guarded=False,
                         patch_var=None, owner_ok=False)
        self._check_unpublished()
        return self.out

    def _scan_block(self, stmts: Sequence[ast.stmt], *, rank_guarded: bool,
                    patch_var: str | None, owner_ok: bool) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, rank_guarded=rank_guarded,
                            patch_var=patch_var, owner_ok=owner_ok)

    def _scan_stmt(self, stmt: ast.stmt, *, rank_guarded: bool,
                   patch_var: str | None, owner_ok: bool) -> None:
        if isinstance(stmt, ast.If):
            # The owner-guard test comes first: `p.owner == rank` mentions
            # rank too, but it is the sanctioned RA304 fix, not a
            # rank-subset branch.
            if patch_var is not None and _is_owner_guard(stmt.test):
                self._scan_block(stmt.body, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=True)
                self._scan_block(stmt.orelse, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            elif _mentions_rank(stmt.test):
                self._flag_collectives_in_branch(stmt)
                self._scan_block(stmt.body, rank_guarded=True,
                                 patch_var=patch_var, owner_ok=owner_ok)
                self._scan_block(stmt.orelse, rank_guarded=True,
                                 patch_var=patch_var, owner_ok=owner_ok)
            else:
                self._scan_block(stmt.body, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
                self._scan_block(stmt.orelse, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            self._scan_expr_parts(stmt.test, rank_guarded)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            pv, po = patch_var, owner_ok
            it = stmt.iter
            if isinstance(it, ast.Attribute) and it.attr == "patches" and \
                    isinstance(stmt.target, ast.Name):
                pv, po = stmt.target.id, False
            elif isinstance(it, ast.Call) and \
                    isinstance(it.func, ast.Attribute) and \
                    it.func.attr in _OWNED_ITERATORS and \
                    isinstance(stmt.target, ast.Name):
                pv, po = stmt.target.id, True
            self._scan_block(stmt.body, rank_guarded=rank_guarded,
                             patch_var=pv, owner_ok=po)
            self._scan_block(stmt.orelse, rank_guarded=rank_guarded,
                             patch_var=patch_var, owner_ok=owner_ok)
            return
        if isinstance(stmt, (ast.While, ast.With, ast.AsyncWith)):
            body = stmt.body
            self._scan_block(body, rank_guarded=rank_guarded,
                             patch_var=patch_var, owner_ok=owner_ok)
            if isinstance(stmt, ast.While):
                self._scan_block(stmt.orelse, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            return
        if isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                self._scan_block(block, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            for handler in stmt.handlers:
                self._scan_block(handler.body, rank_guarded=rank_guarded,
                                 patch_var=patch_var, owner_ok=owner_ok)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are not rank-path statements

        # -- leaf statement: shared writes, patch writes, collectives ------
        written: set[str] = set()
        for node in ast.walk(stmt):
            for w in shared_writes(node, self.cls, self.method):
                written.add(w.name)
                self._record_write(w, rank_guarded)
            if _is_collective_call(node) and not rank_guarded:
                self.uniform_collectives.append(node.lineno)
        self._check_patch_write(stmt, patch_var, owner_ok)
        self._check_shared_reads(stmt, written)

    def _scan_expr_parts(self, expr: ast.expr, rank_guarded: bool) -> None:
        # a collective used *inside* a rank test is itself rank-dependent
        # only for the branch body; the test runs on every rank.
        for node in ast.walk(expr):
            if _is_collective_call(node) and not rank_guarded:
                self.uniform_collectives.append(node.lineno)

    # -- checks ------------------------------------------------------------
    def _record_write(self, w: SharedWrite, rank_guarded: bool) -> None:
        node, name = w.node, w.name
        if name in self.allowlist:
            return
        where = f"{self.class_name}.{self.method.name}"
        if rank_guarded:
            self.guarded_writes.append(w)
            return
        spelled = f".{w.method}()" if w.method else ""
        if w.accum or w.method in _ACCUMULATORS:
            self.flag(
                "RA302", node,
                f"{where} accumulates into shared {name!r}{spelled} on "
                f"every rank-thread — a hand-rolled reduction outside a "
                f"collective; use comm.allreduce/comm.reduce, or guard "
                f"with a rank test and publish via bcast",
                target=name)
        else:
            self.flag(
                "RA301", node,
                f"{where} writes shared {name!r} from every rank-thread "
                f"with no ordering — barriers cannot serialize identical "
                f"writes; guard with a rank test or make it per-rank "
                f"state (or mark '{PRAGMA}')",
                target=name)

    def _flag_collectives_in_branch(self, stmt: ast.If) -> None:
        for block in (stmt.body, stmt.orelse):
            for inner in block:
                for node in ast.walk(inner):
                    if _is_collective_call(node):
                        assert isinstance(node, ast.Call)
                        assert isinstance(node.func, ast.Attribute)
                        self.flag(
                            "RA305", node,
                            f"collective {node.func.attr}() inside a "
                            f"rank-dependent branch of "
                            f"{self.class_name}.{self.method.name} — "
                            f"ranks not taking this branch never arrive "
                            f"and the rendezvous deadlocks; hoist the "
                            f"collective out of the rank test")

    def _check_unpublished(self) -> None:
        for w in self.guarded_writes:
            if any(c > w.node.lineno for c in self.uniform_collectives):
                continue
            self.flag(
                "RA303", w.node,
                f"{self.class_name}.{self.method.name} writes shared "
                f"{w.name!r} under a rank guard but no collective follows "
                f"in this method — other ranks can read the stale value; "
                f"publish with bcast/allreduce or a barrier")

    def _check_patch_write(self, stmt: ast.stmt, patch_var: str | None,
                           owner_ok: bool) -> None:
        if patch_var is None or owner_ok:
            return
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        for t in targets:
            if not isinstance(t, ast.Subscript):
                continue
            base = t.value
            # dobj.array(p)[...] = ...  — writing through the accessor
            if isinstance(base, ast.Call) and \
                    isinstance(base.func, ast.Attribute) and \
                    base.func.attr == "array" and \
                    any(isinstance(a, ast.Name) and a.id == patch_var
                        for a in base.args):
                self.flag(
                    "RA304", stmt,
                    f"{self.class_name}.{self.method.name} writes a "
                    f"patch array inside a loop over *all* patches with "
                    f"no owner guard — every rank writes every patch; "
                    f"iterate owned_patches() or test "
                    f"{patch_var}.owner == rank first")

    def _check_shared_reads(self, stmt: ast.stmt,
                            written: set[str]) -> None:
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Name) and
                    isinstance(node.ctx, ast.Load)):
                continue
            name = node.id
            if name not in self.model.mutables or \
                    name in written or \
                    name in self.allowlist or \
                    _CONSTANT_NAME.match(name):
                continue
            self.flag(
                "RA308", node,
                f"{self.class_name}.{self.method.name} reads shared "
                f"module-level {name!r} in rank code — benign until "
                f"some rank writes it; consider making it per-instance",
                target=name)
            return  # one note per statement is enough


def analyze_source_races(text: str, path: str = "<source>",
                         allowlist: frozenset[str] = DEFAULT_ALLOWLIST,
                         ) -> list[Finding]:
    """Run the static race pass over one Python source text."""
    try:
        model = parse_module(text, path)
    except SyntaxError:
        return []  # scmd_safety already reports RA001 for this file
    return analyze_model_races(model, allowlist)


def analyze_model_races(model: ModuleModel,
                        allowlist: frozenset[str] = DEFAULT_ALLOWLIST,
                        ) -> list[Finding]:
    """RA301-RA305 and RA308 over one parsed module."""
    out: list[Finding] = []
    for cls in model.classes:
        for method in cls.step_methods:
            out.extend(_MethodScanner(cls, method, allowlist).scan())
    return out


def analyze_file_races(path: str,
                       allowlist: frozenset[str] = DEFAULT_ALLOWLIST,
                       ) -> list[Finding]:
    with open(path, encoding="utf-8") as fh:
        return analyze_source_races(fh.read(), path, allowlist)


# ---------------------------------------------------------------- rc-scripts
def _class_write_keys(cls: Type[Component]) -> set[str]:
    """Shared-object keys written by ``cls``'s rank-executed methods.

    Keys are ``module:global`` for module-level mutables and
    ``Class.attr`` for class attributes, so two instances of different
    classes in one module still collide on the module global.
    """
    model = model_of(cls)
    if model is None:
        return set()
    class_attrs = {a for c in model.module.classes for a in c.mutables}
    keys: set[str] = set()
    for method in model.step_methods:
        for w in model.writes(method):
            if w.name in DEFAULT_ALLOWLIST:
                continue
            if w.method is None:
                own = w.name in model.mutables or w.name in class_attrs
            elif w.name in model.mutables:
                own = True
            elif w.name in model.module.mutables:
                own = False
            else:
                continue
            keys.add(f"{model.name}.{w.name}" if own
                     else f"{cls.__module__}:{w.name}")
    return keys


def analyze_script_races(text: str,
                         classes: Sequence[Type[Component]] | None = None,
                         path: str = "<script>") -> list[Finding]:
    """Happens-before checks over the rc-script wiring graph.

    ``RA306``: ``parameter`` after the first ``go`` mutates connect-time
    configuration the running assembly already consumed.  ``RA307``: the
    same shared object is written by two or more instances reachable
    from the union of all ``go`` targets — in SCMD mode those instances
    run on every rank-thread, so the writes race through two proxies.
    Both read the script's :class:`~repro.analysis.contracts.AssemblyModel`.
    """
    from repro.analysis.wiring import default_classes

    out: list[Finding] = []
    model = model_from_script(text, path)
    first_go = model.first_go
    if first_go is not None:
        for inst, key, _value, line, raw in model.parameters:
            if line > first_go:
                out.append(finding(
                    "RA306",
                    f"parameter {inst} {key} {raw} on line {line} "
                    f"runs after go (line {first_go}) — connect-time "
                    f"configuration mutated once ranks are stepping",
                    path=path, line=line, context=inst))

    # -- RA307: shared write keys reachable through >= 2 instances --------
    registry = {cls.__name__: cls
                for cls in (classes if classes is not None
                            else default_classes())}
    writers: dict[str, list[str]] = {}
    for inst in sorted(model.reachable()):
        cls = registry.get(model.instances.get(inst, ""))
        if cls is None:
            continue
        for key in _class_write_keys(cls):
            writers.setdefault(key, []).append(inst)
    for key in sorted(writers):
        insts = writers[key]
        if len(insts) < 2:
            continue
        out.append(finding(
            "RA307",
            f"shared object {key} is written through "
            f"{len(insts)} go-reachable instances "
            f"({', '.join(insts)}) — one object, many writers, no "
            f"ordering between their step methods",
            path=path, context=insts[0]))
    return out


def analyze_script_file_races(
        path: str,
        classes: Sequence[Type[Component]] | None = None,
        ) -> list[Finding]:
    with open(path, encoding="utf-8") as fh:
        return analyze_script_races(fh.read(), classes, path)

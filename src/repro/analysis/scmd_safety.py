"""SCMD shared-state analyzer.

:func:`repro.mpi.launcher.mpirun` runs the P "processors" of an SCMD job
as rank-threads inside one Python process.  Real MPI ranks get private
address spaces for free; our rank-threads do **not** — any module-level
mutable object or mutated class attribute is silently shared across
ranks, the exact hazard the paper's per-process frameworks avoid.  This
pass flags that state without importing anything, from the mutable
bindings and shared writes of :mod:`repro.analysis.source`:

* ``RA201`` — module-level mutable bound to a non-constant-style name.
* ``RA202`` — mutable class attribute (shared by every instance on every
  rank-thread).
* ``RA203`` — class attribute or module global *mutated* inside a
  ``go``/``run``/``step``-style method — the write races across ranks.
  Every spelling :func:`repro.analysis.source.shared_writes` knows
  counts: assignment, subscript stores, ``+=``, ``global`` rebinds and
  mutating method calls (``Cls.seen.add(...)``,
  ``self.history.append(...)``).
* ``RA204`` — module-level mutable bound to a CONSTANT_STYLE name
  (read-only by convention; reported as info so reviewers see it).

Allowlist: intentionally shared singletons — loggers, the tracing
module, metric registries — are exempt by name
(:data:`DEFAULT_ALLOWLIST`), and any flagged statement can carry the
pragma comment ``# scmd: shared`` to opt in deliberately (document why
next to it).  The pragma matches anywhere on any line the statement
spans (so multi-line literals and lines with trailing commentary after
the pragma opt out too), with flexible spacing (``#scmd:shared`` works);
the manifest's ``scmd_shared`` list reads the same rule.
"""

from __future__ import annotations

import re

from repro.analysis.findings import Finding, finding
from repro.analysis.source import ModuleModel, parse_module, syntax_finding

#: names whose module-level bindings are deliberately process-wide —
#: the obs registry/tracer and logging singletons the subsystems share.
DEFAULT_ALLOWLIST = frozenset({
    "_log", "log", "logger", "_logger",
    "_trace", "trace",
    "registry", "_registry", "_REGISTRY", "REGISTRY",
    "__all__", "__path__",
})

#: the pragma that marks a statement as intentionally shared (canonical
#: spelling; :meth:`repro.analysis.source.ModuleModel.pragma` matches it
#: with flexible spacing).
PRAGMA = "# scmd: shared"

_CONSTANT_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def analyze_source(text: str, path: str = "<source>",
                   allowlist: frozenset[str] = DEFAULT_ALLOWLIST,
                   ) -> list[Finding]:
    """Run the SCMD shared-state pass over one Python source text."""
    try:
        model = parse_module(text, path)
    except SyntaxError as exc:
        return [syntax_finding(exc, path)]
    return analyze_model(model, allowlist)


def analyze_model(model: ModuleModel,
                  allowlist: frozenset[str] = DEFAULT_ALLOWLIST,
                  ) -> list[Finding]:
    """The RA2xx checks over one parsed module."""
    path = model.path
    out: list[Finding] = []

    # -- pass 1: module-level and class-level bindings ----------------------
    for name, node in model.mutable_bindings:
        if name in allowlist or model.pragma(node):
            continue
        if _CONSTANT_NAME.match(name):
            out.append(finding(
                "RA204",
                f"module-level mutable {name!r} is shared across "
                f"SCMD rank-threads (constant-style name: treated "
                f"as read-only)",
                path=path, line=node.lineno, context=name))
        else:
            out.append(finding(
                "RA201",
                f"module-level mutable {name!r} is shared across "
                f"SCMD rank-threads; make it per-instance, rename "
                f"it CONSTANT_STYLE, or mark it '{PRAGMA}'",
                path=path, line=node.lineno, context=name))

    for cls in model.classes:
        for name, stmt in cls.mutable_bindings:
            if name in allowlist or model.pragma(stmt):
                continue
            out.append(finding(
                "RA202",
                f"{cls.name}.{name} is a mutable class attribute — "
                f"one object shared by every instance on every "
                f"rank-thread; initialise it in __init__ or "
                f"set_services",
                path=path, line=stmt.lineno, context=cls.name))

    # -- pass 2: mutations inside rank-executed methods --------------------
    for cls in model.classes:
        for method in cls.step_methods:
            for w in cls.writes(method):
                if model.pragma(w.node) or w.name in allowlist:
                    continue
                out.append(finding(
                    "RA203",
                    f"{cls.name}.{method.name} {w.what} — rank-threads "
                    f"share this object in SCMD mode; move it to instance "
                    f"state or mark it '{PRAGMA}'",
                    path=path, line=w.node.lineno, context=cls.name))
    return out


def analyze_file(path: str,
                 allowlist: frozenset[str] = DEFAULT_ALLOWLIST,
                 ) -> list[Finding]:
    with open(path, encoding="utf-8") as fh:
        return analyze_source(fh.read(), path, allowlist)

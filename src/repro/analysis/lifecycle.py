"""Component lifecycle linter over the source model's port traffic.

CCAFFEINE's contract is that a component declares its ports in
``setServices`` and only calls through names it declared.  This pass
checks that contract without importing or executing anything, from the
per-class registrations, fetches and releases of
:mod:`repro.analysis.source`:

* ``RA101`` — ``get_port`` on a string literal never passed to
  ``register_uses_port`` in the same scope.
* ``RA102`` — ``register_uses_port`` / ``add_provides_port`` called
  outside a ``set_services`` method (ports must exist before wiring).
* ``RA103`` — ``get_port`` with no matching ``release_port`` anywhere on
  the scope's paths (a checkout the runtime counterpart in
  :meth:`repro.cca.services.Services.release_port` would report leaked).
* ``RA104`` — registration/use *drift*: the fetched literal is a near
  miss of a registered name (``"mish"`` vs ``"mesh"``).
* ``RA105`` — a uses port registered but never fetched.
* ``RA106`` — a non-literal port name (not statically checkable).

Scoping rules: a class with a ``set_services`` method is a *component
class* and its fetches resolve against its own registrations; classes
without one (the little port-implementation helpers that close over
``owner.services``) resolve against the union of the file's component
registrations.  A ``get_port`` the model marks *guarded* (wrapped in
``try/except PortNotConnectedError`` or behind ``is_connected``) is
optional by design, and the wiring analyzer will not demand a
connection for it.
"""

from __future__ import annotations

import difflib

from repro.analysis.findings import Finding, finding
from repro.analysis.source import (ModuleModel, model_of, parse_module,
                                   syntax_finding)


def scan_source(text: str, path: str = "<source>") -> ModuleModel:
    """Parse ``text``; its ``.classes`` carry the per-class port traffic."""
    return parse_module(text, path)


def analyze_source(text: str, path: str = "<source>") -> list[Finding]:
    """Run the lifecycle lint over one Python source text."""
    try:
        model = parse_module(text, path)
    except SyntaxError as exc:
        return [syntax_finding(exc, path)]
    return analyze_model(model)


def analyze_model(model: ModuleModel) -> list[Finding]:
    """The RA1xx checks over one parsed module."""
    path = model.path
    out: list[Finding] = []
    components = [c for c in model.classes if c.has_set_services]
    union_uses = {n: ln for c in components for n, ln in c.uses.items()}
    union_releases = {r for c in model.classes for r in c.releases}
    fetched_names = {f.name for c in model.classes for f in c.fetches}
    leak_reported: set[str] = set()

    for cls in model.classes:
        # RA102: registrations outside set_services
        for kind, name, line, method in cls.stray_registrations:
            out.append(finding(
                "RA102",
                f"{cls.name}.{method} calls {kind}({name!r}) outside "
                f"set_services — ports must be declared at instantiation",
                path=path, line=line, context=cls.name))
        # RA106: dynamic port names
        for line in cls.nonliteral_fetches:
            out.append(finding(
                "RA106",
                f"{cls.name}: get_port with a non-literal port name "
                f"cannot be statically checked",
                path=path, line=line, context=cls.name))
        # RA101/RA104: fetches against the visible registrations.  A
        # component class sees its own table; helper port classes see the
        # union of the file's component tables.
        if cls.has_set_services:
            visible = cls.uses
        elif components:
            visible = union_uses
        else:
            visible = None  # nothing registered in this file: unresolvable
        if visible is not None:
            for fetch in cls.fetches:
                if fetch.name in visible:
                    continue
                near = difflib.get_close_matches(
                    fetch.name, visible, n=1, cutoff=0.6)
                if near:
                    out.append(finding(
                        "RA104",
                        f"{cls.name}: get_port({fetch.name!r}) does not "
                        f"match any registered uses port — did you mean "
                        f"{near[0]!r}?",
                        path=path, line=fetch.line, context=cls.name))
                else:
                    out.append(finding(
                        "RA101",
                        f"{cls.name}: get_port({fetch.name!r}) but no "
                        f"register_uses_port({fetch.name!r}) "
                        f"(registered: {sorted(visible) or '-'})",
                        path=path, line=fetch.line, context=cls.name))
        # RA103: checkout without release (one note per file+name)
        for fetch in cls.fetches:
            if fetch.name in union_releases or \
                    fetch.name in leak_reported:
                continue
            leak_reported.add(fetch.name)
            out.append(finding(
                "RA103",
                f"{cls.name}: get_port({fetch.name!r}) is never "
                f"release_port-ed on any path (leaked checkout)",
                path=path, line=fetch.line, context=cls.name))
        # RA105: registered but never fetched anywhere in the file
        if cls.has_set_services:
            for name, line in cls.uses.items():
                if name not in fetched_names:
                    out.append(finding(
                        "RA105",
                        f"{cls.name}: uses port {name!r} is registered "
                        f"but never fetched with get_port",
                        path=path, line=line, context=cls.name))
    return out


def analyze_file(path: str) -> list[Finding]:
    with open(path, encoding="utf-8") as fh:
        return analyze_source(fh.read(), path)


def class_fetch_profile(cls: type) -> dict[str, bool]:
    """``{port_name: all_fetches_guarded}`` for a component class.

    Used by the wiring analyzer to decide whether an unconnected uses
    port is an error (fetched unguarded somewhere) or merely optional.
    Fetches in same-module helper classes (the port implementations that
    close over ``owner.services``) are attributed to the component too —
    conservative in the right direction.  Returns ``{}`` when the source
    is unavailable (dynamically created classes).
    """
    own = model_of(cls)
    if own is None:
        return {}
    fetches = list(own.fetches)
    for helper in own.module.classes:
        if helper is own or helper.has_set_services:
            continue
        fetches.extend(f for f in helper.fetches if f.name in own.uses)
    profile: dict[str, bool] = {}
    for f in fetches:
        profile[f.name] = profile.get(f.name, True) and f.guarded
    return profile

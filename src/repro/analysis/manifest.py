"""Declarative component manifests + the RA40x drift pass.

The Cactus Configuration Language declares each thorn's parameters with
types and ranges and its schedule, so an assembly is validated before a
single step runs; FLASH selects among alternative implementations from
exactly such metadata.  This module gives ``repro`` components the same
shape: a :class:`ComponentManifest` per shipped component class,
serialized as JSON under ``src/repro/manifests/``, declaring

* the provides/uses ports with their port types (and, for uses ports,
  whether the component *requires* a connection to run),
* every rc-script parameter with name/type/default and optional
  range/choices/required annotations,
* whether the component carries checkpointable state
  (``checkpoint_state``/``restore_state``) and which class attributes
  are deliberately SCMD-shared (the ``# scmd: shared`` pragma).

Manifests are *generated* from the source by :func:`extract_manifest`
(sandbox port harvest + the source model's parameter reads), then
hand-annotated with ranges and choices; :func:`emit_manifest` merges a
re-extraction into an existing file without losing those annotations.
The RA40x **drift pass** (:func:`check_drift`) keeps the committed
manifests honest against the code forever:

* ``RA401`` — source declares a port the manifest omits.
* ``RA402`` — source reads a parameter the manifest omits.
* ``RA403`` — manifest port/parameter with no source counterpart.
* ``RA404`` — manifest type/default disagrees with the source.
* ``RA405`` — checkpoint/scmd state declaration drift.
* ``RA406`` — a shipped component has no manifest at all.

The contract pass (:mod:`repro.analysis.contracts`, RA41x) consumes the
loaded manifests to validate assemblies and ``repro.serve`` jobs.  This
module deliberately imports nothing from :mod:`repro.cca` at module
level so :meth:`repro.cca.framework.Framework.set_parameter` can borrow
:func:`known_parameter` without an import cycle.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.analysis.findings import Finding, finding
from repro.analysis.source import model_of

#: JSON schema version of a manifest document.
MANIFEST_SCHEMA = 1

#: the parameter type vocabulary ("any" = not statically typed).
PARAM_TYPES = ("any", "int", "float", "bool", "str")

_TRUE_STRINGS = frozenset({"1", "true", "yes", "on"})
_FALSE_STRINGS = frozenset({"0", "false", "no", "off"})


def default_manifest_dir() -> str:
    """The committed manifest tree: ``src/repro/manifests``."""
    import repro

    return os.path.join(os.path.dirname(os.path.abspath(repro.__file__)),
                        "manifests")


# --------------------------------------------------------------------------
# model
# --------------------------------------------------------------------------
@dataclass
class PortSpec:
    """One declared provides/uses port."""

    name: str
    type: str
    #: uses ports only: the component fetches it unguarded, so an
    #: assembly that ``go``-reaches the component must connect it.
    required: bool = False

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"name": self.name, "type": self.type}
        if self.required:
            doc["required"] = True
        return doc

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "PortSpec":
        return PortSpec(name=str(doc["name"]), type=str(doc["type"]),
                        required=bool(doc.get("required", False)))


@dataclass
class ParamSpec:
    """One declared rc-script parameter."""

    name: str
    type: str = "any"
    default: Any = None
    min: float | None = None
    max: float | None = None
    choices: list[Any] | None = None
    required: bool = False
    #: read outside the component's own module (e.g. the driver-level
    #: checkpoint knobs consumed by repro.resilience.hooks) — exempt
    #: from the RA403 no-source-counterpart drift check.
    extern: bool = False
    doc: str = ""

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"name": self.name, "type": self.type}
        if self.default is not None:
            doc["default"] = self.default
        if self.min is not None:
            doc["min"] = self.min
        if self.max is not None:
            doc["max"] = self.max
        if self.choices is not None:
            doc["choices"] = list(self.choices)
        if self.required:
            doc["required"] = True
        if self.extern:
            doc["extern"] = True
        if self.doc:
            doc["doc"] = self.doc
        return doc

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "ParamSpec":
        return ParamSpec(
            name=str(doc["name"]), type=str(doc.get("type", "any")),
            default=doc.get("default"), min=doc.get("min"),
            max=doc.get("max"),
            choices=(list(doc["choices"]) if doc.get("choices") is not None
                     else None),
            required=bool(doc.get("required", False)),
            extern=bool(doc.get("extern", False)),
            doc=str(doc.get("doc", "")))


@dataclass
class ComponentManifest:
    """The declarative contract of one component class."""

    class_name: str
    module: str = ""
    provides: list[PortSpec] = field(default_factory=list)
    uses: list[PortSpec] = field(default_factory=list)
    parameters: list[ParamSpec] = field(default_factory=list)
    #: implements checkpoint_state/restore_state (stateful across steps).
    checkpoint: bool = False
    #: reads parameters under computed keys (a key-value database
    #: component) — the contract pass accepts any parameter name.
    open_parameters: bool = False
    #: class attributes deliberately shared across SCMD rank-threads
    #: (carry the ``# scmd: shared`` pragma in the source).
    scmd_shared: list[str] = field(default_factory=list)

    def param(self, name: str) -> ParamSpec | None:
        for p in self.parameters:
            if p.name == name:
                return p
        return None

    def uses_port(self, name: str) -> PortSpec | None:
        for p in self.uses:
            if p.name == name:
                return p
        return None

    def provides_port(self, name: str) -> PortSpec | None:
        for p in self.provides:
            if p.name == name:
                return p
        return None

    def param_names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "class": self.class_name,
            "module": self.module,
            "provides": [p.to_json() for p in
                         sorted(self.provides, key=lambda p: p.name)],
            "uses": [p.to_json() for p in
                     sorted(self.uses, key=lambda p: p.name)],
            "parameters": [p.to_json() for p in
                           sorted(self.parameters, key=lambda p: p.name)],
            "checkpoint": self.checkpoint,
            "open_parameters": self.open_parameters,
            "scmd_shared": sorted(self.scmd_shared),
        }

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "ComponentManifest":
        return ComponentManifest(
            class_name=str(doc["class"]),
            module=str(doc.get("module", "")),
            provides=[PortSpec.from_json(d)
                      for d in doc.get("provides", [])],
            uses=[PortSpec.from_json(d) for d in doc.get("uses", [])],
            parameters=[ParamSpec.from_json(d)
                        for d in doc.get("parameters", [])],
            checkpoint=bool(doc.get("checkpoint", False)),
            open_parameters=bool(doc.get("open_parameters", False)),
            scmd_shared=[str(s) for s in doc.get("scmd_shared", [])])


# --------------------------------------------------------------------------
# value typing (shared with the RA41x contract pass)
# --------------------------------------------------------------------------
def value_type_ok(ptype: str, value: Any) -> bool:
    """Does ``value`` (an rc-parsed or override scalar) fit ``ptype``?

    ``str`` and ``any`` accept every scalar (components coerce with
    ``str()``); ``float`` accepts ints; ``bool`` accepts 0/1 and the
    usual true/false spellings.
    """
    if ptype in ("any", "str"):
        return isinstance(value, (bool, int, float, str))
    if ptype == "bool":
        if isinstance(value, bool):
            return True
        if isinstance(value, int):
            return value in (0, 1)
        if isinstance(value, str):
            return value.strip().lower() in (_TRUE_STRINGS | _FALSE_STRINGS)
        return False
    if isinstance(value, bool):
        return False  # True is not an acceptable int/float
    if ptype == "float":
        return isinstance(value, (int, float))
    if ptype == "int":
        return isinstance(value, int)
    return True


def coerce_value(ptype: str, value: Any) -> Any:
    """``value`` as the declared type (assumes :func:`value_type_ok`).

    This is what makes a ``"1100"`` string override on a float
    parameter key the cache identically to ``1100.0``.
    """
    if not value_type_ok(ptype, value):
        return value
    if ptype == "float":
        return float(value)
    if ptype == "int":
        return int(value)
    if ptype == "bool":
        if isinstance(value, str):
            return value.strip().lower() in _TRUE_STRINGS
        return bool(value)
    if ptype == "str":
        return str(value)
    return value


# --------------------------------------------------------------------------
# extraction + emission
# --------------------------------------------------------------------------
def extract_manifest(cls: type) -> ComponentManifest:
    """Derive a draft manifest from a component class's source.

    Ports come from the sandbox harvest (``__init__`` + ``set_services``
    only, per the CCA contract); parameters and ``# scmd: shared``
    attributes from the source model (:func:`repro.analysis.source.
    model_of`); the checkpoint declaration from the class surface.  The draft is
    the starting point for hand annotation — ranges and choices cannot
    be inferred.
    """
    from repro.analysis.wiring import harvest_port_table

    table = harvest_port_table(cls)
    model = model_of(cls)
    provides = [PortSpec(name=n, type=t)
                for n, t in sorted(table.provides.items())]
    uses = [PortSpec(name=n, type=t,
                     required=table.fetch_guarded.get(n) is False)
            for n, t in sorted(table.uses.items())]
    params: list[ParamSpec] = []
    dynamic = False
    scmd_shared: list[str] = []
    if model is not None:
        dynamic = model.dynamic_reads
        scmd_shared = model.scmd_shared
        for name in sorted(model.params):
            read = model.params[name]
            params.append(ParamSpec(name=name, type=read.type,
                                    default=read.default))
    return ComponentManifest(
        class_name=cls.__name__,
        module=cls.__module__,
        provides=provides,
        uses=uses,
        parameters=params,
        checkpoint=callable(getattr(cls, "checkpoint_state", None)),
        open_parameters=dynamic,
        scmd_shared=scmd_shared)


def merge_manifest(old: ComponentManifest,
                   new: ComponentManifest) -> ComponentManifest:
    """A re-extraction layered under an annotated manifest.

    The source is authoritative for the port set, port types, checkpoint
    and scmd declarations; the old manifest is authoritative for every
    hand annotation (ranges, choices, required, extern, docs, the
    open-parameters override) and for extern parameters the source
    cannot see.
    """
    params: list[ParamSpec] = []
    for p in new.parameters:
        prior = old.param(p.name)
        if prior is None:
            params.append(p)
            continue
        params.append(ParamSpec(
            name=p.name,
            type=prior.type if prior.type != "any" else p.type,
            default=p.default if p.default is not None else prior.default,
            min=prior.min, max=prior.max, choices=prior.choices,
            required=prior.required, extern=prior.extern, doc=prior.doc))
    new_names = {p.name for p in new.parameters}
    for prior in old.parameters:
        if prior.name in new_names:
            continue
        if prior.extern or new.open_parameters or old.open_parameters:
            params.append(prior)  # invisible to the scan, deliberately
    uses: list[PortSpec] = []
    for p in new.uses:
        prior = old.uses_port(p.name)
        uses.append(PortSpec(name=p.name, type=p.type,
                             required=prior.required if prior is not None
                             else p.required))
    return ComponentManifest(
        class_name=new.class_name,
        module=new.module or old.module,
        provides=list(new.provides),
        uses=uses,
        parameters=params,
        checkpoint=new.checkpoint,
        open_parameters=old.open_parameters,
        scmd_shared=list(new.scmd_shared))


def manifest_path(directory: str, class_name: str) -> str:
    return os.path.join(directory, f"{class_name}.json")


def write_manifest(manifest: ComponentManifest, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = manifest_path(directory, manifest.class_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_json(), fh, indent=2)
        fh.write("\n")
    return path


def emit_manifest(cls: type, directory: str | None = None,
                  merge: bool = True) -> str:
    """Write (or merge-refresh) one class's manifest; returns the path."""
    directory = directory or default_manifest_dir()
    manifest = extract_manifest(cls)
    path = manifest_path(directory, cls.__name__)
    if merge and os.path.isfile(path):
        old = load_manifest_file(path)
        manifest = merge_manifest(old, manifest)
    return write_manifest(manifest, directory)


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------
def load_manifest_file(path: str) -> ComponentManifest:
    with open(path, encoding="utf-8") as fh:
        return ComponentManifest.from_json(json.load(fh))


def load_manifest_dir(directory: str | None = None
                      ) -> dict[str, ComponentManifest]:
    """Every ``*.json`` manifest under ``directory``, keyed by class."""
    directory = directory or default_manifest_dir()
    out: dict[str, ComponentManifest] = {}
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return out
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            m = load_manifest_file(os.path.join(directory, name))
        except (OSError, ValueError, KeyError):
            continue  # unreadable manifests surface via the drift pass
        out[m.class_name] = m
    return out


_DEFAULT_MANIFESTS: dict[str, ComponentManifest] | None = None


def load_manifests(refresh: bool = False) -> dict[str, ComponentManifest]:
    """The committed manifest set (cached; ``refresh=True`` re-reads)."""
    global _DEFAULT_MANIFESTS
    if _DEFAULT_MANIFESTS is None or refresh:
        _DEFAULT_MANIFESTS = load_manifest_dir()
    return _DEFAULT_MANIFESTS


def known_parameter(class_name: str, key: str) -> bool | None:
    """Is ``key`` a declared parameter of ``class_name``?

    Returns None when no judgement is possible (no manifest for the
    class, or the class accepts computed keys).  Used by
    ``Framework.set_parameter`` to surface typo'd keys at set time.
    """
    m = load_manifests().get(class_name)
    if m is None or m.open_parameters:
        return None
    return m.param(key) is not None


# --------------------------------------------------------------------------
# the RA40x drift pass
# --------------------------------------------------------------------------
def _drift_one(cls: type, manifest: ComponentManifest,
               path: str) -> list[Finding]:
    """Compare one class's source against its committed manifest."""
    out: list[Finding] = []
    cname = cls.__name__
    try:
        extracted = extract_manifest(cls)
    except Exception as exc:  # noqa: BLE001 - report, keep going
        return [finding(
            "RA406",
            f"{cname}: could not re-extract the source contract "
            f"({type(exc).__name__}: {exc}) — manifest unverifiable",
            path=path, context=cname)]

    src_file = getattr(inspect.getmodule(cls), "__file__", None)
    model = model_of(cls)

    # -- ports -------------------------------------------------------------
    for kind, src_ports, man_ports in (
            ("provides", extracted.provides, manifest.provides),
            ("uses", extracted.uses, manifest.uses)):
        man_by_name = {p.name: p for p in man_ports}
        src_by_name = {p.name: p for p in src_ports}
        for p in src_ports:
            declared = man_by_name.get(p.name)
            if declared is None:
                out.append(finding(
                    "RA401",
                    f"{cname} registers {kind} port {p.name!r} "
                    f"[{p.type}] but the manifest does not declare it",
                    path=src_file, context=cname))
            elif declared.type != p.type:
                out.append(finding(
                    "RA404",
                    f"{cname}.{p.name}: manifest declares {kind} port "
                    f"type {declared.type!r}, source registers "
                    f"{p.type!r}",
                    path=path, context=cname))
        for p in man_ports:
            if p.name not in src_by_name:
                out.append(finding(
                    "RA403",
                    f"{cname}: manifest declares {kind} port "
                    f"{p.name!r} [{p.type}] the source never registers",
                    path=path, context=cname))

    # -- parameters --------------------------------------------------------
    dynamic = model.dynamic_reads if model is not None else True
    man_params = {p.name: p for p in manifest.parameters}
    src_params = {p.name: p for p in extracted.parameters}
    for name, read in src_params.items():
        declared = man_params.get(name)
        if declared is None:
            if not manifest.open_parameters:
                out.append(finding(
                    "RA402",
                    f"{cname} reads parameter {name!r} "
                    f"(type {read.type}) the manifest does not declare",
                    path=src_file, context=cname))
            continue
        if read.type != "any" and declared.type != "any" and \
                declared.type != read.type:
            out.append(finding(
                "RA404",
                f"{cname}.{name}: manifest declares type "
                f"{declared.type!r}, source reads it as {read.type!r}",
                path=path, context=cname))
        if read.default is not None and declared.default is not None and \
                read.default != declared.default:
            out.append(finding(
                "RA404",
                f"{cname}.{name}: manifest default "
                f"{declared.default!r} != source default "
                f"{read.default!r}",
                path=path, context=cname))
    if not (manifest.open_parameters or dynamic):
        for name, declared in man_params.items():
            if name in src_params or declared.extern:
                continue
            out.append(finding(
                "RA403",
                f"{cname}: manifest declares parameter {name!r} the "
                f"source never reads (mark it extern if it is consumed "
                f"elsewhere)",
                path=path, context=cname))

    # -- state declarations ------------------------------------------------
    if extracted.checkpoint and not manifest.checkpoint:
        out.append(finding(
            "RA405",
            f"{cname} implements checkpoint_state but the manifest "
            f"declares checkpoint: false — stateful components must "
            f"declare their checkpoint contract",
            path=path, context=cname))
    elif manifest.checkpoint and not extracted.checkpoint:
        out.append(finding(
            "RA405",
            f"{cname}: manifest declares checkpoint: true but the "
            f"source implements no checkpoint_state",
            path=path, context=cname))
    if sorted(extracted.scmd_shared) != sorted(manifest.scmd_shared):
        out.append(finding(
            "RA405",
            f"{cname}: scmd-shared declaration drift — source pragmas "
            f"{sorted(extracted.scmd_shared)}, manifest declares "
            f"{sorted(manifest.scmd_shared)}",
            path=path, context=cname))
    return out


def check_drift(classes: Iterable[type] | None = None,
                directory: str | None = None) -> list[Finding]:
    """Run RA401-RA406 over ``classes`` against the committed manifests.

    Default scan set: every shipped component plus the three application
    drivers (:func:`repro.analysis.wiring.default_classes`).  Manifest
    files naming no scanned class are reported too, so deleted
    components cannot leave stale contracts behind.
    """
    if classes is None:
        from repro.analysis.wiring import default_classes

        classes = default_classes()
    classes = list(classes)
    directory = directory or default_manifest_dir()
    manifests = load_manifest_dir(directory)
    out: list[Finding] = []
    seen: set[str] = set()
    for cls in classes:
        cname = cls.__name__
        seen.add(cname)
        manifest = manifests.get(cname)
        if manifest is None:
            out.append(finding(
                "RA406",
                f"{cname} has no manifest under {directory} — run "
                f"`python -m repro.analysis manifest emit` and annotate "
                f"the draft",
                path=getattr(inspect.getmodule(cls), "__file__", None),
                context=cname))
            continue
        out.extend(_drift_one(cls, manifest,
                              manifest_path(directory, cname)))
    for cname, manifest in manifests.items():
        if cname not in seen:
            out.append(finding(
                "RA403",
                f"manifest {cname}.json names a class not in the scan "
                f"set — delete it or register the component",
                path=manifest_path(directory, cname), context=cname))
    return out


__all__ = [
    "MANIFEST_SCHEMA", "PARAM_TYPES",
    "ComponentManifest", "PortSpec", "ParamSpec",
    "default_manifest_dir",
    "extract_manifest", "merge_manifest", "emit_manifest",
    "write_manifest", "manifest_path",
    "load_manifest_file", "load_manifest_dir", "load_manifests",
    "known_parameter", "value_type_ok", "coerce_value",
    "check_drift",
]

"""Manifest model, extraction, merge, and the RA40x drift pass."""

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.analysis.manifest import (
    ComponentManifest,
    ParamSpec,
    PortSpec,
    check_drift,
    coerce_value,
    default_manifest_dir,
    extract_manifest,
    load_manifest_dir,
    load_manifest_file,
    load_manifests,
    manifest_path,
    merge_manifest,
    value_type_ok,
    write_manifest,
)
from repro.analysis.wiring import default_classes

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def widget_cls():
    spec = importlib.util.spec_from_file_location(
        "contract_component", FIXTURES / "contract_component.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules["contract_component"] = mod
    spec.loader.exec_module(mod)
    yield mod.ContractWidget
    sys.modules.pop("contract_component", None)


def codes(findings):
    return sorted(f.code for f in findings)


# -- extraction ------------------------------------------------------------
def test_extractor_finds_ports_params_state(widget_cls):
    m = extract_manifest(widget_cls)
    assert [p.name for p in m.provides] == ["out"]
    assert {p.name: p.required for p in m.uses} == \
        {"src": True, "sink": False}
    by_name = {p.name: p for p in m.parameters}
    # helper-class read attributed to the owning component, cast-typed
    assert by_name["gain"].type == "float" and by_name["gain"].default == 1.0
    assert by_name["mode"].type == "str" and by_name["mode"].default == "fast"
    # accessor-typed read (parameters.get_int)
    assert by_name["steps"].type == "int" and by_name["steps"].default == 4
    assert m.checkpoint is True
    assert m.scmd_shared == ["cache"]
    assert m.open_parameters is False


def test_manifest_json_round_trip(widget_cls, tmp_path):
    m = extract_manifest(widget_cls)
    path = write_manifest(m, str(tmp_path))
    again = load_manifest_file(path)
    assert again.to_json() == m.to_json()


def test_merge_preserves_hand_annotations(widget_cls, tmp_path):
    m = extract_manifest(widget_cls)
    m.param("gain").min = 0.0
    m.param("gain").max = 10.0
    m.param("mode").choices = ["fast", "slow"]
    m.param("steps").required = True
    m.parameters.append(ParamSpec(name="budget", type="int", extern=True))
    write_manifest(m, str(tmp_path))
    merged = merge_manifest(
        load_manifest_file(manifest_path(str(tmp_path),
                                         "ContractWidget")),
        extract_manifest(widget_cls))
    assert merged.param("gain").min == 0.0
    assert merged.param("gain").max == 10.0
    assert merged.param("mode").choices == ["fast", "slow"]
    assert merged.param("steps").required is True
    # extern params invisible to the scan survive re-emission
    assert merged.param("budget") is not None


# -- value typing ----------------------------------------------------------
def test_value_typing_rules():
    assert value_type_ok("float", 3) and value_type_ok("float", 3.5)
    assert not value_type_ok("float", "hot")
    assert not value_type_ok("float", True)
    assert value_type_ok("int", 3) and not value_type_ok("int", 3.5)
    assert value_type_ok("bool", 1) and value_type_ok("bool", "true")
    assert not value_type_ok("bool", 2)
    assert value_type_ok("str", 0)  # components str()-coerce
    assert coerce_value("float", "1100") == "1100"  # not ok -> unchanged
    assert coerce_value("float", 1100) == 1100.0
    assert coerce_value("bool", "yes") is True
    assert coerce_value("str", 0) == "0"


# -- drift pass ------------------------------------------------------------
def _committed(widget_cls, tmp_path, mutate=None):
    m = extract_manifest(widget_cls)
    if mutate is not None:
        mutate(m)
    write_manifest(m, str(tmp_path))
    return str(tmp_path)


def test_drift_clean_on_faithful_manifest(widget_cls, tmp_path):
    d = _committed(widget_cls, tmp_path)
    assert check_drift([widget_cls], d) == []


def test_ra401_source_port_missing_from_manifest(widget_cls, tmp_path):
    def drop_port(m):
        m.uses = [p for p in m.uses if p.name != "src"]
    d = _committed(widget_cls, tmp_path, drop_port)
    assert "RA401" in codes(check_drift([widget_cls], d))


def test_ra402_source_param_missing_from_manifest(widget_cls, tmp_path):
    def drop_param(m):
        m.parameters = [p for p in m.parameters if p.name != "gain"]
    d = _committed(widget_cls, tmp_path, drop_param)
    assert "RA402" in codes(check_drift([widget_cls], d))


def test_ra403_manifest_entry_with_no_source(widget_cls, tmp_path):
    def add_ghosts(m):
        m.uses.append(PortSpec(name="ghost", type="OutPort"))
        m.parameters.append(ParamSpec(name="ghost_knob", type="int"))
    d = _committed(widget_cls, tmp_path, add_ghosts)
    found = codes(check_drift([widget_cls], d))
    assert found.count("RA403") == 2


def test_ra403_extern_param_is_exempt(widget_cls, tmp_path):
    def add_extern(m):
        m.parameters.append(ParamSpec(name="hook_knob", type="int",
                                      extern=True))
    d = _committed(widget_cls, tmp_path, add_extern)
    assert check_drift([widget_cls], d) == []


def test_ra404_type_and_default_mismatch(widget_cls, tmp_path):
    def corrupt(m):
        m.param("gain").type = "int"
        m.param("steps").default = 99
    d = _committed(widget_cls, tmp_path, corrupt)
    assert codes(check_drift([widget_cls], d)).count("RA404") == 2


def test_ra405_checkpoint_and_scmd_drift(widget_cls, tmp_path):
    def corrupt(m):
        m.checkpoint = False
        m.scmd_shared = []
    d = _committed(widget_cls, tmp_path, corrupt)
    assert codes(check_drift([widget_cls], d)).count("RA405") == 2


def test_scmd_pragma_on_closing_line_agrees_with_ra202(tmp_path):
    # a multi-line class attribute whose pragma sits on the closing
    # brace: exempt from RA202, so the manifest must declare it shared
    from repro.analysis.scmd_safety import analyze_file

    src = tmp_path / "pragma_closing.py"
    src.write_text(
        "from repro.cca.component import Component\n"
        "\n"
        "\n"
        "class Comp(Component):\n"
        "    table = {\n"
        "        'a': 1,\n"
        "    }  # scmd: shared\n"
        "\n"
        "    def set_services(self, services):\n"
        "        self.services = services\n",
        encoding="utf-8")
    spec = importlib.util.spec_from_file_location("pragma_closing", src)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["pragma_closing"] = mod
    try:
        spec.loader.exec_module(mod)
        assert [f.code for f in analyze_file(str(src))] == []
        assert extract_manifest(mod.Comp).scmd_shared == ["table"]
    finally:
        sys.modules.pop("pragma_closing", None)


def test_ra406_missing_manifest(widget_cls, tmp_path):
    assert codes(check_drift([widget_cls], str(tmp_path))) == ["RA406"]


def test_ra403_stale_manifest_file(widget_cls, tmp_path):
    d = _committed(widget_cls, tmp_path)
    stale = ComponentManifest(class_name="DeletedComponent")
    write_manifest(stale, d)
    found = check_drift([widget_cls], d)
    assert codes(found) == ["RA403"]
    assert "DeletedComponent" in found[0].message


# -- the committed tree ----------------------------------------------------
def test_every_shipped_component_has_a_manifest():
    committed = load_manifest_dir()
    for cls in default_classes():
        assert cls.__name__ in committed, \
            f"{cls.__name__} has no committed manifest"


def test_committed_manifests_have_no_drift():
    findings = check_drift()
    assert findings == [], "\n".join(f.format() for f in findings)


def test_committed_manifests_are_schema_1_json():
    d = default_manifest_dir()
    for name, m in load_manifest_dir().items():
        with open(manifest_path(d, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == 1
        assert doc["class"] == name


def test_load_manifests_caches_and_refreshes():
    first = load_manifests()
    assert load_manifests() is first
    assert load_manifests(refresh=True) is not first

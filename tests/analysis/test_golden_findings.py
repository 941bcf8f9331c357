"""Golden findings: every static pass over ``tests/analysis/fixtures``.

The other analysis tests mostly check that a code is present.  This one
pins the full output — code, severity, path, line, context and message
text — of the RA0xx-RA41x passes (``--races --contracts``) over the
fixture directory, plus the draft manifest extracted from the contract
fixture, against a committed snapshot.  A refactor of the passes must
leave it byte-identical.

Regenerate the snapshot (only when a finding is meant to change)::

    PYTHONPATH=src python tests/analysis/test_golden_findings.py
"""

import importlib.util
import json
import os
import pathlib
import sys

from repro.analysis import analyze_targets
from repro.analysis.manifest import extract_manifest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SNAPSHOT = pathlib.Path(__file__).parent / "golden_findings.json"


def _relative(path):
    if path and os.path.isabs(path):
        return os.path.relpath(path, FIXTURES)
    if path and path.startswith(str(FIXTURES)):
        return os.path.relpath(path, str(FIXTURES))
    return path


def _contract_manifest():
    spec = importlib.util.spec_from_file_location(
        "contract_component", FIXTURES / "contract_component.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules["contract_component"] = mod
    try:
        spec.loader.exec_module(mod)
        return extract_manifest(mod.ContractWidget).to_json()
    finally:
        sys.modules.pop("contract_component", None)


def current():
    report = analyze_targets([str(FIXTURES)], check_races=True,
                             check_contracts=True)
    findings = [{"code": f.code, "severity": str(f.severity),
                 "path": _relative(f.path), "line": f.line,
                 "context": f.context, "message": f.message}
                for f in report.sorted()]
    return {"findings": findings,
            "manifests": {"ContractWidget": _contract_manifest()}}


def test_fixture_findings_match_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    got = current()
    assert len(got["findings"]) == len(expected["findings"])
    for want, have in zip(expected["findings"], got["findings"]):
        assert have == want
    assert got["manifests"] == expected["manifests"]


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(current(), indent=1, ensure_ascii=False)
                        + "\n", encoding="utf-8")
    print(SNAPSHOT)

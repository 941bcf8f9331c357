"""Tables 1-3 / Figs 1, 2, 5 — the component assemblies themselves.

These are structural artifacts rather than measurements: the subsystem ->
component maps (Tables 1-3) and the port wiring diagrams (the GUI shots of
Figs 1, 2, 5).  The bench instantiates every assembly, dumps its wiring,
and checks it against the paper's tables.
"""

from repro.apps import assembly_table, describe_assembly
from repro.apps.assemblies import format_assembly_table
from repro.apps.ignition0d import build_ignition0d
from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.apps.shock_interface import build_shock_interface
from repro.bench import save_report
from repro.cca import Framework


def build_all():
    out = {}
    for name, builder in [
        ("ignition0d", build_ignition0d),
        ("reaction_diffusion", build_reaction_diffusion),
        ("shock_interface", build_shock_interface),
    ]:
        fw = Framework()
        builder(fw)
        out[name] = fw
    return out


def test_assemblies_tables_and_wiring(benchmark):
    frameworks = benchmark.pedantic(build_all, rounds=1, iterations=1)
    report_parts = []
    for name, fw in frameworks.items():
        report_parts.append(format_assembly_table(name))
        report_parts.append(describe_assembly(fw))
        report_parts.append("")
    # report only: the tables are static, so there is no KPI to gate
    benchmark.extra_info["report"] = save_report(
        "tables1_2_3_assemblies", "\n".join(report_parts))

    # Table 1: the 0D code has no mesh; CvodeComponent + ThermoChemistry
    # form the implicit subsystem
    t1 = assembly_table("ignition0d")
    assert t1["Mesh"] == ["N/A"]
    assert set(t1["Implicit Integration"]) == {"CvodeComponent",
                                               "ThermoChemistry"}
    # Table 2: GrACE is mesh + data object + BC
    t2 = assembly_table("reaction_diffusion")
    for subsystem in ("Mesh", "Data Object", "Boundary Condition"):
        assert t2[subsystem] == ["GrACEComponent"]
    # Table 3: no implicit subsystem in the hydro code
    t3 = assembly_table("shock_interface")
    assert t3["Implicit Integration"] == ["N/A"]

    # wiring sanity: every declared uses-port of every instance that the
    # drivers exercise is connected
    fw = frameworks["reaction_diffusion"]
    wired = {(u, p) for (u, p) in fw.connections()}
    assert ("Driver", "explicit") in wired
    assert ("ExplicitIntegrator", "rhs") in wired
    assert len(fw.connections()) >= 20

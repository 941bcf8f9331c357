"""Record ``perfbench/references.json`` from the current program.

Run from the repository root after a deliberate change of results::

    python3 perfbench/record_references.py

Each workload's reference comes from its plain single-rank form; the
ignition sweep stores every condition a seed can pick, so all seeds are
checked, and the inputs of seed 0 (default) and seed 1 (held out) are
stored for reference.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import (REFERENCES, FlameCvode,  # noqa: E402
                                 IgnitionSweep, ShockAmr3, run_world)

SEEDS = (0, 1)


def _flame() -> dict:
    wl = FlameCvode(0, refs={})
    out = run_world(0, None, wl.build, wl.mesh).outputs
    return {"T_max": out["T_max"], "nlevels": out["nlevels"],
            "total_cells": out["total_cells"],
            "seeds": {str(s): FlameCvode(s, refs={}).inputs() for s in SEEDS}}


def _shock() -> dict:
    wl = ShockAmr3(0, refs={})
    out = run_world(0, None, wl.build, wl.mesh).outputs
    return {"steps": out["steps"], "nlevels": out["nlevels"],
            "total_cells": out["total_cells"],
            "circulation_final": out["circulation_final"],
            "seeded": False}


def _sweep() -> dict:
    from repro.apps.assemblies import IGNITION0D_SCRIPT
    from repro.apps.ignition0d import run_ignition0d_batch
    from repro.serve.batching import plan_for

    bands = IgnitionSweep.bands

    def values(*axes):
        return sorted({round(c + k * s, 2) for axis in axes
                       for c, s in bands[axis] for k in range(-2, 3)})

    points = list(itertools.product(values("a_T0"), values("a_phi")))
    points += itertools.product(values("fresh_T0"), values("fresh_phi"))
    plans = [plan_for(IGNITION0D_SCRIPT, {
        **IgnitionSweep.settings, "Initializer.T0": T0,
        "Initializer.phi": phi}) for T0, phi in points]
    results = run_ignition0d_batch([p.condition for p in plans],
                                   **plans[0].settings)
    return {
        "conditions": {
            IgnitionSweep.ref_key(T0, phi): {
                "T_final": r["T_final"], "Y_H2O_final": r["Y_H2O_final"]}
            for (T0, phi), r in zip(points, results)},
        "seeds": {str(s): IgnitionSweep(s, refs={}).inputs() for s in SEEDS},
    }


if __name__ == "__main__":
    refs = {"flame_cvode": _flame(), "shock_amr3": _shock(),
            "ignition_sweep": _sweep()}
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")

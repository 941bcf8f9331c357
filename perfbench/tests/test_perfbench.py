"""Tests of the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests``.

Each workload runs one parallel cycle and one baseline at benchmark size
through its correctness gate; a corrupted reference must trip the gate.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _p in (os.path.join(ROOT, "src"), ROOT):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench.layers import LayerTracer, is_count, layer_metrics  # noqa: E402
from perfbench.workloads import (WORKLOADS, load_references,  # noqa: E402
                                 run_world)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _predictions() -> dict:
    with open(os.path.join(ROOT, "perfbench", "predictions.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    # every per-layer metric has its prediction, and the tracer derives
    # every one of them that is not measured by the workload itself
    pred = _predictions()
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(pred["per_layer"]) == layer_names
    assert set(pred["workloads"]) == set(WORKLOADS)
    own = set(layer_metrics({})) | {
        "samr.patches_final", "samr.cells_final", "mpi.rank_cpu_wall_ratio",
        "mpi.vclock_s", "exec.launch_s", "exec.teardown_s",
        "serve.queue_wait_p50_s", "serve.run_p50_s",
        "obs.trace_overhead_pct"}
    assert layer_names == own


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke_passes_gate(name):
    wl = WORKLOADS[name](0)
    try:
        par = wl.cycle()
        base = wl.baseline()
        wl.compare(par, base)
        setup = wl.setup_sample()
    finally:
        wl.close()
    assert par.errors == [] and base.errors == []
    assert par.wall > 0 and base.wall > 0 and setup > 0
    assert par.latencies and min(par.latencies) > 0


def test_speed_index_in_range_and_leaves_no_process():
    import multiprocessing

    from perfbench import hostspeed

    readings = [hostspeed.speed_index() for _ in range(2)]
    assert all(0.2 < k < 20.0 for k in readings)
    # the pipe probe waits for its echo process every time
    assert multiprocessing.active_children() == []


def test_gate_rejects_wrong_flame_result():
    wl = WORKLOADS["flame_cvode"](0)
    op = run_world(0, None, wl.build, wl.mesh)
    wl.refs = copy.deepcopy(wl.refs)
    wl.refs["T_max"] *= 1.001
    wl.refs["total_cells"] += 4
    wl.check(op)
    assert len(op.errors) == 2


def test_gate_rejects_wrong_sweep_result():
    wl = WORKLOADS["ignition_sweep"](0)
    T0, phi = wl.conditions()[0]
    good = wl.refs["conditions"][wl.ref_key(T0, phi)]
    errors: list[str] = []
    wl._check_result(T0, phi, good, errors)
    assert errors == []
    wl._check_result(T0, phi, {**good, "Y_H2O_final":
                               good["Y_H2O_final"] * 1.01}, errors)
    assert len(errors) == 1


def test_seeds_change_inputs_not_work():
    refs = load_references()
    flame = WORKLOADS["flame_cvode"]
    sweep = WORKLOADS["ignition_sweep"]
    assert flame(0).spots() != flame(1).spots()
    assert sweep(0).conditions() != sweep(1).conditions()
    for seed in (0, 1):
        assert refs["flame_cvode"]["seeds"][str(seed)] == flame(seed).inputs()
        assert refs["ignition_sweep"]["seeds"][str(seed)] == \
            sweep(seed).inputs()
    # every condition any seed can pick has a stored reference
    for seed in range(50):
        for T0, phi in sweep(seed).conditions():
            assert sweep.ref_key(T0, phi) in refs["ignition_sweep"][
                "conditions"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_restored_after_traced_run(name):
    tracer = LayerTracer()
    wl = WORKLOADS[name](0)
    try:
        with tracer.installed():
            patched = tracer.originals()
            assert len(patched) > 50
            for owner, attr, original in patched:
                assert vars(owner)[attr] is not original
            op = wl.cycle(tracer)
    finally:
        wl.close()
    assert op.errors == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    assert tracer.originals() == []


#: a count each workload's parallel ranks or workers must produce
WORKER_COUNT = {"flame_cvode": "integrators.cvode_nfe",
                "shock_amr3": "integrators.rk2_steps",
                "ignition_sweep": "integrators.cvode_nfe"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    tracer = LayerTracer()
    wl = WORKLOADS[name](3)
    counts = []
    try:
        with tracer.installed():
            for _ in range(2):
                tracer.reset()
                op = wl.cycle(tracer)
                assert op.errors == []
                m = layer_metrics(op.counters)
                counts.append({k: v for k, v in m.items() if is_count(k)})
    finally:
        wl.close()
    assert counts[0] == counts[1]
    assert counts[0][WORKER_COUNT[name]] > 0
    if name == "shock_amr3":
        # counted in the forked mp workers and returned through mpirun
        assert counts[0]["mpi.collectives"] > 0
        assert counts[0]["samr.cell_updates"] > 0


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ignition_sweep",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert set(doc["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert glob.glob(os.path.join(ROOT, ".perfbench-*")) == []


def test_run_without_sources_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flame_cvode",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

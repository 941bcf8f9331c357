"""The three benchmark workloads: one paper assembly each, run through
its public entry point, with a correctness gate on every operation.

An *operation* is one world run (``mpirun`` of an assembly) or one serve
job.  Each workload's :meth:`Workload.cycle` runs the parallel
configuration once; :meth:`Workload.baseline` runs the plain single-rank
(or library) form of the same problem.  Both return an :class:`Op`, and
:meth:`Workload.compare` checks one against the other.

The problem sizes are small on purpose: on a shared host single runs
vary by tens of percent, and a median over many short runs is steadier
than one over a few long ones.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Any, Callable

from perfbench.layers import LayerTracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

#: relative tolerance for stored floating-point references: loose enough
#: for a reordered-but-equivalent kernel, tight enough to catch a wrong one
REF_RTOL = 1e-6


def load_references() -> dict[str, Any]:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _os_cpu() -> float:
    """CPU seconds of this process plus its reaped worker processes."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


@dataclass
class Op:
    """Timings and verdict of one parallel cycle or baseline run."""

    wall: float
    cpu: float
    latencies: list[float] = field(default_factory=list)
    attempted: int = 1
    errors: list[str] = field(default_factory=list)
    #: per-layer values measured by the workload itself (traced runs)
    extras: dict[str, float] = field(default_factory=dict)
    #: merged wrapper counters (traced runs)
    counters: dict[str, float] = field(default_factory=dict)
    #: results the correctness checks compare
    outputs: Any = None

    @property
    def failed(self) -> int:
        return min(len(self.errors), self.attempted)


class Workload:
    name = ""
    #: ranks or workers of the parallel configuration
    parallelism = 2
    #: whether :meth:`setup_sample` slows with the host as the probes of
    #: ``perfbench/hostspeed.py`` do, so its time is divided by the index
    setup_tracks_host = True

    def __init__(self, seed: int, refs: dict | None = None) -> None:
        self.seed = seed
        self.refs = load_references()[self.name] if refs is None else refs

    def inputs(self) -> dict[str, Any]:
        """The seeded inputs, as stored for the recorded seeds."""
        return {}

    def check_inputs(self, op: Op) -> None:
        stored = self.refs.get("seeds", {}).get(str(self.seed))
        if stored is not None and stored != self.inputs():
            op.errors.append(f"seed {self.seed} inputs differ from the "
                             f"recorded ones")

    def cycle(self, tracer: LayerTracer | None = None) -> Op:
        raise NotImplementedError

    def baseline(self) -> Op:
        """The single-rank form of the problem."""
        raise NotImplementedError

    def compare(self, par: Op, base: Op) -> None:
        """Cross-check a parallel cycle against a baseline run."""

    def setup_sample(self) -> float:
        """Seconds to set the problem up once, without running it."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------- world runs
def _rank_main(comm, build: Callable, mesh: str,
               tracer: LayerTracer | None) -> dict[str, Any]:
    """One rank: build the assembly, run ``go``, report times, results,
    the final hierarchy and (traced) this rank's counters."""
    from repro.cca.framework import Framework

    t_start = perf_counter()
    scope = tracer.rank_scope() if tracer is not None else nullcontext({})
    with scope as bucket:
        fw = Framework(comm=comm)
        build(fw)
        t_built = perf_counter()
        cpu0 = thread_time()
        result = fw.go("Driver")
        t_done = perf_counter()
        cpu_go = thread_time() - cpu0
    h = fw.get_component(mesh).require_hierarchy()
    return {
        "t_start": t_start, "t_built": t_built, "t_done": t_done,
        "cpu_go": cpu_go,
        "result": {k: v for k, v in result.items()
                   if isinstance(v, (int, float))},
        "patches": sum(len(lvl.patches) for lvl in h.levels),
        "cells": h.total_cells(),
        "bucket": dict(bucket),
    }


def _launch(nprocs: int, backend: str | None, build: Callable,
            mesh: str, tracer: LayerTracer | None
            ) -> tuple[list[dict], list[float]]:
    if nprocs == 0:
        return [_rank_main(None, build, mesh, tracer)], [0.0]
    from repro.mpi.launcher import mpirun

    out = mpirun(nprocs, _rank_main, args=(build, mesh, tracer),
                 backend=backend, return_clocks=True)
    return [r for r, _ in out], [c for _, c in out]


def run_world(nprocs: int, backend: str | None, build: Callable, mesh: str,
              tracer: LayerTracer | None = None) -> Op:
    """One world run of an assembly; ``nprocs == 0`` is the plain run
    without a communicator."""
    cpu0 = _os_cpu()
    t_call = perf_counter()
    ranks, clocks = _launch(nprocs, backend, build, mesh, tracer)
    t_ret = perf_counter()
    op = Op(wall=t_ret - t_call, cpu=_os_cpu() - cpu0,
            latencies=[max(r["t_done"] for r in ranks)
                       - max(r["t_built"] for r in ranks)])
    first = ranks[0]
    for r in ranks[1:]:
        if r["result"] != first["result"]:
            op.errors.append(f"rank results differ: {r['result']} vs "
                             f"{first['result']}")
    if tracer is not None:
        op.counters = tracer.collect(*(r["bucket"] for r in ranks))
        op.extras = {
            "samr.patches_final": float(first["patches"]),
            "samr.cells_final": float(first["cells"]),
            "mpi.rank_cpu_wall_ratio": statistics.fmean(
                r["cpu_go"] / (r["t_done"] - r["t_built"]) for r in ranks),
            "mpi.vclock_s": max(clocks),
            "exec.launch_s": max(r["t_start"] for r in ranks) - t_call,
            "exec.teardown_s": t_ret - max(r["t_done"] for r in ranks),
        }
    op.outputs = first["result"]
    return op


class WorldWorkload(Workload):
    """A paper assembly run as one ``mpirun`` world per cycle."""

    backend = ""
    #: instance name of the assembly's GrACE mesh component
    mesh = ""

    def build(self, fw) -> None:
        raise NotImplementedError

    def check(self, op: Op) -> None:
        raise NotImplementedError

    def cycle(self, tracer: LayerTracer | None = None) -> Op:
        op = run_world(self.parallelism, self.backend, self.build, self.mesh,
                       tracer)
        self.check(op)
        return op

    def baseline(self) -> Op:
        op = run_world(0, None, self.build, self.mesh)
        self.check(op)
        return op

    def setup_sample(self) -> float:
        from repro.cca.framework import Framework

        t0 = perf_counter()
        self.build(Framework())
        return perf_counter() - t0


class FlameCvode(WorldWorkload):
    """§4.2 flame: per-cell CVODE chemistry on 2 SAMR levels, 2 rank-threads.

    The seed translates each of the three hot spots by -1, 0 or +1 coarse
    cells in x and y (spots kept at least 0.3 of the domain apart).  The
    spots are smaller than the application default (radius 0.05 instead
    of 0.08 of the domain) to keep one run under a second.  A
    whole-cell translation leaves every cell's state, the refined patch
    sizes and so the work unchanged, so one reference serves every seed
    and the run time does not depend on the seed.
    """

    name = "flame_cvode"
    backend = "threads"
    mesh = "AMR_Mesh"
    config = dict(nx=8, ny=8, max_levels=2, n_steps=1, dt=1e-7,
                  regrid_interval=1, initial_regrids=1)
    extent = 0.01
    spot_radius = 0.05 * extent
    base_spots = ((0.3, 0.3), (0.7, 0.4), (0.4, 0.75))

    def spots(self) -> list[tuple[float, float]]:
        rng = random.Random(self.seed)
        nx = self.config["nx"]
        while True:
            pts = [((bx + rng.choice((-1, 0, 1)) / nx) * self.extent,
                    (by + rng.choice((-1, 0, 1)) / nx) * self.extent)
                   for bx, by in self.base_spots]
            gap = min(((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5
                      for a, b in itertools.combinations(pts, 2))
            if gap >= 0.3 * self.extent:
                return pts

    def build(self, fw) -> None:
        from repro.apps.reaction_diffusion import build_reaction_diffusion

        build_reaction_diffusion(fw, extent=self.extent, **self.config)
        fw.set_parameter("InitialCondition", "spot_radius", self.spot_radius)
        for k, (x, y) in enumerate(self.spots(), start=1):
            fw.set_parameter("InitialCondition", f"spot{k}_x", x)
            fw.set_parameter("InitialCondition", f"spot{k}_y", y)

    def check(self, op: Op) -> None:
        ref, out = self.refs, op.outputs
        if not _close(out["T_max"], ref["T_max"], REF_RTOL):
            op.errors.append(f"T_max {out['T_max']!r} != ref {ref['T_max']!r}")
        for key in ("nlevels", "total_cells"):
            if out[key] != ref[key]:
                op.errors.append(f"{key} {out[key]} != ref {ref[key]}")
        self.check_inputs(op)

    def inputs(self) -> dict[str, Any]:
        return {"spots": [list(p) for p in self.spots()]}


class ShockAmr3(WorldWorkload):
    """§4.3 shock-interface, Godunov fluxes, 3 levels, regrid every 3
    steps, on 2 ``mp`` worker processes.  Deterministic: the problem has
    no random input, so the seed changes nothing (recorded in the
    reference file)."""

    name = "shock_amr3"
    backend = "mp"
    mesh = "AMRMesh"
    config = dict(nx=8, ny=4, max_levels=3, t_end_over_tau=0.1,
                  regrid_interval=3, initial_regrids=2, flux_scheme="godunov")

    def build(self, fw) -> None:
        from repro.apps.shock_interface import build_shock_interface

        build_shock_interface(fw, **self.config)

    def check(self, op: Op) -> None:
        ref, out = self.refs, op.outputs
        for key in ("steps", "nlevels", "total_cells"):
            if out[key] != ref[key]:
                op.errors.append(f"{key} {out[key]} != ref {ref[key]}")
        if not _close(out["circulation_final"], ref["circulation_final"],
                      REF_RTOL):
            op.errors.append(f"circulation {out['circulation_final']!r} != "
                             f"ref {ref['circulation_final']!r}")

    def compare(self, par: Op, base: Op) -> None:
        a, b = par.outputs, base.outputs
        for key in ("steps", "total_cells"):
            if a[key] != b[key]:
                par.errors.append(f"2-rank {key} {a[key]} != 1-rank {b[key]}")
        if not _close(a["circulation_final"], b["circulation_final"], 1e-12):
            par.errors.append(
                f"2-rank circulation {a['circulation_final']!r} != 1-rank "
                f"{b['circulation_final']!r}")


class IgnitionSweep(Workload):
    """§4.1 0D H2-air ignition as serve jobs: 2 workers, batching on.

    Tenant A sweeps a 2x2 ``Initializer.T0`` x ``Initializer.phi`` grid;
    then tenant B resubmits the same grid (cache hits) plus a 1x2 grid of
    fresh points (computed).  The seed picks each grid value from a small
    band around a fixed centre, so the work per cycle hardly depends on
    the seed, and every value the seed can pick has a stored reference.
    """

    name = "ignition_sweep"
    settings = {"Driver.t_end": 1e-5, "Driver.n_output": 1}
    #: service start is mostly the cache's code fingerprint, which runs
    #: ``git rev-parse`` in a subprocess, plus thread starts: its median
    #: read 4.1-4.7 ms while the host speed index swung from 1.2 to 2.0
    setup_tracks_host = False
    #: (centre, step) of each grid axis; the seed picks centre + k*step,
    #: k in -2..2
    bands = {"a_T0": ((1000.0, 2.0), (1060.0, 2.0)),
             "a_phi": ((0.90, 0.01), (1.10, 0.01)),
             "fresh_T0": ((1030.0, 2.0),),
             "fresh_phi": ((0.95, 0.01), (1.05, 0.01))}

    def __init__(self, seed: int, refs: dict | None = None) -> None:
        super().__init__(seed, refs)
        rng = random.Random(seed)
        pick = {axis: [round(c + rng.randint(-2, 2) * s, 2)
                       for c, s in bands]
                for axis, bands in sorted(self.bands.items())}
        self.grid = {"Initializer.T0": pick["a_T0"],
                     "Initializer.phi": pick["a_phi"]}
        self.fresh = {"Initializer.T0": pick["fresh_T0"],
                      "Initializer.phi": pick["fresh_phi"]}
        self.workdir: str | None = None
        self._n = 0

    def _service_root(self, kind: str) -> str:
        """A fresh service root; all of them live in one work directory
        inside the checkout, removed by :meth:`close`."""
        if self.workdir is None:
            self.workdir = tempfile.mkdtemp(prefix=".perfbench-",
                                            dir=os.path.dirname(HERE))
        self._n += 1
        return os.path.join(self.workdir, f"{kind}-{self._n}")

    @staticmethod
    def ref_key(T0: float, phi: float) -> str:
        return f"{T0:.1f}:{phi:.2f}"

    def inputs(self) -> dict[str, Any]:
        return {"grid": self.grid, "fresh": self.fresh}

    def conditions(self) -> list[tuple[float, float]]:
        pts = []
        for grid in (self.grid, self.fresh):
            pts += itertools.product(grid["Initializer.T0"],
                                     grid["Initializer.phi"])
        return pts

    def _check_result(self, T0: float, phi: float, res: dict,
                      errors: list[str]) -> None:
        ref = self.refs["conditions"].get(self.ref_key(T0, phi))
        if ref is None:
            errors.append(f"no reference for T0={T0} phi={phi}")
            return
        # the sweep stops before ignition: T_final - T0 is micro-kelvins,
        # so T_final is compared absolutely, the product mass fraction
        # relatively
        if not _close(res["T_final"], ref["T_final"], 0.0, 1e-9):
            errors.append(f"T_final {res['T_final']!r} != ref "
                          f"{ref['T_final']!r} at {T0}/{phi}")
        if not _close(res["Y_H2O_final"], ref["Y_H2O_final"], REF_RTOL):
            errors.append(f"Y_H2O_final {res['Y_H2O_final']!r} != ref "
                          f"{ref['Y_H2O_final']!r} at {T0}/{phi}")

    def cycle(self, tracer: LayerTracer | None = None) -> Op:
        from repro.apps.assemblies import IGNITION0D_SCRIPT
        from repro.serve import SimulationService

        root = self._service_root("cycle")
        cpu0 = _os_cpu()
        t0 = perf_counter()
        svc = SimulationService(root, workers=self.parallelism)
        try:
            a_ids = svc.sweep(IGNITION0D_SCRIPT, self.grid,
                              params=self.settings, tenant="A")
            svc.drain()
            b_ids = svc.sweep(IGNITION0D_SCRIPT, self.grid,
                              params=self.settings, tenant="B")
            f_ids = svc.sweep(IGNITION0D_SCRIPT, self.fresh,
                              params=self.settings, tenant="B")
            svc.drain()
        finally:
            svc.close()
        wall = perf_counter() - t0
        cpu = _os_cpu() - cpu0
        counters = tracer.collect() if tracer is not None else {}
        op = Op(wall=wall, cpu=cpu,
                attempted=len(a_ids) + len(b_ids) + len(f_ids),
                counters=counters)
        records = {j: svc.store.get_record(j) for j in a_ids + b_ids + f_ids}
        results = {}
        for j, rec in records.items():
            if rec.state != "done":
                op.errors.append(f"job {j} ended {rec.state}: {rec.error}")
                continue
            results[j] = svc.result(j)["result"]
        computed = [r for r in records.values()
                    if r.state == "done" and not r.cache_hit]
        op.latencies = [r.finished - r.created for r in computed]
        if tracer is not None:
            op.extras = {
                "serve.queue_wait_p50_s": statistics.median(
                    r.started - r.created for r in computed),
                "serve.run_p50_s": statistics.median(
                    r.finished - r.started for r in computed),
            }
        points = self.conditions()
        for j, (T0, phi) in zip(a_ids + f_ids, points):
            if j in results:
                self._check_result(T0, phi, results[j], op.errors)
        for a, b in zip(a_ids, b_ids):
            if not records[b].cache_hit:
                op.errors.append(f"resubmitted job {b} missed the cache")
            if a in results and b in results and results[a] != results[b]:
                op.errors.append(f"cache hit {b} differs from its twin {a}")
        op.outputs = [results.get(j) for j in a_ids + f_ids]
        self.check_inputs(op)
        shutil.rmtree(root, ignore_errors=True)
        return op

    def setup_sample(self) -> float:
        from repro.serve import SimulationService

        root = self._service_root("setup")
        t0 = perf_counter()
        svc = SimulationService(root, workers=self.parallelism)
        setup = perf_counter() - t0
        svc.close()
        shutil.rmtree(root, ignore_errors=True)
        return setup

    def baseline(self) -> Op:
        """The same conditions through the library batch call, with no
        service around it."""
        from repro.apps.assemblies import IGNITION0D_SCRIPT
        from repro.apps.ignition0d import run_ignition0d_batch
        from repro.serve.batching import plan_for

        points = self.conditions()
        plans = [plan_for(IGNITION0D_SCRIPT, {
            **self.settings, "Initializer.T0": T0, "Initializer.phi": phi})
            for T0, phi in points]
        cpu0 = _os_cpu()
        t0 = perf_counter()
        results = run_ignition0d_batch([p.condition for p in plans],
                                       **plans[0].settings)
        op = Op(wall=perf_counter() - t0, cpu=_os_cpu() - cpu0,
                outputs=results)
        for (T0, phi), res in zip(points, results):
            self._check_result(T0, phi, res, op.errors)
        return op

    def compare(self, par: Op, base: Op) -> None:
        """Served results must equal the library call bitwise."""
        for (T0, phi), served, res in zip(self.conditions(), par.outputs,
                                          base.outputs):
            if served is not None and (
                    served["T_final"] != res["T_final"]
                    or served["Y_H2O_final"] != res["Y_H2O_final"]):
                par.errors.append(f"served result differs from the library "
                                  f"call at {T0}/{phi}")

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FlameCvode, ShockAmr3, IgnitionSweep)}

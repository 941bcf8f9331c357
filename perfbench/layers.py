"""Per-layer counters for the traced benchmark run, collected from outside.

The program under test carries no benchmark spans.  For a traced run this
module swaps selected public functions and methods of ``repro`` for timing
wrappers, and puts every original back afterwards.  The method is the
same on every workload and backend, so numbers compare across commits:

* **Where to patch.**  Components import helpers by name (``from
  repro.samr.ghost import exchange_ghosts``), so a wrapper is installed
  where the caller looks the name up (``repro.components.grace``), and
  methods are patched on the class that defines them.
* **Clocks.**  Layer times are thread CPU time, so a rank-thread waiting
  for the interpreter lock is not charged for the other rank's work.
  Blocking groups (receives, probes, collectives) also record wall time,
  which is what ``mpi.wait_s`` reports.
* **Self time.**  Wrappers nest.  Each thread keeps a stack of open
  frames; a frame's self time is its duration minus the wrapped calls
  made inside it.  A group's inclusive time and call count are taken at
  its outermost frame only, so ``wdot`` calling ``progress_rates`` is one
  rate evaluation, not two.
* **Per rank.**  Counters live in one bucket per thread, written only by
  that thread, so rank-threads that share the wrappers never contend.
  A rank's ``main`` opens :meth:`LayerTracer.rank_scope`, which gives
  it a fresh bucket, and returns that bucket through ``mpirun``'s
  per-rank result list.  The same code path carries the counters home
  from forked ``mp`` workers.  Buckets of other threads (serve workers,
  the launching thread) are merged by :meth:`LayerTracer.collect`.

Times are summed over ranks and threads.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time
from typing import Any, Callable, Iterator

import numpy as np


class _ThreadState:
    __slots__ = ("bucket", "stack", "depth")

    def __init__(self) -> None:
        self.bucket: defaultdict[str, float] = defaultdict(float)
        self.stack: list[list[float]] = []
        self.depth: dict[str, int] = {}


Hook = Callable[..., Any]


class LayerTracer:
    """Installs timing wrappers and accumulates their counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- counters ---------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    @contextmanager
    def rank_scope(self) -> Iterator[defaultdict]:
        """A fresh bucket for one rank's run on this thread.

        The bucket is not merged by :meth:`collect`; the rank returns it
        to the launcher, which adds it explicitly.
        """
        prev = getattr(self._local, "st", None)
        st = _ThreadState()
        self._local.st = st
        try:
            yield st.bucket
        finally:
            self._local.st = prev

    def reset(self) -> None:
        """Zero every registered bucket (call while no wrapped code runs)."""
        with self._lock:
            for st in self._states:
                st.bucket.clear()

    def collect(self, *rank_buckets: dict) -> dict[str, float]:
        """Sum of the registered buckets plus ``rank_buckets``."""
        total: defaultdict[str, float] = defaultdict(float)
        with self._lock:
            buckets = [dict(st.bucket) for st in self._states]
        for b in buckets + [dict(b) for b in rank_buckets]:
            for k, v in b.items():
                total[k] += v
        return dict(total)

    # -- wrapping ---------------------------------------------------------
    def timed(self, fn: Callable, group: str, before: Hook | None = None,
              after: Hook | None = None, wall: bool = False) -> Callable:
        """``fn`` wrapped to count calls and time under ``group``.

        ``before(args, kwargs)`` returns a token; ``after(bucket, args,
        kwargs, result, token)`` adds derived counters on success.  With
        ``wall`` the group also accumulates wall time in ``group.wall_s``.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            token = before(args, kwargs) if before is not None else None
            depth = st.depth.get(group, 0)
            st.depth[group] = depth + 1
            frame = [0.0]
            st.stack.append(frame)
            w0 = perf_counter() if wall else 0.0
            t0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = thread_time() - t0
                if wall and depth == 0:
                    st.bucket[group + ".wall_s"] += perf_counter() - w0
                st.stack.pop()
                st.depth[group] = depth
                bucket = st.bucket
                bucket[group + ".self_s"] += elapsed - frame[0]
                if st.stack:
                    st.stack[-1][0] += elapsed
                if depth == 0:
                    bucket[group + ".calls"] += 1
                    bucket[group + ".s"] += elapsed
            if after is not None:
                after(st.bucket, args, kwargs, result, token)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, group: str,
             before: Hook | None = None, after: Hook | None = None) -> None:
        self.patch(owner, attr, self.timed(vars(owner)[attr], group,
                                           before, after,
                                           wall=group in WALL_GROUPS))

    def originals(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original object)`` for every live patch."""
        return list(self._patches)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        install(self)
        try:
            yield self
        finally:
            self.restore()


# ------------------------------------------------------------ hook helpers
def _array_bytes(obj: Any) -> int:
    """Bytes of the ndarrays inside a message (computed, not measured)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(o) for o in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(o) for o in obj.values())
    return 0


def _owned_cells(dobj) -> int:
    return sum(int(np.prod(dobj.interior(p).shape[1:]))
               for p in dobj.owned_patches())


def _cvode_before(args, kwargs):
    s = args[0].stats
    return (s.nsteps, s.nfe, s.nje, s.nerrfail, s.nconvfail)


def _cvode_after(bucket, args, kwargs, result, token):
    cv = args[0]
    s = cv.stats
    steps, nfe, nje, errf, convf = token
    bucket["cvode.steps"] += s.nsteps - steps
    bucket["cvode.nfe"] += s.nfe - nfe
    bucket["cvode.nje"] += s.nje - nje
    bucket["cvode.failed_steps"] += ((s.nerrfail - errf)
                                     + (s.nconvfail - convf))
    # a finite-difference Jacobian costs f0 plus one RHS per column
    bucket["cvode.jac_rhs"] += (s.nje - nje) * (cv.n + 1)


def _adaptor_before(args, kwargs):
    _, dobj, _, _, port = args
    return port.cells_integrated, _owned_cells(dobj)


def _adaptor_after(bucket, args, kwargs, result, token):
    before, total = token
    done = args[4].cells_integrated - before
    bucket["chemistry.cells_integrated"] += done
    bucket["chemistry.cells_skipped"] += total - done


def _cells_before(args, kwargs):
    return _owned_cells(args[1])


def _cells_after(bucket, args, kwargs, result, token):
    bucket["samr.cell_updates"] += token


def _rkc_after(bucket, args, kwargs, result, token):
    bucket["rkc.stages"] += kwargs.get("stages", 0)


def _send_after(bucket, args, kwargs, result, token):
    bucket["mpi.bytes"] += _array_bytes(args[1])


def _shm_after(bucket, args, kwargs, result, token):
    envelope, nbytes = result
    if envelope[0] == "shm":
        bucket["exec.shm_messages"] += 1
        bucket["exec.shm_bytes"] += nbytes


def _cache_get_after(bucket, args, kwargs, result, token):
    bucket["serve.cache_lookups"] += 1
    if result is not None:
        bucket["serve.cache_hits"] += 1


def _batch_after(bucket, args, kwargs, result, token):
    bucket["serve.batches"] += 1
    bucket["serve.batched_jobs"] += len(args[0])


#: groups whose calls block on other ranks
WALL_GROUPS = ("mpi.wait", "mpi.coll")

#: (module, class or None, attributes, group, before, after)
WRAPS: list[tuple[str, str | None, tuple[str, ...], str,
                  Hook | None, Hook | None]] = [
    # chemistry kernels
    ("repro.components.thermochem", "_Source", ("rhs",),
     "chemistry.rhs", None, None),
    ("repro.components.problem_modeler", "_ModelRHS", ("rhs",),
     "chemistry.rhs", None, None),
    ("repro.chemistry.mechanism", "Mechanism", ("progress_rates", "wdot"),
     "chemistry.rates", None, None),
    ("repro.chemistry.mechanism", "Mechanism",
     ("cp_mass", "cv_mass", "h_mass_species", "u_mass_species", "h_mass"),
     "chemistry.thermo", None, None),
    ("repro.components.implicit_adaptor", "ImplicitIntegrator", ("advance",),
     "chemistry.adaptor", _adaptor_before, _adaptor_after),
    # integrators
    ("repro.integrators.cvode", "CVode", ("integrate_to",),
     "integrators.cvode", _cvode_before, _cvode_after),
    ("repro.components.explicit_integrator", None, ("rkc_step",),
     "integrators.rkc", None, _rkc_after),
    ("repro.components.rk2_integrator", None, ("rk2_step",),
     "integrators.rk2", None, None),
    ("repro.components.explicit_integrator", "ExplicitIntegrator",
     ("advance",), "integrators.advance", _cells_before, _cells_after),
    ("repro.components.rk2_integrator", "ExplicitIntegratorRK2",
     ("advance",), "integrators.advance", _cells_before, _cells_after),
    # the patch RHS operators an explicit step calls (their time is not
    # the integrator's own)
    ("repro.components.diffusion_physics", "_DiffusionRHS", ("evaluate",),
     "rhs.patch", None, None),
    ("repro.components.inviscid_flux", "_InviscidRHS", ("evaluate",),
     "rhs.patch", None, None),
    # transport
    ("repro.transport.diffusion", "MixtureTransport",
     ("diffusion_coefficients", "conductivity", "thermal_diffusivity",
      "max_diffusion_coefficient"), "transport", None, None),
    # hydro
    ("repro.components.inviscid_flux", None, ("euler_rhs",),
     "hydro.rhs", None, None),
    ("repro.hydro.godunov", None, ("sample_riemann",),
     "hydro.riemann", None, None),
    # samr
    ("repro.components.grace", None, ("exchange_ghosts",),
     "samr.ghost", None, None),
    ("repro.components.error_regrid", None, ("samr_regrid",),
     "samr.regrid", None, None),
    ("repro.components.grace", None, ("restrict_level",),
     "samr.restrict", None, None),
    ("repro.components.explicit_integrator", None, ("restrict_level",),
     "samr.restrict", None, None),
    ("repro.components.rk2_integrator", None, ("restrict_level",),
     "samr.restrict", None, None),
    # mpi (threads Comm, mp MPComm, shared collective front-ends)
    ("repro.mpi.comm", "Comm", ("send", "isend", "sendrecv"),
     "mpi.send", None, _send_after),
    ("repro.exec.mp", "MPComm", ("send", "isend", "sendrecv"),
     "mpi.send", None, _send_after),
    ("repro.mpi.comm", "Comm", ("recv", "probe"), "mpi.wait", None, None),
    ("repro.exec.mp", "MPComm", ("recv", "probe"), "mpi.wait", None, None),
    ("repro.mpi.comm", "Request", ("wait",), "mpi.wait", None, None),
    ("repro.mpi.collectives", "CollectiveMixin",
     ("barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
      "scatter", "alltoall"), "mpi.coll", None, None),
    # exec
    ("repro.exec.shm", None, ("encode_message",), "exec.encode", None,
     _shm_after),
    # cca
    ("repro.cca.services", "Services", ("get_port",), "cca.get_port",
     None, None),
    # serve
    ("repro.serve.service", "SimulationService", ("submit", "sweep"),
     "serve.submit", None, None),
    ("repro.serve.service", None, ("check_job", "coerce_job_params"),
     "serve.admission", None, None),
    ("repro.serve.jobs", "JobStore",
     ("new_job", "job_ids", "get_spec", "get_record", "records",
      "save_record", "transition", "write_result", "read_result"),
     "serve.store", None, None),
    ("repro.serve.cache", "ResultCache", ("get",), "serve.cache", None,
     _cache_get_after),
    ("repro.serve.cache", "ResultCache", ("key", "put"), "serve.cache",
     None, None),
    ("repro.apps.ignition0d", None, ("run_ignition0d_batch",),
     "serve.batch", None, _batch_after),
]


def install(tracer: LayerTracer) -> None:
    """Install every wrapper of :data:`WRAPS` (plus the 0D batch RHS)."""
    for module, cls, attrs, group, before, after in WRAPS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        for attr in attrs:
            tracer.wrap(owner, attr, group, before, after)
    # the batched 0D path builds one RHS closure per condition: wrap the
    # closure the factory returns
    zerod = importlib.import_module("repro.chemistry.zerod")
    factory = vars(zerod)["constant_volume_rhs"]

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        return tracer.timed(factory(*args, **kwargs), "chemistry.rhs")

    tracer.patch(zerod, "constant_volume_rhs", traced_factory)


def is_count(name: str) -> bool:
    """Whether a per-layer metric counts work (and so must repeat exactly
    across traced runs of one seed)."""
    return name.endswith(("_calls", "_steps", "_nfe", "_nje", "_solves",
                          "_stages", ".messages", ".cell_updates",
                          ".collectives", ".cache_lookups", "_ops",
                          "_integrated", "_skipped", ".regrids"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(c: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values of one operation from its merged counters
    (``extras`` a workload measured itself are merged by the caller)."""
    g = lambda key: c.get(key, 0.0)  # noqa: E731
    steps, failed = g("cvode.steps"), g("cvode.failed_steps")
    return {
        "chemistry.rhs_calls": g("chemistry.rhs.calls"),
        "chemistry.rhs_s": g("chemistry.rhs.s"),
        "chemistry.us_per_rhs": 1e6 * _ratio(g("chemistry.rhs.s"),
                                             g("chemistry.rhs.calls")),
        "chemistry.rates_s": g("chemistry.rates.s"),
        "chemistry.thermo_s": g("chemistry.thermo.s"),
        "chemistry.cells_integrated": g("chemistry.cells_integrated"),
        "chemistry.cells_skipped": g("chemistry.cells_skipped"),
        "integrators.cvode_solves": g("integrators.cvode.calls"),
        "integrators.cvode_steps": steps,
        "integrators.cvode_nfe": g("cvode.nfe"),
        "integrators.cvode_nje": g("cvode.nje"),
        "integrators.cvode_step_accept_ratio": _ratio(steps, steps + failed),
        "integrators.jac_rhs_share": _ratio(g("cvode.jac_rhs"),
                                            g("cvode.nfe")),
        "integrators.cvode_self_s": g("integrators.cvode.self_s"),
        "integrators.rkc_steps": g("integrators.rkc.calls"),
        "integrators.rkc_stages": g("rkc.stages"),
        "integrators.rkc_self_s": g("integrators.rkc.self_s"),
        "integrators.rk2_steps": g("integrators.rk2.calls"),
        "integrators.rk2_self_s": g("integrators.rk2.self_s"),
        "transport.calls": g("transport.calls"),
        "transport.s": g("transport.s"),
        "hydro.rhs_calls": g("hydro.rhs.calls"),
        "hydro.rhs_s": g("hydro.rhs.s"),
        "hydro.riemann_s": g("hydro.riemann.s"),
        "samr.ghost_calls": g("samr.ghost.calls"),
        "samr.ghost_s": g("samr.ghost.s"),
        "samr.regrids": g("samr.regrid.calls"),
        "samr.regrid_s": g("samr.regrid.s"),
        "samr.restrict_s": g("samr.restrict.s"),
        "samr.cell_updates": g("samr.cell_updates"),
        "mpi.messages": g("mpi.send.calls"),
        "mpi.bytes_computed": g("mpi.bytes"),
        "mpi.collectives": g("mpi.coll.calls"),
        "mpi.wait_s": g("mpi.wait.wall_s") + g("mpi.coll.wall_s"),
        "exec.shm_messages": g("exec.shm_messages"),
        "exec.shm_bytes": g("exec.shm_bytes"),
        "cca.get_port_calls": g("cca.get_port.calls"),
        "cca.get_port_s": g("cca.get_port.s"),
        "serve.submit_s": g("serve.submit.s"),
        "serve.admission_s": g("serve.admission.s"),
        "serve.store_ops": g("serve.store.calls"),
        "serve.store_s": g("serve.store.s"),
        "serve.cache_lookups": g("serve.cache_lookups"),
        "serve.cache_hit_ratio": _ratio(g("serve.cache_hits"),
                                        g("serve.cache_lookups")),
        "serve.cache_s": g("serve.cache.s"),
        "serve.batch_occupancy": _ratio(g("serve.batched_jobs"),
                                        g("serve.batches")),
    }

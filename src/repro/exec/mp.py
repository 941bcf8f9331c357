"""The ``mp`` backend: real worker processes, shared-memory arrays.

Where the ``threads`` backend emulates "P processors" with rank-threads
and virtual clocks, this backend actually forks P worker processes —
real cores, real wall-clock speedups, real private address spaces (the
property the paper's SCMD mode takes for granted and rank-threads
violate).  The pieces:

* **Transport** — each rank owns a ``multiprocessing.Queue`` inbox;
  envelopes are produced by :func:`repro.exec.shm.encode_message`, so
  small messages ride the pipe in-band while large array payloads move
  through shared-memory segments with a zero-copy receive.
* **Communicator** — :class:`MPComm` mirrors
  :class:`repro.mpi.comm.Comm` method-for-method (p2p, probes,
  requests, split, interceptor hooks); the clock helpers, ``irecv``,
  ``dup`` and the collective front-ends come from the same
  :class:`~repro.mpi.collectives.CollectiveMixin`, driven here by a
  gather-to-local-root / broadcast-result rendezvous.  Because the
  ``finish`` reduction runs exactly once (on comm rank 0, in sorted
  rank order), collective results are bit-identical with the threads
  backend.
* **Failure paths** — a crashed rank pickles its traceback *text* back
  to the parent (:class:`~repro.mpi.launcher.RemoteRankError`) and trips
  a shared abort event so its peers raise
  :class:`~repro.errors.CommAbortedError` instead of deadlocking;
  silently-dead processes (``os.kill``, segfault) are detected by the
  parent's reaper and synthesized into the same
  :class:`~repro.mpi.launcher.RankFailure`.
* **Fault injection** — workers inherit the armed plan *and counters*
  at fork (so ``kill_max_fires`` survives a supervised restart) and
  ship their final counters home; the parent folds the per-worker
  deltas back into its own counters, keeping
  :func:`repro.resilience.faults.injected_counts` accurate across
  process boundaries.

The runtime race sanitizer is thread-backend-only by construction — its
vector-clock shadow table assumes a shared address space.  Selecting
``mp`` while ``REPRO_TSAN`` is armed degrades to a
:class:`RuntimeWarning` and runs unsanitized.

Start method: ``fork`` (required — SCMD ``main`` callables are
closures, which cannot cross a ``spawn`` boundary).  Platforms without
``fork`` report unavailable.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as _queue
import time
import traceback
import warnings
from typing import Any, Callable, Sequence

from repro.errors import CommAbortedError, MPIError
from repro.exec import shm as _shm
from repro.exec.base import ExecBackend
from repro.mpi.collectives import CollectiveMixin
from repro.mpi.comm import (ANY_SOURCE, ANY_TAG, Comm, Request, Status,
                            _Message, _RankState)
from repro.mpi.perfmodel import MachineModel, LOCALHOST
from repro.mpi import sanitizer as _tsan
from repro.obs import intercept as _intercept
from repro.obs import profiler as _profiler
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.resilience import faults as _faults
from repro.util import logging as rlog

_POLL_INTERVAL = 0.05
#: grace period between "worker process is dead" and "synthesize its
#: failure" — covers the window where its last record is still in flight.
_DEATH_GRACE = 1.0
#: the world communicator's id on this backend (ids are strings derived
#: deterministically, no central allocator — see MPComm.split).
WORLD_ID = "w"


class _Station:
    """One worker's post office: its inbox, peers' inboxes, the abort
    flag, and the stash of not-yet-consumed envelopes.

    Envelope kinds on an inbox (all payloads via
    :func:`~repro.exec.shm.encode_message`):

    * ``("p2p", comm_id, (source, tag, nbytes, avail_time), env)`` —
      env decodes to the payload;
    * ``("coll", comm_id, seq, env)`` — a member's contribution to the
      comm's local root; decodes to ``(rank, contribution, clock)``;
    * ``("collr", comm_id, seq, env)`` — the root's result broadcast;
      decodes to ``(result, exit_clock)``.

    Out-of-order arrival across communicators/sequences is absorbed by
    the stash; a matching wait never consumes someone else's envelope.
    """

    def __init__(self, rank: int, nprocs: int, inboxes: list, abort,
                 machine: MachineModel) -> None:
        self.rank = rank
        self.nprocs = nprocs
        self.inboxes = inboxes
        self.abort = abort
        self.machine = machine
        self._p2p: dict[str, list[_Message]] = {}
        self._coll: dict[tuple[str, int], dict[int, tuple[Any, float]]] = {}
        self._collr: dict[tuple[str, int], tuple[Any, float]] = {}

    def check_alive(self) -> None:
        if self.abort.is_set():
            raise CommAbortedError("world aborted by a peer rank")

    def post(self, dest_global: int, item: tuple) -> None:
        self.inboxes[dest_global].put(item)

    def _pump(self, timeout: float) -> None:
        """File inbox envelopes into the stash; wait up to ``timeout``
        for the first when none are ready."""
        inbox = self.inboxes[self.rank]
        try:
            item = inbox.get(timeout=timeout)
        except _queue.Empty:
            return
        while True:
            self._file(item)
            try:
                item = inbox.get_nowait()
            except _queue.Empty:
                return

    def _file(self, item: tuple) -> None:
        kind = item[0]
        if kind == "p2p":
            _, cid, header, env = item
            source, tag, nbytes, avail = header
            payload = _shm.decode_message(env)
            self._p2p.setdefault(cid, []).append(
                _Message(source, tag, payload, nbytes, avail))
        elif kind == "coll":
            _, cid, seq, env = item
            rank, contribution, clock = _shm.decode_message(env)
            self._coll.setdefault((cid, seq), {})[rank] = (contribution,
                                                           clock)
        elif kind == "collr":
            _, cid, seq, env = item
            self._collr[(cid, seq)] = _shm.decode_message(env)
        else:  # pragma: no cover - protocol bug guard
            raise MPIError(f"unknown mp envelope kind {kind!r}")

    # -- waits (all poll the abort flag) ----------------------------------
    def _until(self, found: Callable[[], Any]) -> Any:
        """Pump the inbox until ``found()`` returns something."""
        while (hit := found()) is None:
            self.check_alive()
            self._pump(_POLL_INTERVAL)
        return hit

    def wait_p2p(self, cid: str, source: int, tag: int) -> _Message:
        return self._until(lambda: Comm._match(
            self._p2p.get(cid, []), source, tag, remove=True))

    def peek_p2p(self, cid: str, source: int, tag: int,
                 block: bool) -> _Message | None:
        def peek():
            return Comm._match(self._p2p.get(cid, []), source, tag,
                               remove=False)

        return self._until(peek) if block else peek()

    def wait_contribs(self, cid: str, seq: int,
                      expected: int) -> dict[int, tuple[Any, float]]:
        """Block until ``expected`` non-root contributions arrived."""
        key = (cid, seq)
        self._until(lambda: len(self._coll.get(key, {})) >= expected or None)
        return self._coll.pop(key, {})

    def wait_result(self, cid: str, seq: int) -> tuple[Any, float]:
        return self._until(lambda: self._collr.pop((cid, seq), None))


class MPComm(CollectiveMixin):
    """One rank's communicator on the ``mp`` backend.

    API-compatible with :class:`repro.mpi.comm.Comm` (the SCMD layer
    never sees the difference); ``members`` maps comm rank -> global
    rank so scoped communicators route over the same per-rank inboxes.
    """

    def __init__(self, station: _Station, comm_id: str, rank: int,
                 size: int, global_rank: int, members: list[int]) -> None:
        self._station = station
        self.id = comm_id
        self.rank = rank
        self.size = size
        self.global_rank = global_rank
        self._members = members
        self._coll_seq = 0
        self._split_seq = 0
        self._state = _RankState()

    @property
    def world(self) -> "MPComm":  # minimal World-ish surface
        return self

    @property
    def machine(self) -> MachineModel:
        return self._station.machine

    def check_alive(self) -> None:
        self._station.check_alive()

    # -- point-to-point ---------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking buffered send."""
        self._post_send(obj, dest, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (buffered, completes immediately)."""
        self._post_send(obj, dest, tag)
        return Request(lambda: None, lambda: True)

    def _post_send(self, obj: Any, dest: int, tag: int) -> None:
        self._station.check_alive()
        if not (0 <= dest < self.size):
            raise MPIError(
                f"send dest {dest} out of range for size {self.size}")
        armed = _intercept.armed
        t0 = time.perf_counter() if armed else 0.0
        self._sync()
        env, nbytes = _shm.encode_message(obj)
        machine = self._station.machine
        avail = self._state.clock + machine.p2p_time(nbytes)
        self._state.clock += machine.send_overhead(nbytes)
        if armed:
            fate = _intercept.send(self, dest, tag, nbytes, t0)
            if fate is None:
                _shm.discard_message(env)  # nobody will ever attach it
                return
            avail += fate.delay
        header = (self.rank, tag, nbytes, avail)
        self._station.post(self._members[dest],
                           ("p2p", self.id, header, env))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None) -> Any:
        """Blocking receive; wildcards ``ANY_SOURCE`` / ``ANY_TAG``."""
        armed = _intercept.armed
        t0 = time.perf_counter() if armed else 0.0
        self._sync()
        vt_in = self._state.clock
        msg = self._station.wait_p2p(self.id, source, tag)
        self._state.clock = max(self._state.clock, msg.avail_time)
        if armed:
            _intercept.recv(self, msg, t0, vt_in)
        if status is not None:
            status.source = msg.source
            status.tag = msg.tag
            status.nbytes = msg.nbytes
        return msg.payload

    def sendrecv(self, sendobj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG,
                 status: Status | None = None) -> Any:
        """Combined send+receive (deadlock-free pairwise exchange)."""
        self._post_send(sendobj, dest, sendtag)
        return self.recv(source, recvtag, status)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Block until a matching message is available; don't consume."""
        msg = self._station.peek_p2p(self.id, source, tag, block=True)
        return Status(msg.source, msg.tag, msg.nbytes)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is waiting."""
        self._station.check_alive()
        self._station._pump(0.0)
        return self._station.peek_p2p(self.id, source, tag,
                                      block=False) is not None

    # -- collectives ------------------------------------------------------
    def _collective(self, contribution: Any,
                    finish: Callable[[dict[int, Any]], tuple[Any, float]],
                    label: str = "collective") -> Any:
        """Gather-to-local-root rendezvous: every member ships its
        contribution (and entry clock) to comm rank 0, which runs
        ``finish`` exactly once and broadcasts ``(result, exit_clock)``.
        Same contract as the threads rendezvous: everyone leaves at
        ``max(entry clocks) + comm_cost`` holding the shared result."""
        armed = _intercept.armed
        t0 = time.perf_counter() if armed else 0.0
        self._sync()
        self._coll_seq += 1
        seq = self._coll_seq
        station = self._station
        if self.rank == 0:
            others = station.wait_contribs(self.id, seq, self.size - 1)
            contribs = {r: c for r, (c, _) in others.items()}
            contribs[0] = contribution
            entry_max = max([clk for _, clk in others.values()]
                            + [self._state.clock])
            result, cost = finish(contribs)
            exit_clock = entry_max + cost
            # one envelope per member: a shm segment is single-consumer
            # (the receiver unlinks it at attach), so the result cannot
            # ride one shared envelope
            for member in range(1, self.size):
                wire, _ = _shm.encode_message((result, exit_clock))
                station.post(self._members[member],
                             ("collr", self.id, seq, wire))
        else:
            wire, _ = _shm.encode_message(
                (self.rank, contribution, self._state.clock))
            station.post(self._members[0], ("coll", self.id, seq, wire))
            result, exit_clock = station.wait_result(self.id, seq)
        self._state.clock = max(self._state.clock, exit_clock)
        if armed:
            _intercept.coll_depart(self, None, label, t0)
        return result

    # barrier/bcast/reduce/allreduce/gather/allgather/scatter/alltoall
    # are inherited from CollectiveMixin, driven by _collective above.

    # -- communicator management -----------------------------------------
    def split(self, color: int, key: int | None = None) -> "MPComm":
        """Partition members by ``color``; order within a group by
        ``key``.  Comm ids are agreed *deterministically*: every member
        derives ``parent_id/split_seq:color`` locally — all members call
        split collectively, so their per-comm split counters agree and
        no central id allocator is needed across processes."""
        key = self.rank if key is None else key
        triples = self.allgather((color, key, self.rank, self.global_rank))
        self._split_seq += 1
        mine = sorted(
            (k, r, g) for (c, k, r, g) in triples if c == color)
        new_rank = [r for (_, r, _) in mine].index(self.rank)
        members = [g for (_, _, g) in mine]
        new_id = f"{self.id}/{self._split_seq}:{color}"
        child = MPComm(self._station, new_id, new_rank, len(members),
                       self.global_rank, members)
        child._state = self._state  # one clock per rank, as on threads
        return child

    def abort(self, reason: str = "user abort") -> None:
        """Abort the whole world."""
        self._station.abort.set()
        raise CommAbortedError(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MPComm(id={self.id!r}, rank={self.rank}/{self.size}, "
                f"global={self.global_rank})")


# ---------------------------------------------------------------- worker
def _obs_ship_enabled() -> bool:
    """``REPRO_OBS_SHIP=0`` disables worker observability shipping (the
    overhead bench uses it to isolate the shipping cost)."""
    return os.environ.get("REPRO_OBS_SHIP", "1").strip().lower() not in (
        "0", "false", "no", "off")


def _child_obs_setup(trace_ctx: dict | None) -> None:
    """Post-fork observability bootstrap for a worker rank.

    The fork hands the worker the parent's trace buffers, metrics
    values, and profiler ring *by value* — all of which the parent will
    keep and re-absorb, so the worker must drop them or every parent
    event would come home duplicated.  The session origin ``_t0`` and
    the enabled flags are kept (that is what makes the worker's events
    land on the parent's timeline), the launching thread's trace
    context is re-established, and the sampler thread — which did not
    survive the fork — is restarted fresh when ``REPRO_PROFILE`` armed
    the parent.
    """
    if _obs.on:
        _obs.child_reset()
        _obs_registry().reset()
        if trace_ctx:
            _obs._tls.ctx = dict(trace_ctx)
    if _profiler.on and _obs_ship_enabled():
        inherited = _profiler.get()
        _profiler.start(
            interval=inherited.interval if inherited is not None else None)


def _ship_obs(rank: int) -> Any:
    """Drain this worker's observability state into a blob envelope
    (``None`` when there is nothing to ship or shipping is disabled).

    The payload — span events, a metrics-registry snapshot, rank-tagged
    profiler samples — is pickled once and spooled through the shm
    transport when large, so a trace-heavy rank cannot clog the result
    pipe."""
    if not _obs_ship_enabled():
        return None
    prof = _profiler.stop() if _profiler.on else None
    if not _obs.on and prof is None:
        return None
    payload: dict[str, Any] = {"rank": rank}
    if _obs.on:
        payload["events"] = _obs.drain_events()
        payload["metrics"] = _obs_registry().snapshot()
    if prof is not None:
        payload["profile"] = [s._replace(rank=rank)
                              for s in prof.samples()]
    try:
        return _shm.encode_blob(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # unpicklable span arg: drop the rank's payload
        return None


def _fold_obs(records: dict[int, tuple]) -> None:
    """Parent-side half of obs shipping: decode every worker's payload
    (always — an undecoded blob would leak its shm segment) and fold
    events, metrics, and profiler samples into this process's session."""
    for rank in sorted(records):
        env = records[rank][-1]
        if env is None:
            continue
        try:
            payload = pickle.loads(_shm.decode_blob(env))
        except Exception:
            continue
        evs = payload.get("events")
        if evs:
            _obs.absorb(evs, label=f"mp-rank-{payload.get('rank', rank)}")
        snap = payload.get("metrics")
        if snap:
            _obs_registry().merge_snapshot(snap)
        samples = payload.get("profile")
        if samples:
            prof = _profiler.get()
            if prof is not None:
                prof.absorb(samples)


def _worker(rank: int, nprocs: int, machine: MachineModel,
            main: Callable[..., Any], args: Sequence[Any],
            inboxes: list, result_q, abort_evt,
            trace_ctx: dict | None = None) -> None:
    """Worker-process body for one rank (post-fork)."""
    # The sanitizer's shadow state is meaningless here: this process IS
    # the private address space.  Disarm locally (fork-isolated), which
    # also takes it off this worker's interceptor chain.
    _tsan.deactivate()
    _child_obs_setup(trace_ctx)
    # SAMR patch arrays go into shared segments for this rank's lifetime.
    from repro.samr import dataobject as _dobj
    _dobj.set_array_allocator(_shm.shm_allocator)

    station = _Station(rank, nprocs, inboxes, abort_evt, machine)
    comm = MPComm(station, WORLD_ID, rank, nprocs, rank,
                  list(range(nprocs)))
    record: tuple
    with rlog.rank_context(rank):
        try:
            comm.reset_clock()  # don't charge fork/bootstrap time
            value = main(comm, *args)
            record = ("ok", rank, value, comm.clock, _counts())
        except CommAbortedError as exc:
            record = ("aborted", rank, str(exc), _counts())
        except BaseException as exc:  # noqa: BLE001 - report all
            abort_evt.set()
            record = ("err", rank, type(exc).__name__, str(exc),
                      traceback.format_exc(), _counts())
        obs_env = _ship_obs(rank)
    record = record + (obs_env,)
    # Flush any still-buffered inter-rank messages before reporting:
    # Queue.put hands items to a feeder thread, and a receiver may be
    # blocked on something this rank sent just before finishing.
    for q in inboxes:
        q.close()
        q.join_thread()
    try:
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable per-rank result
        blob = pickle.dumps(
            ("err", rank, type(exc).__name__,
             f"rank result is not picklable: {exc}",
             traceback.format_exc(), _counts(), obs_env),
            protocol=pickle.HIGHEST_PROTOCOL)
    result_q.put(blob)
    result_q.close()
    result_q.join_thread()
    # Unlink this rank's shared patch segments explicitly: os._exit
    # skips finalizers, and unreleased names would survive as tracker
    # "leak" warnings at session shutdown.
    _shm.release_owned()
    # Hard exit: skip the parent's inherited atexit handlers (obs
    # flushers, bench ledger writers) — this is a rank, not the session.
    os._exit(0)


def _counts() -> dict | None:
    return _faults.snapshot_counts() if _faults.on else None


class MPBackend(ExecBackend):
    """P forked worker processes (see module docstring)."""

    name = "mp"
    description = ("forked worker processes + shared-memory arrays "
                   "(real cores)")

    def available(self) -> tuple[bool, str]:
        if "fork" not in multiprocessing.get_all_start_methods():
            return False, ("requires the 'fork' start method, which this "
                           "platform does not provide")
        return True, ""

    def run(self, nprocs: int, main: Callable[..., Any],
            args: Sequence[Any] = (), machine: MachineModel = LOCALHOST,
            return_clocks: bool = False) -> list[Any]:
        from repro.mpi.launcher import RankFailure, RemoteRankError

        if _tsan.on:
            warnings.warn(
                "REPRO_TSAN is armed but the race sanitizer is "
                "thread-backend only: its vector-clock shadow table needs "
                "the shared address space the 'mp' backend exists to "
                "remove. Running this world unsanitized — use "
                "backend='threads' to sanitize.",
                RuntimeWarning, stacklevel=3)

        ctx = multiprocessing.get_context("fork")
        # Spawn the resource tracker *before* forking so every worker
        # shares one tracker process — segments stranded by an abort are
        # then reclaimed when the whole family exits, and a worker's
        # early exit cannot unlink a sibling's in-flight segment.
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()

        inboxes = [ctx.Queue() for _ in range(nprocs)]
        result_q = ctx.Queue()
        abort_evt = ctx.Event()
        fault_base = _counts()
        trace_ctx = _obs.current_context() if _obs.on else None

        procs = [
            ctx.Process(target=_worker,
                        args=(rank, nprocs, machine, main, tuple(args),
                              inboxes, result_q, abort_evt, trace_ctx),
                        name=f"rank-{rank}", daemon=True)
            for rank in range(nprocs)
        ]
        for p in procs:
            p.start()

        records: dict[int, tuple] = {}
        dead_since: dict[int, float] = {}
        try:
            while len(records) < nprocs:
                try:
                    rec = pickle.loads(result_q.get(timeout=_POLL_INTERVAL))
                    records[rec[1]] = rec
                    continue
                except _queue.Empty:
                    pass
                now = time.monotonic()
                for rank, proc in enumerate(procs):
                    if rank in records or proc.is_alive():
                        continue
                    # Dead without a record: grace-wait for a final blob
                    # still in the pipe, then synthesize the failure.
                    first_seen = dead_since.setdefault(rank, now)
                    if now - first_seen < _DEATH_GRACE:
                        continue
                    abort_evt.set()
                    reason = (f"rank {rank} worker process died with exit "
                              f"code {proc.exitcode} before reporting a "
                              f"result")
                    records[rank] = (
                        "err", rank, "WorkerDied", reason,
                        f"WorkerDied: {reason} (killed or segfaulted; no "
                        f"Python traceback exists)", None, None)
        finally:
            for p in procs:
                p.join(timeout=5.0)
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=1.0)
            for q in inboxes + [result_q]:
                q.cancel_join_thread()
                q.close()

        # Fold worker obs payloads before anything can raise: failed
        # runs keep their partial traces, and skipping a decode would
        # leak the payload's shm segment.
        _fold_obs(records)

        if _faults.on and fault_base is not None:
            _faults.merge_counts(
                fault_base,
                [r[-2] for r in records.values() if r[-2] is not None])

        failures: dict[int, BaseException] = {}
        secondary: dict[int, BaseException] = {}
        for rank in sorted(records):
            rec = records[rank]
            if rec[0] == "err":
                failures[rank] = RemoteRankError(rec[2], rec[3], rec[4])
            elif rec[0] == "aborted":
                secondary[rank] = CommAbortedError(rec[2])
        if failures or secondary:
            raise RankFailure(failures or secondary)

        results = [records[r][2] for r in range(nprocs)]
        clocks = [records[r][3] for r in range(nprocs)]
        if _obs.on and nprocs > 1:
            from repro.obs.aggregate import record_rank_clocks
            summary = record_rank_clocks(clocks)
            _obs.instant(
                "mpi.world_teardown", "launcher", nprocs=nprocs,
                imbalance=summary["stats"]["imbalance"],
                clock_max=summary["stats"]["max"],
                clock_mean=summary["stats"]["mean"])
        if return_clocks:
            return [(results[r], clocks[r]) for r in range(nprocs)]
        return results

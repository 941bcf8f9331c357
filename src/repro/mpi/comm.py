"""An in-process MPI-1 subset with virtual-time accounting.

Execution model (mirrors CCAFFEINE's SCMD mode): ``P`` rank-threads run the
same program; each owns a :class:`Comm` handle onto a shared
:class:`World`.  Messages are isolated by value (NumPy arrays are copied,
other objects pickled), so ranks cannot share mutable state through a
send — the same discipline real MPI buffers enforce.

Virtual time
------------
Each *rank* (not each communicator) owns a clock, advanced by:

* compute — the rank-thread's own CPU time (``time.thread_time``) accrued
  since the previous MPI call, scaled by the machine model;
* communication — alpha-beta costs from :class:`~repro.mpi.perfmodel.MachineModel`.

A blocking receive completes at ``max(receiver clock, sender clock at send
+ flight time)``; collectives synchronize every participant at
``max(entry clocks) + tree cost``.  The result is a deterministic-shape
emulation of a distributed-memory machine good enough to reproduce the
paper's scaling studies (§5.2) on one core.

Threading rules: a ``Comm`` must only be used from the thread that owns its
rank.  All blocking waits poll with a short timeout so a crashed peer
aborts the whole world instead of deadlocking it.

Interception: the send, recv and collective paths read
``intercept.armed`` once and, while it is set, run the
:mod:`repro.obs.intercept` hooks, where fault injection (drop/delay),
the race sanitizer (vector clocks on :attr:`_Message.vc` and the
collective slot) and tracing (``mpi.*`` spans and counters) subscribe.
"""

from __future__ import annotations

import enum
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.errors import CommAbortedError, MPIError
from repro.mpi.collectives import ANY_SOURCE, ANY_TAG, CollectiveMixin
from repro.mpi.perfmodel import MachineModel, LOCALHOST
from repro.obs import intercept as _intercept

_POLL_INTERVAL = 0.05


class Op(enum.Enum):
    """Reduction operations (the MPI_Op subset the toolkit uses)."""

    SUM = "sum"
    PROD = "prod"
    MIN = "min"
    MAX = "max"
    LOR = "lor"
    LAND = "land"

    def apply(self, a: Any, b: Any) -> Any:
        """Combine two contributions (NumPy arrays combine elementwise)."""
        if self is Op.SUM:
            return a + b
        if self is Op.PROD:
            return a * b
        if self is Op.MIN:
            return np.minimum(a, b) if _is_array(a) or _is_array(b) else min(a, b)
        if self is Op.MAX:
            return np.maximum(a, b) if _is_array(a) or _is_array(b) else max(a, b)
        if self is Op.LOR:
            return np.logical_or(a, b) if _is_array(a) or _is_array(b) else (a or b)
        if self is Op.LAND:
            return np.logical_and(a, b) if _is_array(a) or _is_array(b) else (a and b)
        raise MPIError(f"unsupported reduction {self}")  # pragma: no cover


def _is_array(x: Any) -> bool:
    return isinstance(x, np.ndarray)


def _isolate(obj: Any) -> tuple[Any, int]:
    """Copy ``obj`` by value and return ``(copy, nbytes)``.

    NumPy arrays take the fast path (buffer copy); everything else rides
    pickle, matching mpi4py's lowercase-method semantics.
    """
    if isinstance(obj, np.ndarray):
        copy = np.array(obj, copy=True)
        return copy, copy.nbytes
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.loads(blob), len(blob)


@dataclass
class Status:
    """Receive-side envelope information."""

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    nbytes: int = 0


@dataclass
class _Message:
    source: int
    tag: int
    payload: Any
    nbytes: int
    avail_time: float
    #: sender's vector-clock snapshot while the sanitizer is armed
    vc: list[int] | None = None


class _RankState:
    """Per-rank virtual clock shared by all communicators of that rank."""

    def __init__(self) -> None:
        self.clock = 0.0
        self.mark = time.thread_time()

    def sync_compute(self, machine: MachineModel) -> None:
        now = time.thread_time()
        delta = now - self.mark
        self.mark = now
        if delta > 0.0:
            self.clock += machine.compute_time(delta)


class _CollSlot:
    """Rendezvous slot for one collective invocation."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.cond = threading.Condition()
        self.entries: dict[int, tuple[Any, float]] = {}
        self.result: Any = None
        self.exit_clock = 0.0
        self.done = False
        self.read = 0


class World:
    """Shared state behind all ranks of one SCMD run."""

    def __init__(self, size: int, machine: MachineModel = LOCALHOST) -> None:
        if size < 1:
            raise MPIError(f"world size must be >= 1, got {size}")
        self.size = size
        self.machine = machine
        self.aborted = False
        self.abort_reason: str | None = None
        self._lock = threading.Lock()
        # mailboxes keyed by (comm_id, dest rank-in-comm)
        self._boxes: dict[tuple[int, int], list[_Message]] = {}
        self._box_conds: dict[tuple[int, int], threading.Condition] = {}
        self._slots: dict[tuple[int, int], _CollSlot] = {}
        self._comm_sizes: dict[int, int] = {0: size}
        self._next_comm_id = 1
        self.rank_states = [_RankState() for _ in range(size)]

    # -- plumbing ------------------------------------------------------------
    def box(self, comm_id: int, dest: int) -> tuple[list, threading.Condition]:
        key = (comm_id, dest)
        with self._lock:
            if key not in self._boxes:
                self._boxes[key] = []
                self._box_conds[key] = threading.Condition()
            return self._boxes[key], self._box_conds[key]

    def slot(self, comm_id: int, seq: int) -> _CollSlot:
        key = (comm_id, seq)
        with self._lock:
            if key not in self._slots:
                self._slots[key] = _CollSlot(self._comm_sizes[comm_id])
            return self._slots[key]

    def drop_slot(self, comm_id: int, seq: int) -> None:
        with self._lock:
            self._slots.pop((comm_id, seq), None)

    def alloc_comm(self, size: int) -> int:
        with self._lock:
            cid = self._next_comm_id
            self._next_comm_id += 1
            self._comm_sizes[cid] = size
            return cid

    def abort(self, reason: str) -> None:
        """Kill the world: every blocked rank raises CommAbortedError."""
        self.aborted = True
        self.abort_reason = reason
        with self._lock:
            conds = list(self._box_conds.values())
            slots = list(self._slots.values())
        for cond in conds:
            with cond:
                cond.notify_all()
        for slot in slots:
            with slot.cond:
                slot.cond.notify_all()

    def check_alive(self) -> None:
        if self.aborted:
            raise CommAbortedError(self.abort_reason or "world aborted")


class Request:
    """Handle for a non-blocking operation."""

    def __init__(self, wait_fn: Callable[[], Any], test_fn: Callable[[], bool]):
        self._wait_fn = wait_fn
        self._test_fn = test_fn
        self._done = False
        self._value: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._wait_fn()
            self._done = True
        return self._value

    def test(self) -> bool:
        if self._done:
            return True
        if self._test_fn():
            self.wait()
            return True
        return False


class Comm(CollectiveMixin):
    """One rank's view of a communicator (the ``threads`` backend).

    The default communicator (``comm_id == 0``) is the world communicator
    handed to the SCMD program by :func:`repro.mpi.launcher.mpirun`;
    :meth:`split` and :meth:`dup` derive scoped communicators (the paper's
    component *cohorts*).  The collective front-ends and the clock,
    ``irecv`` and ``dup`` helpers come from
    :class:`~repro.mpi.collectives.CollectiveMixin`; this class provides
    the in-process condition-variable rendezvous behind them.
    """

    def __init__(self, world: World, comm_id: int, rank: int, size: int,
                 global_rank: int) -> None:
        self.world = world
        self.id = comm_id
        self.rank = rank
        self.size = size
        self.global_rank = global_rank
        self._coll_seq = 0
        self._state = world.rank_states[global_rank]

    @property
    def machine(self) -> MachineModel:
        """The machine model charging this comm's communication costs."""
        return self.world.machine

    # -- point-to-point ----------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking buffered send."""
        self._post_send(obj, dest, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (buffered, completes immediately)."""
        self._post_send(obj, dest, tag)
        return Request(lambda: None, lambda: True)

    def _post_send(self, obj: Any, dest: int, tag: int) -> None:
        self.world.check_alive()
        if not (0 <= dest < self.size):
            raise MPIError(f"send dest {dest} out of range for size {self.size}")
        armed = _intercept.armed
        t0 = time.perf_counter() if armed else 0.0
        self._sync()
        payload, nbytes = _isolate(obj)
        machine = self.world.machine
        avail = self._state.clock + machine.p2p_time(nbytes)
        self._state.clock += machine.send_overhead(nbytes)
        vc = None
        if armed:
            # a fault may drop the send or delay its flight; the
            # sanitizer's clock snapshot rides the message
            fate = _intercept.send(self, dest, tag, nbytes, t0)
            if fate is None:
                return
            avail += fate.delay
            vc = fate.vc
        msg = _Message(self.rank, tag, payload, nbytes, avail, vc)
        box, cond = self.world.box(self.id, dest)
        with cond:
            box.append(msg)
            cond.notify_all()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None) -> Any:
        """Blocking receive; wildcards ``ANY_SOURCE`` / ``ANY_TAG``."""
        armed = _intercept.armed
        t0 = time.perf_counter() if armed else 0.0
        self._sync()
        vt_in = self._state.clock
        box, cond = self.world.box(self.id, self.rank)
        with cond:
            while True:
                self.world.check_alive()
                msg = self._match(box, source, tag, remove=True)
                if msg is not None:
                    break
                cond.wait(timeout=_POLL_INTERVAL)
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
        """Block until a matching message is available; don't consume it."""
        box, cond = self.world.box(self.id, self.rank)
        with cond:
            while True:
                self.world.check_alive()
                msg = self._match(box, source, tag, remove=False)
                if msg is not None:
                    return Status(msg.source, msg.tag, msg.nbytes)
                cond.wait(timeout=_POLL_INTERVAL)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """True if a matching message is waiting."""
        self.world.check_alive()
        box, cond = self.world.box(self.id, self.rank)
        with cond:
            return self._match(box, source, tag, remove=False) is not None

    @staticmethod
    def _match(box: list[_Message], source: int, tag: int,
               remove: bool) -> _Message | None:
        for i, msg in enumerate(box):
            if (source in (ANY_SOURCE, msg.source)
                    and tag in (ANY_TAG, msg.tag)):
                return box.pop(i) if remove else msg
        return None

    # -- collectives ----------------------------------------------------------
    def _collective(self, contribution: Any,
                    finish: Callable[[dict[int, Any]], tuple[Any, float]],
                    label: str = "collective") -> Any:
        """Generic rendezvous: every member contributes, the last arrival
        runs ``finish(contribs) -> (result, comm_cost)``, everyone leaves at
        ``max(entry clocks) + comm_cost`` with the shared result."""
        armed = _intercept.armed
        t0 = time.perf_counter() if armed else 0.0
        self._sync()
        self._coll_seq += 1
        slot = self.world.slot(self.id, self._coll_seq)
        with slot.cond:
            if self.rank in slot.entries:
                raise MPIError("collective re-entered by the same rank")
            slot.entries[self.rank] = (contribution, self._state.clock)
            # Same critical section as the contribution insert: every
            # rank's sanitizer clock is on the slot before done flips.
            if armed:
                _intercept.coll_arrive(self, slot)
            if len(slot.entries) == slot.size:
                contribs = {r: p for r, (p, _) in slot.entries.items()}
                entry_max = max(c for _, c in slot.entries.values())
                result, cost = finish(contribs)
                slot.result = result
                slot.exit_clock = entry_max + cost
                slot.done = True
                slot.cond.notify_all()
            else:
                while not slot.done:
                    self.world.check_alive()
                    slot.cond.wait(timeout=_POLL_INTERVAL)
            slot.read += 1
            if slot.read == slot.size:
                self.world.drop_slot(self.id, self._coll_seq)
        self._state.clock = max(self._state.clock, slot.exit_clock)
        if armed:
            _intercept.coll_depart(self, slot, label, t0)
        return slot.result

    # barrier/bcast/reduce/allreduce/gather/allgather/scatter/alltoall are
    # inherited from CollectiveMixin, driven by _collective above.

    # -- communicator management ---------------------------------------------
    def split(self, color: int, key: int | None = None) -> "Comm":
        """Partition members by ``color``; order within a group by ``key``."""
        key = self.rank if key is None else key
        triples = self.allgather((color, key, self.rank, self.global_rank))
        mine = sorted(
            (k, r, g) for (c, k, r, g) in triples if c == color
        )
        new_size = len(mine)
        new_rank = [r for (_, r, _) in mine].index(self.rank)
        # Deterministic comm-id agreement: lowest member allocates, then the
        # id is distributed through a second allgather keyed by color.
        if new_rank == 0:
            cid = self.world.alloc_comm(new_size)
        else:
            cid = -1
        ids = self.allgather((color, cid))
        new_id = max(i for (c, i) in ids if c == color)
        return Comm(self.world, new_id, new_rank, new_size, self.global_rank)

    def abort(self, reason: str = "user abort") -> None:
        """Abort the whole world."""
        self.world.abort(f"rank {self.global_rank}: {reason}")
        raise CommAbortedError(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Comm(id={self.id}, rank={self.rank}/{self.size}, "
                f"global={self.global_rank})")

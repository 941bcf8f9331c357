"""Collective front-ends shared by every execution backend's communicator.

The MPI-1 collective *semantics* — what a ``bcast``/``reduce``/
``scatter`` means, how contributions combine, what the virtual-time cost
of the rendezvous is — are transport-independent.  This mixin states
them once, against a minimal contract the transport must provide:

* ``self.rank`` / ``self.size`` — this member's position in the comm;
* ``self.machine`` — the :class:`~repro.mpi.perfmodel.MachineModel`
  charging communication costs;
* ``self._state`` (the rank's virtual clock), ``recv``, ``iprobe`` and
  ``split`` — behind the shared clock, ``irecv`` and ``dup`` helpers;
* ``self._collective(contribution, finish, label)`` — the rendezvous
  primitive: every member contributes, ``finish(contribs) -> (result,
  comm_cost)`` runs exactly once somewhere, every member leaves at
  ``max(entry clocks) + comm_cost`` holding the shared result.

:class:`repro.mpi.comm.Comm` implements ``_collective`` as an
in-process condition-variable rendezvous (the ``threads`` backend);
:class:`repro.exec.mp.MPComm` implements it as a gather-to-local-root /
broadcast exchange over OS pipes (the ``mp`` backend).  Because
``finish`` runs once and its reduction iterates ranks in sorted order,
both transports produce bit-identical collective results.
"""

from __future__ import annotations

from typing import Any

from repro.errors import MPIError

ANY_SOURCE = -1
ANY_TAG = -1


class CollectiveMixin:
    """Transport-independent MPI-1 collectives (see module docstring)."""

    # the transport provides: rank, size, machine, _state, _collective(...)

    # -- virtual time --------------------------------------------------------
    def _sync(self) -> None:
        self._state.sync_compute(self.machine)

    @property
    def clock(self) -> float:
        """The rank's current virtual time, compute charged up to now."""
        self._sync()
        return self._state.clock

    def advance(self, seconds: float) -> None:
        """Manually charge virtual seconds (perf-model-only workloads)."""
        if seconds < 0:
            raise MPIError("cannot advance the clock backwards")
        self._sync()
        self._state.clock += seconds

    def reset_clock(self) -> None:
        """Zero this rank's virtual clock (bench warm-up boundary)."""
        self._sync()
        self._state.clock = 0.0

    # -- helpers over the transport's own methods ----------------------------
    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking receive; ``wait()`` returns the payload."""
        from repro.mpi.comm import Request

        return Request(
            lambda: self.recv(source, tag),
            lambda: self.iprobe(source, tag),
        )

    def dup(self):
        """Duplicate this communicator (fresh message/collective space)."""
        return self.split(color=0, key=self.rank)

    # -- collectives ---------------------------------------------------------

    def barrier(self) -> None:
        """Synchronize all members."""
        machine, size = self.machine, self.size

        def finish(_contribs):
            return None, machine.barrier_time(size)

        self._collective(None, finish, label="barrier")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; all members return it."""
        from repro.mpi.comm import _isolate

        machine, size = self.machine, self.size
        payload = _isolate(obj) if self.rank == root else None

        def finish(contribs):
            value, nbytes = contribs[root]
            return value, machine.bcast_time(size, nbytes)

        return self._collective(payload, finish, label="bcast")

    def reduce(self, obj: Any, op=None, root: int = 0) -> Any:
        """Reduce to ``root``; non-roots return ``None``."""
        result = self._reduce_common(obj, op, allreduce=False)
        return result if self.rank == root else None

    def allreduce(self, obj: Any, op=None) -> Any:
        """Reduce and distribute the result to every member."""
        return self._reduce_common(obj, op, allreduce=True)

    def _reduce_common(self, obj: Any, op, allreduce: bool) -> Any:
        from repro.mpi.comm import Op as _Op, _isolate

        op = _Op.SUM if op is None else op
        machine, size = self.machine, self.size
        payload = _isolate(obj)

        def finish(contribs):
            acc = None
            nbytes = 0
            for rank in sorted(contribs):
                value, nb = contribs[rank]
                nbytes = max(nbytes, nb)
                acc = value if acc is None else op.apply(acc, value)
            cost = (machine.allreduce_time(size, nbytes) if allreduce
                    else machine.reduce_time(size, nbytes))
            return acc, cost

        return self._collective(
            payload, finish, label="allreduce" if allreduce else "reduce")

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per member to ``root`` (rank-ordered list)."""
        from repro.mpi.comm import _isolate

        machine, size = self.machine, self.size
        payload = _isolate(obj)

        def finish(contribs):
            nbytes = max(nb for _, nb in contribs.values())
            values = [contribs[r][0] for r in range(size)]
            return values, machine.gather_time(size, nbytes)

        result = self._collective(payload, finish, label="gather")
        return result if self.rank == root else None

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object per member to everyone."""
        from repro.mpi.comm import _isolate

        machine, size = self.machine, self.size
        payload = _isolate(obj)

        def finish(contribs):
            nbytes = max(nb for _, nb in contribs.values())
            values = [contribs[r][0] for r in range(size)]
            return values, machine.allgather_time(size, nbytes)

        return self._collective(payload, finish, label="allgather")

    def scatter(self, objs: list[Any] | None, root: int = 0) -> Any:
        """Scatter ``objs[i]`` from root to rank ``i``."""
        from repro.mpi.comm import _isolate

        machine, size = self.machine, self.size
        payload = None
        if self.rank == root:
            if objs is None or len(objs) != size:
                raise MPIError(
                    f"scatter root needs a list of exactly {size} items")
            payload = [_isolate(o) for o in objs]

        def finish(contribs):
            items = contribs[root]
            nbytes = max(nb for _, nb in items) if items else 0
            values = {r: items[r][0] for r in range(size)}
            return values, machine.gather_time(size, nbytes)

        values = self._collective(payload, finish, label="scatter")
        return values[self.rank]

    def alltoall(self, objs: list[Any]) -> list[Any]:
        """Personalized all-to-all: rank i's ``objs[j]`` lands at rank j."""
        from repro.mpi.comm import _isolate

        machine, size = self.machine, self.size
        if len(objs) != size:
            raise MPIError(f"alltoall needs exactly {size} items")
        payload = [_isolate(o) for o in objs]

        def finish(contribs):
            nbytes = max(nb for items in contribs.values() for _, nb in items)
            table = {
                dest: [contribs[src][dest][0] for src in range(size)]
                for dest in range(size)
            }
            return table, machine.alltoall_time(size, nbytes)

        table = self._collective(payload, finish, label="alltoall")
        return table[self.rank]

"""One ordered interceptor chain for port calls and message passing.

Fault injection (:mod:`repro.resilience.faults`), the race sanitizer
(:mod:`repro.mpi.sanitizer`) and tracing (:mod:`repro.obs.trace`)
subscribe here when armed and unsubscribe when disarmed.  The port and
message hot paths read :data:`armed` once and run the hooks only while
it is set, so the disabled cost of all three is that one check.

The chain is ordered by :attr:`Interceptor.order`: trace, sanitizer,
faults.  A port call nests outermost first: the trace span encloses the
sanitizer's write record, which precedes the fault check, which precedes
the call.  Message hooks run innermost first, so a send that faults drop
stops the chain before the sanitizer ticks its clock or trace records it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

#: True exactly while the chain has a subscriber.
armed: bool = False

#: Returned by an :meth:`Interceptor.send` hook to drop the message.
DROP = object()

_chain: tuple["Interceptor", ...] = ()
_lock = threading.Lock()


class SendFate:
    """A posted send's extra flight ``delay`` and sender clock ``vc``."""

    __slots__ = ("delay", "vc")

    def __init__(self) -> None:
        self.delay = 0.0
        self.vc: list[int] | None = None


class Interceptor:
    """A chain subscriber.  By default it claims every port label and
    every hook does nothing.  ``t0`` is the hot path's entry
    ``time.perf_counter()``."""

    order = 0

    def claims(self, label: str) -> bool:
        """Wrap ports whose provider label (``"inst:port"``) is ``label``?"""
        return True

    def port_call(self, key: str, target: Any, fn: Callable) -> Callable:
        """Wrap ``fn``, method ``key`` (``"label.method"``) of ``target``."""
        return fn

    def send(self, comm, dest: int, tag: int, nbytes: int, t0: float,
             fate: SendFate) -> object | None:
        """Before a send is posted, its overhead already charged to the
        sender's clock: update ``fate`` or return :data:`DROP`."""

    def recv(self, comm, msg, t0: float, vt_in: float) -> None:
        """After ``msg`` was matched and the receiver's clock advanced."""

    def coll_arrive(self, comm, slot) -> None:
        """Under the threads rendezvous lock, after this rank's entry."""

    def coll_depart(self, comm, slot, label: str, t0: float) -> None:
        """After a collective (``slot`` is None on the mp backend)."""


def subscribe(sub: Interceptor) -> None:
    global _chain, armed
    with _lock:
        if sub not in _chain:
            _chain = tuple(sorted(_chain + (sub,), key=lambda s: s.order))
        armed = True


def unsubscribe(sub: Interceptor) -> None:
    global _chain, armed
    with _lock:
        _chain = tuple(s for s in _chain if s is not sub)
        armed = bool(_chain)


def claiming(label: str) -> list[Interceptor]:
    return [s for s in _chain if s.claims(label)]


def send(comm, dest: int, tag: int, nbytes: int,
         t0: float) -> SendFate | None:
    """The send's fate, or None when a subscriber dropped it."""
    fate = SendFate()
    for sub in reversed(_chain):
        if sub.send(comm, dest, tag, nbytes, t0, fate) is DROP:
            return None
    return fate


def recv(comm, msg, t0: float, vt_in: float) -> None:
    for sub in reversed(_chain):
        sub.recv(comm, msg, t0, vt_in)


def coll_arrive(comm, slot) -> None:
    for sub in reversed(_chain):
        sub.coll_arrive(comm, slot)


def coll_depart(comm, slot, label: str, t0: float) -> None:
    for sub in reversed(_chain):
        sub.coll_depart(comm, slot, label, t0)

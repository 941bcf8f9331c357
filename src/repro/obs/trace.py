"""Low-overhead structured tracer: spans + instant events.

Design constraints (ISSUE 2 / paper §6 future-work item on TAU):

* **Off by default, near-zero disabled cost.**  Hot call sites guard with
  ``if trace.on:`` — a single module-attribute read — and the :func:`span`
  helper returns a shared no-op singleton when tracing is off, so the
  disabled path never allocates a span object.
* **Safe under SCMD rank-threads.**  Events are appended to *per-thread*
  buffers (registered once per thread per session under a lock), so
  concurrent rank-threads never interleave writes to a shared list.
  Every event records the emitting thread's SCMD rank from
  :mod:`repro.util.logging`, which :func:`repro.mpi.launcher.mpirun` tags
  automatically — that is what gives the Chrome/Perfetto export one track
  per rank.
* **Two clocks.**  Spans carry wall time (``time.perf_counter`` relative
  to the session start, exported in microseconds); layers that know the
  rank's *virtual* clock (:mod:`repro.mpi.comm`) attach it as a ``vt``
  span argument.

The module knows nothing about components, communicators, or meshes.
Those layers call in, and port calls and message passing reach it
through the :mod:`repro.obs.intercept` chain, to which :func:`start`
subscribes :data:`TRACING` (port spans, ``mpi.*`` spans and counters).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, NamedTuple

from repro.obs import intercept as _intercept
from repro.obs.metrics import get_registry as _registry
from repro.util.logging import get_rank

#: Master switch.  Hot paths read this module attribute directly
#: (``if trace.on:``); everything else should go through :func:`enabled`.
on: bool = False

_lock = threading.Lock()
#: (thread name, event list) per thread that emitted in this session.
_buffers: list[tuple[str, list]] = []
#: Bumped on every :func:`start`; stale thread-local buffers from a
#: previous session are abandoned instead of reused.
_generation = 0
#: ``perf_counter`` origin of the current session (event timestamps are
#: relative to it).
_t0 = 0.0

_tls = threading.local()

#: Characters the folded-stack flamegraph format reserves (``;`` is the
#: frame separator, whitespace separates the stack from its count), mapped
#: to safe replacements at span-creation time so every span name is a
#: legal flamegraph frame.
_SANITIZE = str.maketrans({";": ":", " ": "_", "\t": "_", "\n": "_",
                           "\r": "_"})


def sanitize(name: str) -> str:
    """Replace folded-stack separators (``;`` and whitespace) in a span
    name.  Fast path: clean names (the overwhelming majority) are
    returned unchanged without allocating."""
    if ";" in name or " " in name or "\t" in name or "\n" in name \
            or "\r" in name:
        return name.translate(_SANITIZE)
    return name


class Event(NamedTuple):
    """One recorded trace event (internal form, pre-export)."""

    ph: str                 # "X" complete span | "i" instant
    name: str
    cat: str
    ts: float               # microseconds since session start
    dur: float              # microseconds ("X" only; 0.0 for instants)
    rank: int | None        # SCMD rank of the emitting thread, if tagged
    thread: str             # emitting thread name
    args: dict[str, Any] | None


def _buf() -> list:
    """The calling thread's event buffer for the current session."""
    if getattr(_tls, "gen", -1) != _generation:
        _tls.buf = []
        _tls.gen = _generation
        with _lock:
            _buffers.append((threading.current_thread().name, _tls.buf))
    return _tls.buf


# -- live span stacks (sampled by repro.obs.profiler) -------------------------
class _ActiveStack:
    """One thread's currently-open spans, innermost last.

    Maintained by :class:`Span` enter/exit while tracing is on; the
    sampling profiler reads it from its own thread (list append/pop and
    slice-copy are atomic under the GIL, so no per-span locking)."""

    __slots__ = ("thread_name", "rank", "frames")

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.rank: int | None = None
        self.frames: list[tuple[str, str]] = []   # (name, cat), root first


#: thread ident -> that thread's live span stack (threads register on
#: first span; a reused ident simply overwrites the dead thread's entry).
_active: dict[int, _ActiveStack] = {}


def _stack_of() -> _ActiveStack:
    st = getattr(_tls, "stack", None)
    if st is None:
        st = _tls.stack = _ActiveStack(threading.current_thread().name)
        with _lock:
            _active[threading.get_ident()] = st
    return st


def active_stacks() -> list[tuple[int, str, int | None, tuple]]:
    """Snapshot of every registered thread's live span stack:
    ``(thread ident, thread name, rank, ((name, cat), ...))`` tuples,
    root span first.  Safe to call from any thread."""
    with _lock:
        items = list(_active.items())
    return [(ident, st.thread_name, st.rank, tuple(st.frames))
            for ident, st in items]


# -- session control ----------------------------------------------------------
def start(clear: bool = True) -> None:
    """Enable tracing (optionally clearing previously collected events)."""
    global on, _generation, _t0
    if clear:
        with _lock:
            _buffers.clear()
        _generation += 1
        _t0 = time.perf_counter()
    on = True
    _intercept.subscribe(TRACING)


def stop() -> None:
    """Disable tracing; collected events stay readable via :func:`events`."""
    global on
    on = False
    _intercept.unsubscribe(TRACING)


def enabled() -> bool:
    return on


def clear() -> None:
    """Drop all collected events (keeps the enabled/disabled state)."""
    global _generation, _t0
    with _lock:
        _buffers.clear()
    _generation += 1
    _t0 = time.perf_counter()


def events() -> list[Event]:
    """All events of the current session, merged across threads and
    sorted by timestamp."""
    with _lock:
        merged = [e for _name, buf in _buffers for e in buf]
    merged.sort(key=lambda e: e.ts)
    return merged


# -- trace context (distributed-trace attribution) ----------------------------
@contextmanager
def context(**kv: Any):
    """Attach ``kv`` to every event this thread emits inside the block.

    The mechanism behind end-to-end job traces: :mod:`repro.serve` sets
    ``trace_id``/``job`` on its worker thread, the execution backends
    re-establish the launching thread's context inside every rank thread
    (and forked ``mp`` worker), and each span's args carry the keys —
    so one filter over a merged trace recovers a job's full scheduler →
    supervisor → rank span tree.  Contexts nest (inner keys win) and an
    empty call is a no-op.
    """
    if not kv:
        yield
        return
    prev = getattr(_tls, "ctx", None)
    _tls.ctx = {**prev, **kv} if prev else dict(kv)
    try:
        yield
    finally:
        _tls.ctx = prev


def current_context() -> dict[str, Any]:
    """The calling thread's trace context (a copy; {} when unset)."""
    ctx = getattr(_tls, "ctx", None)
    return dict(ctx) if ctx else {}


def _with_ctx(args: dict[str, Any] | None) -> dict[str, Any] | None:
    """Event args with the thread context folded in (explicit args win)."""
    ctx = getattr(_tls, "ctx", None)
    if not ctx:
        return args
    return {**ctx, **args} if args else dict(ctx)


# -- cross-process shipping ---------------------------------------------------
def drain_events() -> list[Event]:
    """Remove and return every event of the current session (sorted).

    The worker-side half of ``mp``-backend trace shipping: a forked rank
    drains its buffers at teardown and ships the events home, where the
    parent folds them back in with :func:`absorb`.  Buffers re-register
    lazily, so the session stays usable after a drain.
    """
    global _generation
    with _lock:
        merged = [e for _name, buf in _buffers for e in buf]
        _buffers.clear()
    _generation += 1
    merged.sort(key=lambda e: e.ts)
    return merged


def absorb(shipped: Iterable[Event | tuple],
           label: str = "absorbed") -> int:
    """Fold events shipped from another process into this session.

    Timestamps are kept verbatim: workers forked from this process
    inherit the session's ``perf_counter`` origin, and ``perf_counter``
    is system-wide monotonic on the platforms the ``mp`` backend runs
    on, so shipped and local events share one timeline.  Returns the
    number of events absorbed.
    """
    buf = [e if isinstance(e, Event) else Event(*e) for e in shipped]
    if not buf:
        return 0
    with _lock:
        _buffers.append((label, buf))
    return len(buf)


def child_reset() -> None:
    """Post-fork cleanup for a worker process: drop every event and live
    span stack inherited from the parent (they belong to the parent's
    timeline and would be shipped home as duplicates) while keeping the
    session origin ``_t0`` and the enabled flag, so the worker's own
    events stay merge-compatible with the parent's."""
    global _generation
    with _lock:
        _buffers.clear()
        _active.clear()
    _generation += 1
    st = getattr(_tls, "stack", None)
    if st is not None:
        st.frames.clear()
        with _lock:
            _active[threading.get_ident()] = st


# -- emission -----------------------------------------------------------------
class Span:
    """A context-managed duration event."""

    __slots__ = ("name", "cat", "args", "_start")

    def __init__(self, name: str, cat: str, args: dict[str, Any]) -> None:
        self.name = sanitize(name)
        self.cat = cat
        self.args = args

    def add(self, **more: Any) -> None:
        """Attach extra args discovered mid-span (sizes, counts, ...)."""
        self.args.update(more)

    def __enter__(self) -> "Span":
        st = _stack_of()
        st.rank = get_rank()
        st.frames.append((self.name, self.cat))
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        st = _tls.stack           # registered in __enter__
        if st.frames:
            st.frames.pop()
        _buf().append(Event(
            "X", self.name, self.cat, (self._start - _t0) * 1e6,
            (end - self._start) * 1e6, get_rank(),
            threading.current_thread().name, _with_ctx(self.args or None)))
        return False


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def add(self, **more: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


def span(name: str, cat: str = "app", **args: Any):
    """A span context manager (the shared no-op singleton when disabled).

    Note for *hot* call sites: the keyword-argument dict is built before
    the flag is consulted, so guard with ``if trace.on:`` yourself when
    the call sits on a per-cell/per-message path.
    """
    if not on:
        return NULL_SPAN
    return Span(name, cat, args)


def complete(name: str, cat: str, t_start: float, **args: Any) -> None:
    """Record a span that started at ``t_start`` (a ``perf_counter``
    reading) and ends now.

    This is the guard-friendly form for call sites that cannot use a
    ``with`` block without restructuring::

        t0 = time.perf_counter() if trace.on else 0.0
        ... work ...
        if trace.on:
            trace.complete("mpi.send", "mpi", t0, nbytes=n)

    Callers are expected to have checked ``trace.on`` themselves.
    """
    end = time.perf_counter()
    _buf().append(Event(
        "X", sanitize(name), cat, (t_start - _t0) * 1e6,
        (end - t_start) * 1e6,
        get_rank(), threading.current_thread().name,
        _with_ctx(args or None)))


def instant(name: str, cat: str = "app", **args: Any) -> None:
    """Record a zero-duration marker event."""
    if not on:
        return
    _buf().append(Event(
        "i", sanitize(name), cat, (time.perf_counter() - _t0) * 1e6, 0.0,
        get_rank(), threading.current_thread().name,
        _with_ctx(args or None)))


# -- the interceptor-chain subscriber -----------------------------------------
class _Tracing(_intercept.Interceptor):
    """Port-call spans, plus the ``mpi`` spans and counters of both
    communicators (``comm._state.clock`` is the rank's virtual clock)."""

    def port_call(self, key, target, fn):
        def call(*args, **kwargs):
            if not on:
                return fn(*args, **kwargs)
            with Span(key, "port", {}):
                return fn(*args, **kwargs)

        return call

    def send(self, comm, dest, tag, nbytes, t0, fate):
        complete("mpi.send", "mpi", t0, dest=dest, tag=tag, nbytes=nbytes,
                 vt=comm._state.clock)
        reg = _registry()
        reg.counter("mpi.sends", rank=comm.global_rank).inc()
        reg.counter("mpi.bytes_sent", rank=comm.global_rank).inc(nbytes)

    def recv(self, comm, msg, t0, vt_in):
        vt = comm._state.clock
        complete("mpi.recv", "mpi", t0, source=msg.source, tag=msg.tag,
                 nbytes=msg.nbytes, vt=vt, vt_wait=vt - vt_in)
        reg = _registry()
        reg.counter("mpi.recvs", rank=comm.global_rank).inc()
        reg.histogram("mpi.recv_wait_seconds",
                      rank=comm.global_rank).observe(
            time.perf_counter() - t0)

    def coll_depart(self, comm, slot, label, t0):
        complete(f"mpi.{label}", "mpi", t0, size=comm.size,
                 vt=comm._state.clock)
        _registry().counter("mpi.collectives", op=label,
                            rank=comm.global_rank).inc()


TRACING = _Tracing()

"""How fast the host runs right now, from two fixed probes that use no
program code.

The benchmark shares a small VM with other tenants, and their load slows
its CPU in spells of seconds to minutes, by up to 2x, and the slow-down
of a whole 36-second run follows it.  :func:`speed_index` times two
probes between the benchmark's operations:

* a pure-Python loop over small numpy arrays, the shape of the
  per-cell and per-patch work of the assemblies;
* a round trip through a ``multiprocessing`` pipe to a forked echo
  process on the same CPU, the shape of the ``mp`` backend's transport
  and of the serve workers' hand-offs.

Each probe reads its best of a few tries, divided by its time on the
reference host (:data:`REFERENCE_S`); the index is the geometric mean of
the two.  1.0 is the reference host's quiet state, 1.5 means the host
now runs these probes 1.5x slower.  Dividing an operation's time by the
index measured on either side of it gives its time at the reference
speed; neither probe touches ``repro``, so a change to the program
moves the operation's time and not the index.
"""

from __future__ import annotations

import math
import multiprocessing
from time import perf_counter

import numpy as np

#: seconds each probe's best try took on the reference host (one CPU of
#: a 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4, in a quiet spell)
REFERENCE_S = {"python": 0.0250, "pipe": 0.0212}

PY_LOOPS = 20000
PIPE_TRIPS = 1000
PY_TRIES = 3
PIPE_TRIES = 2

_A = np.arange(48.0)
_B = np.ones(48)


def python_probe() -> float:
    t0 = perf_counter()
    acc, seen = 0.0, {}
    for i in range(PY_LOOPS):
        x = _A * _B + 1.0
        acc += float(x[i % 48])
        seen[i & 63] = acc
    return perf_counter() - t0


def _echo(conn) -> None:
    while True:
        msg = conn.recv()
        if msg is None:
            return
        conn.send(msg)


def pipe_probe() -> float:
    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe()
    child = ctx.Process(target=_echo, args=(there,), daemon=True)
    child.start()
    try:
        t0 = perf_counter()
        for i in range(PIPE_TRIPS):
            here.send(i)
            here.recv()
        return perf_counter() - t0
    finally:
        here.send(None)
        child.join()
        here.close()
        there.close()


def speed_index() -> float:
    py = min(python_probe() for _ in range(PY_TRIES))
    pipe = min(pipe_probe() for _ in range(PIPE_TRIES))
    return math.sqrt(py / REFERENCE_S["python"]
                     * pipe / REFERENCE_S["pipe"])

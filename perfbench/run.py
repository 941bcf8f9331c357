"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flame_cvode --seed 0 \\
        --seconds 36 --trace 0

Workloads: ``flame_cvode``, ``shock_amr3``, ``ignition_sweep`` (see
``perfbench/workloads.py`` and ``perfbench/predictions.json``).

The benchmark confines itself and every rank and worker to one CPU (see
:func:`_pin_to_one_cpu`).  Both modes start with one untimed single-rank
run (imports, first-touch allocations).  ``--trace 0`` then repeats
(parallel cycle, single-rank baseline, in-process set-ups) for
``--seconds``, reads the host's speed between operations
(``perfbench/hostspeed.py``) and reports the end-to-end metrics of
``BENCHMARK.json`` as medians of times at the reference host speed.
``--trace 1`` alternates untraced cycles with cycles run under the layer
wrappers of ``perfbench/layers.py`` and reports the per-layer metrics,
raw, as medians over the traced cycles, with ``obs.trace_overhead_pct``
(traced median wall over untraced median wall, minus 1, in percent).

Every operation is checked against ``perfbench/references.json``; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without a result
when the program sources (``src/repro``) are not next to this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: no run may outlast this many seconds of operations, whatever
#: ``--seconds`` says, so that a run with its start-up ends within 180 s
MAX_SECONDS = 140.0

#: cycles every run makes, even past ``--seconds``
MIN_OPS = 3

#: set-ups timed after every pair: one takes milliseconds, so ``setup_s``
#: needs many more samples than the runs give
SETUP_SAMPLES = 16


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _pin_to_one_cpu() -> None:
    """Confine this process, its rank-threads and the worker processes it
    forks to one CPU.

    On a small shared VM the host takes a second virtual CPU away at
    random (steal time), and a run that keeps two CPUs busy reads up to
    twice as slow in those spells while a single-CPU run hardly moves.
    On one CPU every run measures the work and the transport between
    ranks, not the host's load; real multi-core speed-up is out of scope.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process the mp backend
    starts, and wait for it, so a run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _repeat(body, seconds: float, t_begin: float) -> list:
    """Call ``body()`` until the next call would end past ``seconds``
    (measured from ``t_begin``), at least :data:`MIN_OPS` times."""
    out, durations = [], []
    while True:
        t = perf_counter()
        out.append(body())
        durations.append(perf_counter() - t)
        projected = perf_counter() - t_begin + statistics.median(durations)
        if projected > MAX_SECONDS or (len(out) >= MIN_OPS
                                       and projected > seconds):
            return out


def measure_end_to_end(workload, seconds: float) -> tuple:
    from perfbench.hostspeed import speed_index

    setups: list[float] = []
    turn = itertools.count()
    # host speed index after each operation (see perfbench/hostspeed.py)
    speed: list[float] = []

    def timed(run) -> tuple:
        """Run one operation; return it with the host speed index around
        it, the mean of the readings just before and just after."""
        before = speed[-1]
        op = run()
        speed.append(speed_index())
        return op, (before + speed[-1]) / 2

    def pair():
        # alternate which side runs first, so neither always runs in the
        # other's wake
        if next(turn) % 2:
            base = timed(workload.baseline)
            par = timed(workload.cycle)
        else:
            par = timed(workload.cycle)
            base = timed(workload.baseline)
        workload.compare(par[0], base[0])
        # the set-ups take milliseconds right after the last reading
        k = speed[-1] if workload.setup_tracks_host else 1.0
        setups.extend(workload.setup_sample() / k
                      for _ in range(SETUP_SAMPLES))
        return par, base

    t_begin = perf_counter()
    warm = workload.baseline()
    speed.append(speed_index())
    pairs = _repeat(pair, seconds, t_begin)
    pars = [p for p, _ in pairs]
    bases = [b for _, b in pairs]
    med = statistics.median
    # Every time is divided by the host speed index around it, i.e. it
    # is given in seconds at the reference host speed: the host's other
    # tenants slow this VM by up to 2x in spells that outlast a run, and
    # moved the medians of raw times of identical runs by up to 40%.
    metrics = {
        "wall_s": med(p.wall / k for p, k in pars),
        "cpu_s": med(p.cpu / k for p, k in pars),
        "setup_s": med(setups),
        "peak_rss_mb": _peak_rss_mb(),
        "serial_wall_s": med(b.wall / k for b, k in bases),
        "parallel_eff": med(
            (b.wall / kb) / (workload.parallelism * p.wall / kp)
            for (p, kp), (b, kb) in pairs),
        # each cycle's p50 first: the sweep's computed jobs come in two
        # batches of unequal size, so a median pooled over all cycles
        # sits in the tail of the larger batch, not at its centre
        "job_latency_p50_s": med(
            med(p.latencies) / k for p, k in pars if p.latencies),
    }
    notes = [f"host speed index min {min(speed):.3f} median "
             f"{med(speed):.3f} max {max(speed):.3f} over {len(speed)} "
             f"readings",
             f"raw medians: wall_s {med(p.wall for p, _ in pars):.6g} s, "
             f"serial_wall_s {med(b.wall for b, _ in bases):.6g} s"]
    ops = [warm] + [p for p, _ in pars] + [b for b, _ in bases]
    return metrics, ops, notes


def measure_layers(workload, seconds: float) -> tuple:
    from perfbench.layers import LayerTracer, is_count, layer_metrics

    tracer = LayerTracer()

    def traced():
        tracer.reset()
        with tracer.installed():
            return workload.cycle(tracer)

    turn = itertools.count()

    def pair():
        # alternate untraced and traced cycles so both see the same host
        # conditions; the wrappers are installed for the traced one only
        if next(turn) % 2:
            op = traced()
            return workload.cycle(), op
        return workload.cycle(), traced()

    t_begin = perf_counter()
    warm = workload.baseline()
    pairs = _repeat(pair, seconds, t_begin)
    plain = [p for p, _ in pairs]
    ops = [t for _, t in pairs]
    per_op = [{**layer_metrics(op.counters), **op.extras} for op in ops]
    keys = sorted(set().union(*per_op))
    metrics = {k: statistics.median(d.get(k, 0.0) for d in per_op)
               for k in keys}
    metrics["obs.trace_overhead_pct"] = 100.0 * (
        statistics.median(op.wall for op in ops)
        / statistics.median(op.wall for op in plain) - 1.0)
    unsteady = sorted(k for k in keys if is_count(k)
                      and len({d.get(k, 0.0) for d in per_op}) > 1)
    return metrics, [warm] + plain + ops, unsteady


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    spec = _spec()
    _pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed)
    unsteady: list[str] = []
    notes: list[str] = []
    try:
        if args.trace:
            values, ops, unsteady = measure_layers(workload, args.seconds)
            wanted = spec["per_layer"]
        else:
            values, ops, notes = measure_end_to_end(workload, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        workload.close()
        _stop_resource_tracker()

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    # a layer the workload never enters reads 0 (the traced run reports
    # every per-layer metric); an end-to-end metric must be measured
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)
                                          if args.trace
                                          else values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(ops)} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4g}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"# {note}")
    for name in unsteady:
        print(f"# WARNING count {name} differs between traced cycles")
    for op in ops:
        for err in op.errors[:5]:
            print(f"# FAILED: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

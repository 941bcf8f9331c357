"""CLI: ``python -m repro.resilience <command>``.

``run <script.rc>``
    Execute an assembly under the supervised runner
    (:mod:`repro.resilience.runner`): periodic checkpoints come from the
    script's driver parameters, failures trigger restart-from-checkpoint
    with bounded retries.  ``--fault`` arms the deterministic fault
    injector for chaos drills; ``--tsan`` arms the runtime race
    sanitizer (:mod:`repro.mpi.sanitizer`).  Exit 0 when the run
    (eventually) succeeds, 1 when retries are exhausted, 2 on usage
    errors.

``inspect <prefix>``
    List the application checkpoints under an artifact prefix and their
    validity (all rank shards present, manifests parse).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.mpi.perfmodel import CPLANT, LOCALHOST, ZERO_COST
from repro.resilience import checkpoint as app_ckpt
from repro.resilience.runner import parse_fault_spec, run_supervised

_MACHINES = {"localhost": LOCALHOST, "zero-cost": ZERO_COST,
             "cplant": CPLANT}

__all__ = ["main", "build_parser", "parse_fault_spec"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Supervised checkpoint/restart execution and "
                    "checkpoint inspection.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an rc-script under supervision")
    run.add_argument("script", help="CCAFFEINE rc-script file")
    run.add_argument("--nprocs", type=int, default=1,
                     help="SCMD rank count (default: 1)")
    run.add_argument("--retries", type=int, default=3,
                     help="max restarts after a failed attempt (default: 3)")
    run.add_argument("--backoff", type=float, default=0.0,
                     help="base backoff seconds before retry n, doubled "
                          "each retry (default: 0)")
    run.add_argument("--machine", choices=sorted(_MACHINES),
                     default="localhost",
                     help="virtual-time machine model (default: localhost)")
    run.add_argument("--backend", default="",
                     help="execution backend: threads | mp "
                          "(default: $REPRO_BACKEND, then threads)")
    run.add_argument("--fault", metavar="SPEC", default="",
                     help="arm fault injection: key=value[,key=value...] "
                          "over FaultPlan fields, e.g. "
                          "kill_rank=1,kill_step=3,seed=7")
    run.add_argument("--tsan", action="store_true",
                     help="arm the runtime race sanitizer "
                          "(repro.mpi.sanitizer) for the supervised run "
                          "— unsynchronized shared writes across "
                          "rank-threads raise DataRaceError")
    run.add_argument("--metrics", metavar="FILE", default="",
                     help="write the run report (attempts, restarts, "
                          "injected fault counts) as JSON")

    insp = sub.add_parser("inspect",
                          help="list checkpoints under a prefix")
    insp.add_argument("prefix", help="checkpoint artifact prefix")
    insp.add_argument("--nranks", type=int, default=0,
                      help="expected rank shards (0 = read the cohort "
                           "size from the shard manifests)")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.script!r}: {exc}", file=sys.stderr)
        return 2
    if args.fault:
        try:
            parse_fault_spec(args.fault)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.backend:
        from repro.exec import resolve_name
        try:
            resolve_name(args.backend)  # fail fast with did-you-mean
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        result = run_supervised(text, nprocs=args.nprocs,
                                retries=args.retries, backoff=args.backoff,
                                machine=_MACHINES[args.machine],
                                fault=args.fault or None, tsan=args.tsan,
                                backend=args.backend or None)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.metrics:
        # Schema-1 envelope (repro.obs.export) + the legacy report keys
        # at top level: obs-metrics consumers read "metrics", existing
        # consumers keep reading "ok"/"restarts"/... unchanged.
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(result.metrics(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    report = result.report
    status = "ok" if report.ok else "FAILED"
    print(f"{status}: {report.attempts} attempt(s), "
          f"{report.restarts} restart(s), nprocs={report.nprocs}")
    for line in report.failures:
        print(f"  failure: {line}")
    if report.injected:
        print(f"  injected: {report.injected}")
    return 0 if report.ok else 1


def _cmd_inspect(args) -> int:
    nranks = args.nranks if args.nranks > 0 else None
    steps = app_ckpt.checkpoint_steps(args.prefix)
    if not steps:
        print(f"no checkpoints under {args.prefix!r}")
        return 1
    latest = app_ckpt.latest_valid_step(args.prefix, nranks)
    for step in steps:
        ok = app_ckpt.is_valid_step(args.prefix, step, nranks)
        mark = "valid  " if ok else "INVALID"
        tail = "  <- latest" if step == latest else ""
        print(f"step {step:6d}  {mark}{tail}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_inspect(args)


if __name__ == "__main__":
    sys.exit(main())

"""TAU-style per-component performance instrumentation.

The paper's future work item (4): "By using TAU, we intend to characterize
the performance characteristics of individual components and their
assemblies."  This module is that capability for our framework: it wraps
every provides-port of an assembly in a transparent proxy that records
per-method call counts and cumulative CPU self-time, attributed to the
providing component — so a run produces the per-component cost breakdown
TAU would.

Each :class:`Profiler` owns a :class:`repro.obs.metrics.MetricsRegistry`
with two metrics, ``cca.port.calls`` and ``cca.port.self_cpu_seconds``,
labelled by port method; :attr:`Profiler.stats` and :meth:`Profiler.report`
are views over it.  A profiler is an :mod:`repro.obs.intercept`
subscriber of its own proxies only, never of the global chain, so it
stays scoped to the framework passed to :func:`instrument`.  While the
chain is armed, :meth:`~repro.cca.services.Services.get_port` folds it
into its one proxy, innermost.

Usage::

    framework = Framework()
    build_reaction_diffusion(framework, ...)
    profiler = instrument(framework)
    framework.go("Driver")
    print(profiler.report())

Instrumentation must happen *after* assembly (wrapping replaces the port
objects that future ``connect`` calls would hand out) and costs one extra
call frame per port method — which is itself a nice demonstration that
layered indirection stays cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cca.framework import Framework
from repro.cca.portproxy import TracingPortProxy
from repro.obs.intercept import Interceptor
from repro.obs.metrics import MetricsRegistry

#: Registry metric names the profiler records under (label: ``method``).
CALLS_METRIC = "cca.port.calls"
SELF_CPU_METRIC = "cca.port.self_cpu_seconds"


@dataclass
class MethodStats:
    """Aggregated cost of one port method (a registry view)."""

    calls: int = 0
    cpu_seconds: float = 0.0


class Profiler(Interceptor):
    """Accumulates per-port-method statistics in a metrics registry.

    Its :meth:`port_call` wrapper keeps an explicit nesting stack so
    recorded CPU times are self-times (inner instrumented calls are
    subtracted from their caller).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # [key, accumulated child cpu] per live call, innermost last
        self._stack: list[list] = []

    def port_call(self, key, target, fn):
        def call(*args, **kwargs):
            self._stack.append([key, 0.0])
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.thread_time() - start
                _key, child_cpu = self._stack.pop()
                self.registry.counter(CALLS_METRIC, method=key).inc()
                self.registry.counter(SELF_CPU_METRIC, method=key).inc(
                    elapsed - child_cpu)
                # charge the full elapsed time to the caller to subtract
                if self._stack:
                    self._stack[-1][1] += elapsed

        return call

    # -- views over the registry -------------------------------------------
    @property
    def stats(self) -> dict[str, MethodStats]:
        """Per-method stats derived from the metrics registry."""
        out: dict[str, MethodStats] = {}
        for labels, metric in self.registry.find(CALLS_METRIC):
            out[labels["method"]] = MethodStats(calls=int(metric.value))
        for labels, metric in self.registry.find(SELF_CPU_METRIC):
            out.setdefault(labels["method"], MethodStats()).cpu_seconds = \
                metric.value
        return out

    def by_component(self) -> dict[str, tuple[int, float]]:
        """Aggregate to (calls, self CPU seconds) per component instance."""
        out: dict[str, list[float]] = {}
        for key, s in self.stats.items():
            comp = key.split(".", 1)[0]
            acc = out.setdefault(comp, [0, 0.0])
            acc[0] += s.calls
            acc[1] += s.cpu_seconds
        return {k: (int(c), t) for k, (c, t) in out.items()}

    def report(self, top: int | None = None) -> str:
        """A TAU-profile-like text report, most expensive first."""
        rows = sorted(self.stats.items(),
                      key=lambda kv: kv[1].cpu_seconds, reverse=True)
        if top is not None:
            rows = rows[:top]
        lines = [f"{'port method':<48} {'calls':>8} {'self CPU [s]':>14}"]
        lines.append("-" * 72)
        for key, s in rows:
            lines.append(f"{key:<48} {s.calls:>8} {s.cpu_seconds:>14.6f}")
        lines.append("-" * 72)
        lines.append("per component:")
        for comp, (calls, secs) in sorted(
                self.by_component().items(),
                key=lambda kv: kv[1][1], reverse=True):
            lines.append(f"  {comp:<30} {calls:>8} calls {secs:>12.6f} s")
        return "\n".join(lines)


def leaked_ports(framework: Framework) -> dict[str, dict[str, int]]:
    """Per-instance nonzero get/release balances across the assembly.

    The runtime counterpart of the static RA103 lint: every
    ``get_port`` increments a checkout balance on the instance's
    :class:`~repro.cca.services.Services`, every ``release_port``
    decrements it, and whatever is left after a run was leaked.
    """
    out: dict[str, dict[str, int]] = {}
    for name in framework.instance_names():
        balances = framework.services_of(name).port_balances()
        if balances:
            out[name] = balances
    return out


def instrument(framework: Framework,
               profiler: Profiler | None = None) -> Profiler:
    """Wrap every provides-port of every instantiated component and
    re-wire existing connections through the proxies.

    Returns the :class:`Profiler` accumulating the statistics (in its
    :attr:`~Profiler.registry`).
    """
    profiler = profiler if profiler is not None else Profiler()
    for name in framework.instance_names():
        services = framework.services_of(name)
        for port_name, (port, ptype) in list(services.provides.items()):
            if isinstance(port, TracingPortProxy):
                continue  # already instrumented
            label = f"{name}:{port_name}"
            proxy = TracingPortProxy(port, label, (profiler,))
            services.provides[port_name] = (proxy, ptype)
    # existing connections still hold raw port objects: swap them
    for (user, uses_port), (provider, provides_port) in \
            framework.connections().items():
        proxy, _ = framework.services_of(provider).provides[provides_port]
        framework.services_of(user)._attach(uses_port, proxy)
    return profiler

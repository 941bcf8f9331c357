"""Transparent port proxy: the one place port calls are intercepted.

A :class:`TracingPortProxy` wraps a provides-port object, forwards every
attribute access, and runs each method call through its interceptors'
``port_call`` wrappers, outermost first.  Armed
:meth:`repro.cca.services.Services.get_port` hands one out carrying the
:mod:`repro.obs.intercept` subscribers that claim the port's label;
:func:`repro.cca.profiling.instrument` hands one out carrying a
:class:`~repro.cca.profiling.Profiler`.  :func:`wrap` merges the two, so
an intercepted call pays one level of indirection.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.cca.port import Port
from repro.errors import CCAError


class TracingPortProxy(Port):
    """Forwarding wrapper running interceptors around method calls."""

    def __init__(self, target: Port, label: str,
                 interceptors: Sequence[Any]) -> None:
        # bypass our own __setattr__/__getattr__ plumbing
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_label", label)
        object.__setattr__(self, "_interceptors", tuple(interceptors))

    @classmethod
    def port_type(cls):  # pragma: no cover - proxies are created wired
        raise CCAError("proxy has no static port type")

    def __getattr__(self, name: str) -> Any:
        target = object.__getattribute__(self, "_target")
        value = getattr(target, name)
        if not callable(value):
            return value
        key = f"{object.__getattribute__(self, '_label')}.{name}"
        for icpt in reversed(object.__getattribute__(self, "_interceptors")):
            value = icpt.port_call(key, target, value)
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)


def wrap(port: Port, label: str,
         interceptors: Sequence[Any]) -> TracingPortProxy:
    """``port`` behind one proxy running ``interceptors``, then any the
    port was already proxied with."""
    if isinstance(port, TracingPortProxy):
        interceptors = (*interceptors,
                        *object.__getattribute__(port, "_interceptors"))
        port = object.__getattribute__(port, "_target")
    return TracingPortProxy(port, label, interceptors)

"""The one interceptor chain: fault injection, the race sanitizer and
tracing share one port proxy and one ``armed`` flag."""

import pytest

from repro.cca.component import Component
from repro.cca.framework import Framework
from repro.cca.port import Port
from repro.cca.portproxy import TracingPortProxy
from repro.cca.profiling import instrument
from repro.errors import DataRaceError, InjectedFault
from repro.mpi import sanitizer
from repro.obs import intercept, trace
from repro.resilience import faults
from repro.util import logging as rlog


class _EchoPort(Port):
    def echo(self, x):
        return x


class EchoProvider(Component):
    def set_services(self, services):
        self.services = services
        services.add_provides_port(_EchoPort(), "out")


class EchoUser(Component):
    def set_services(self, services):
        self.services = services
        services.register_uses_port("in", "_EchoPort")

    def run(self):
        return self.services.get_port("in").echo("hi")


class _Go(Port):
    def __init__(self, owner):
        self.owner = owner

    def go(self):
        return self.owner.run()


class GoUser(EchoUser):
    def set_services(self, services):
        super().set_services(services)
        services.add_provides_port(_Go(self), "go")


def _assembly(user=EchoUser):
    fw = Framework()
    fw.registry.register_many([EchoProvider, user])
    fw.instantiate("EchoProvider", "P")
    fw.instantiate(user.__name__, "U")
    fw.connect("U", "in", "P", "out")
    return fw


@pytest.fixture
def disarmed():
    """Start and end with an empty chain; re-arm the sanitizer if the
    environment (``REPRO_TSAN=1``) had armed it."""
    was = sanitizer.on
    faults.deactivate()
    sanitizer.deactivate()
    yield
    faults.deactivate()
    sanitizer.world_end()
    sanitizer.deactivate()
    if was:
        sanitizer.configure()


def _port_spans():
    return [e for e in trace.events()
            if e.cat == "port" and e.name == "P:out.echo"]


def test_one_proxy_runs_trace_then_sanitizer_then_fault(disarmed):
    fw = _assembly()
    faults.configure(faults.FaultPlan(inject_method="P:out.echo",
                                      inject_call=2))
    sanitizer.configure()
    sanitizer.world_begin(2)
    trace.start()
    try:
        port = fw.services_of("U").get_port("in")
        # one level of indirection over the raw provider port
        assert isinstance(port, TracingPortProxy)
        assert isinstance(object.__getattribute__(port, "_target"),
                          _EchoPort)
        with rlog.rank_context(0):
            assert port.echo(1) == 1
            sanitizer._state.writes.clear()
            with pytest.raises(InjectedFault):
                port.echo(2)
            # the sanitizer recorded the call before the fault raised
            assert any("P:out.echo()" in k
                       for k in sanitizer._state.writes)
        # the span encloses both: it closed around the raising call
        assert len(_port_spans()) == 2
        with rlog.rank_context(1):
            # rank 1's unordered call races rank 0's: the sanitizer
            # raises inside the span and before the fault check
            with pytest.raises(DataRaceError):
                port.echo(3)
        assert len(_port_spans()) == 3
        assert faults._counters.method_calls["P:out.echo"] == 2
    finally:
        trace.stop()


def test_disarming_all_three_empties_the_chain(disarmed):
    fw = _assembly()
    faults.configure(faults.FaultPlan(inject_method="P:out.echo"))
    sanitizer.configure()
    trace.start()
    assert intercept.armed is True
    trace.stop()
    sanitizer.deactivate()
    assert intercept.armed is True      # faults still subscribed
    faults.deactivate()
    assert intercept.armed is False
    port = fw.services_of("U").get_port("in")
    assert type(port) is _EchoPort


def test_profiler_stays_scoped_to_its_framework(disarmed):
    fw1 = _assembly(GoUser)
    fw2 = _assembly(GoUser)
    prof = instrument(fw1)
    assert fw1.go("U") == "hi"
    assert prof.stats["P:out.echo"].calls == 1
    assert intercept.armed is False
    assert type(fw2.services_of("U").get_port("in")) is _EchoPort

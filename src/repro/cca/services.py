"""The Services handle: a component's window into the framework.

Through it a component registers ProvidesPorts, declares UsesPorts,
fetches connected peers' ports (``get_port``), reads its script-set
parameters, and borrows the framework's scoped MPI communicator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cca.port import Port
from repro.cca.portproxy import wrap
from repro.errors import CCAError, PortNotConnectedError, PortTypeError
from repro.obs import intercept as _intercept
from repro.util.options import Options

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cca.framework import Framework


class Services:
    """Per-component-instance framework services."""

    def __init__(self, framework: "Framework", instance_name: str) -> None:
        self._framework = framework
        self.instance_name = instance_name
        self.provides: dict[str, tuple[Port, str]] = {}
        self.uses: dict[str, str] = {}
        self._connections: dict[str, Port] = {}
        self.parameters = Options()
        # uses-port checkout balance: +1 per get_port, -1 per release_port
        self._checked_out: dict[str, int] = {}

    # -- provides ------------------------------------------------------------
    def add_provides_port(self, port: Port, port_name: str,
                          port_type: str | None = None) -> None:
        """Export ``port`` under ``port_name``."""
        if not isinstance(port, Port):
            raise PortTypeError(
                f"{self.instance_name}: provides port {port_name!r} must "
                f"be a Port, got {type(port).__name__}")
        if port_name in self.provides:
            raise CCAError(
                f"{self.instance_name}: provides port {port_name!r} "
                f"already registered")
        self.provides[port_name] = (port, port_type or port.port_type())

    # -- uses ------------------------------------------------------------------
    def register_uses_port(self, port_name: str, port_type: str) -> None:
        """Declare that this component calls through ``port_name``."""
        if port_name in self.uses:
            raise CCAError(
                f"{self.instance_name}: uses port {port_name!r} already "
                f"registered")
        self.uses[port_name] = port_type

    def get_port(self, port_name: str) -> Port:
        """Fetch the provider's port connected to a uses port.

        This is the indirection every inter-component call pays — the
        Python analog of CCAFFEINE's virtual-function-call overhead.
        """
        if port_name not in self.uses:
            raise CCAError(
                f"{self.instance_name}: {port_name!r} was never registered "
                f"as a uses port")
        try:
            port = self._connections[port_name]
        except KeyError:
            raise PortNotConnectedError(
                f"{self.instance_name}: uses port {port_name!r} is not "
                f"connected") from None
        self._checked_out[port_name] = \
            self._checked_out.get(port_name, 0) + 1
        # While the interceptor chain is armed, hand out one proxy
        # labelled by the *providing* side, running every subscriber that
        # claims that label — the disabled cost is this flag check.
        if _intercept.armed:
            wired = self._framework._connections.get(
                (self.instance_name, port_name))
            label = (f"{wired[0]}:{wired[1]}" if wired
                     else f"{self.instance_name}:{port_name}")
            claiming = _intercept.claiming(label)
            if claiming:
                return wrap(port, label, claiming)
        return port

    def release_port(self, port_name: str) -> None:
        """Return a checked-out port (CCAFFEINE's reference counting).

        Decrements the checkout balance incremented by :meth:`get_port`;
        :meth:`port_balances` reports what was never returned, and
        :meth:`Framework.destroy` warns on nonzero balances.  Releasing
        more than was fetched clamps at zero (harmless double-release).
        """
        if port_name not in self.uses:
            raise CCAError(
                f"{self.instance_name}: cannot release unknown port "
                f"{port_name!r}")
        balance = self._checked_out.get(port_name, 0)
        if balance > 0:
            self._checked_out[port_name] = balance - 1

    def is_connected(self, port_name: str) -> bool:
        return port_name in self._connections

    # -- read-only introspection (used by repro.analysis) -----------------------
    def uses_table(self) -> dict[str, str]:
        """Snapshot of the declared uses ports (``name -> port_type``)."""
        return dict(self.uses)

    def provides_table(self) -> dict[str, str]:
        """Snapshot of the exported provides ports
        (``name -> port_type``, port objects omitted)."""
        return {name: ptype for name, (_port, ptype)
                in self.provides.items()}

    def port_balances(self) -> dict[str, int]:
        """Nonzero get/release balances — the leaked checkouts."""
        return {name: n for name, n in self._checked_out.items() if n}

    # -- framework-provided amenities -----------------------------------------
    def get_parameter(self, key: str, default: Any = None) -> Any:
        """Script-set parameter lookup (the rc ``parameter`` directive)."""
        return self.parameters.get(key, default)

    def get_comm(self):
        """Borrow the framework's scoped communicator (None in serial).

        "The framework lends out a properly scoped MPI communicator to any
        component to allow access to the parallel virtual machine created
        by mpirun."  (paper §2)
        """
        return self._framework.comm

    # -- internal wiring (called by the framework) -------------------------------
    def _attach(self, port_name: str, port: Port) -> None:
        self._connections[port_name] = port

    def _detach(self, port_name: str) -> None:
        self._connections.pop(port_name, None)

"""The paper's two evaluation testbeds, prewired.

:class:`ItsyTestbed` (§4.1)
    A Compaq Itsy v2.2 pocket computer as the client and an IBM T20
    laptop as the only candidate server, connected by a serial link (the
    Itsy has no PCMCIA slot).  The Coda file server sits behind the same
    serial wire, so file traffic and RPC traffic contend — and so the
    file servers can stay reachable when the Spectra *daemon* on the T20
    is taken down (the file-cache scenario's "network partition").

:class:`ThinkpadTestbed` (§4.2–4.3)
    An IBM 560X laptop client on a shared 2 Mb/s wireless network, two
    wall-powered compute servers (A: 400 MHz PII, B: 933 MHz PIII), and
    a Coda file server on the wired side.
"""

from __future__ import annotations


from ..coda import FileServer
from ..hosts import IBM_560X, IBM_T20, ITSY_V22, SERVER_A, SERVER_B
from ..network import Link, Network, SharedMedium
from ..core import SpectraNode
from ..rpc import RpcTransport
from ..sim import Simulator
from ..telemetry import Telemetry, ensure_telemetry

#: Serial line between the Itsy and the T20: 115.2 kb/s, 5 ms latency.
SERIAL_BANDWIDTH_BPS = 14_400.0
SERIAL_LATENCY_S = 0.005

#: The shared 2 Mb/s wireless LAN of the ThinkPad testbed.
WIRELESS_BANDWIDTH_BPS = 250_000.0
WIRELESS_LATENCY_S = 0.002

#: Wired backbone between servers and the file server.
WIRED_BANDWIDTH_BPS = 500_000.0
WIRED_LATENCY_S = 0.001


class ItsyTestbed:
    """Itsy client + T20 server + file server over one serial wire."""

    def __init__(self, solver=None, telemetry: "Telemetry" = None):
        self.telemetry = ensure_telemetry(telemetry)
        self.sim = Simulator(telemetry=self.telemetry)
        self.network = Network(self.sim)
        self.transport = RpcTransport(self.sim, self.network,
                                      telemetry=self.telemetry)
        self.fileserver = FileServer(self.sim, "fs")
        self.network.register_host("fs")

        self.itsy = SpectraNode(
            self.sim, self.network, self.transport, self.fileserver,
            "itsy", ITSY_V22, battery_powered=True, battery_driver="smart",
            solver=solver, telemetry=self.telemetry,
        )
        self.t20 = SpectraNode(
            self.sim, self.network, self.transport, self.fileserver,
            "t20", IBM_T20, with_client=False, telemetry=self.telemetry,
        )

        # One physical serial wire: both the T20 and the (routed) file
        # server share its capacity.
        self.serial = SharedMedium(
            self.sim, SERIAL_BANDWIDTH_BPS,
            default_latency_s=SERIAL_LATENCY_S, name="serial",
        )
        self.network.connect("itsy", "t20", self.serial.attach(name="itsy-t20"))
        self.network.connect("itsy", "fs", self.serial.attach(name="itsy-fs"))
        # The T20 reaches the file server over fast wired Ethernet.
        self.network.connect(
            "t20", "fs",
            Link(self.sim, WIRED_BANDWIDTH_BPS, WIRED_LATENCY_S, name="t20-fs"),
        )

        self.client = self.itsy.require_client()
        self.client.add_server("t20")

    def poll(self) -> None:
        """Refresh server status (experiments call this after setup changes)."""
        self.sim.run_process(self.client.poll_servers())

    # -- scenario knobs ---------------------------------------------------------------

    def halve_bandwidth(self) -> None:
        """The network scenario: halve the serial link's bandwidth."""
        self.serial.set_bandwidth(SERIAL_BANDWIDTH_BPS / 2.0)

    def load_client_cpu(self, nprocesses: int = 4) -> None:
        """The CPU scenario: CPU-intensive background job on the Itsy."""
        self.itsy.host.start_background_load(nprocesses)

    def partition_spectra_server(self) -> None:
        """The file-cache scenario's partition: Spectra daemon down,
        file servers still reachable."""
        self.t20.server.available = False

    def restore_spectra_server(self) -> None:
        self.t20.server.available = True

    def set_energy_importance(self, c: float) -> None:
        """Pin the goal-directed energy parameter on the client."""
        self.client.host.goal_adaptation.set_importance(c)


class ThinkpadTestbed:
    """560X client + servers A/B + file server (wireless + wired)."""

    def __init__(self, solver=None, client_weakly_connected: bool = False,
                 telemetry: "Telemetry" = None):
        self.telemetry = ensure_telemetry(telemetry)
        self.sim = Simulator(telemetry=self.telemetry)
        self.network = Network(self.sim)
        self.transport = RpcTransport(self.sim, self.network,
                                      telemetry=self.telemetry)
        self.fileserver = FileServer(self.sim, "fs")
        self.network.register_host("fs")

        self.thinkpad = SpectraNode(
            self.sim, self.network, self.transport, self.fileserver,
            "560x", IBM_560X, battery_powered=True, battery_driver="acpi",
            weakly_connected=client_weakly_connected, solver=solver,
            telemetry=self.telemetry,
        )
        self.server_a = SpectraNode(
            self.sim, self.network, self.transport, self.fileserver,
            "server-a", SERVER_A, with_client=False,
            telemetry=self.telemetry,
        )
        self.server_b = SpectraNode(
            self.sim, self.network, self.transport, self.fileserver,
            "server-b", SERVER_B, with_client=False,
            telemetry=self.telemetry,
        )

        self.wireless = SharedMedium(
            self.sim, WIRELESS_BANDWIDTH_BPS,
            default_latency_s=WIRELESS_LATENCY_S, name="wireless",
        )
        for peer in ("server-a", "server-b", "fs"):
            self.network.connect("560x", peer,
                                 self.wireless.attach(name=f"560x-{peer}"))
        for pair in (("server-a", "fs"), ("server-b", "fs"),
                     ("server-a", "server-b")):
            self.network.connect(
                *pair,
                Link(self.sim, WIRED_BANDWIDTH_BPS, WIRED_LATENCY_S,
                     name="-".join(pair)),
            )

        self.client = self.thinkpad.require_client()
        self.client.add_server("server-a")
        self.client.add_server("server-b")

    def poll(self) -> None:
        self.sim.run_process(self.client.poll_servers())

    # -- scenario knobs ---------------------------------------------------------------

    def load_server_cpu(self, server: str, nprocesses: int = 2) -> None:
        """The Pangloss CPU scenario: load a server with competing work."""
        node = {"server-a": self.server_a, "server-b": self.server_b}[server]
        node.host.start_background_load(nprocesses)

    def set_energy_importance(self, c: float) -> None:
        self.client.host.goal_adaptation.set_importance(c)

    def set_client_weakly_connected(self, weak: bool) -> None:
        """Toggle Coda write buffering on the client (reintegrate setup)."""
        self.thinkpad.coda.weakly_connected = weak

"""The Host: one simulated machine composed from the substrates.

A :class:`Host` owns a CPU, a power meter, optionally a battery with
goal-directed energy adaptation, and a network interface.  Wiring rules:

* CPU busy/idle transitions toggle the ``cpu`` power component.
* Network TX/RX transitions toggle ``net_tx`` / ``net_rx`` components.
* The ``idle`` component is always on (baseline draw).
* If the host is battery powered, the battery drains against the meter
  and the goal-directed adaptation produces the energy-importance ``c``.

Hosts are deliberately ignorant of Spectra: the Coda client/server and
Spectra client/server *attach to* hosts, keeping layering clean.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..energy import (
    AcpiDriver,
    Battery,
    GoalDirectedAdaptation,
    PowerMeter,
    SmartBatteryDriver,
)
from ..network import Network, NetworkInterface
from ..sim import Simulator
from .cpu import CPU, BackgroundLoad
from .profiles import HostProfile

#: Battery drivers a battery-powered host can read.
BATTERY_DRIVERS = ("smart", "acpi")


class Host:
    """One machine in the testbed.

    Parameters
    ----------
    sim:
        The shared simulation kernel.
    name:
        Unique host name used for network routing and server identity.
    profile:
        Hardware description (:class:`~repro.hosts.profiles.HostProfile`).
    network:
        The topology to register this host's interface with.
    battery_powered:
        If True, a battery (capacity from the profile) drains against the
        power meter; otherwise the host is on wall power and ``c`` is 0.
    battery_driver:
        ``"smart"`` or ``"acpi"`` — which measurement driver flavour to
        expose (§3.3.3's two monitor variants).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        profile: HostProfile,
        network: Optional[Network] = None,
        battery_powered: bool = False,
        battery_driver: str = "smart",
    ):
        self.sim = sim
        self.name = name
        self.profile = profile

        self.meter = PowerMeter(sim, name=f"{name}.meter")
        self.meter.set_component("idle", profile.idle_power_watts)

        self.cpu = CPU(
            sim,
            profile.cycles_per_second,
            name=f"{name}.cpu",
            on_utilization_change=self._on_cpu_change,
        )

        self.battery: Optional[Battery] = None
        self.battery_driver = None
        if battery_powered:
            if profile.battery_capacity_joules <= 0:
                raise ValueError(
                    f"profile {profile.name!r} has no battery capacity"
                )
            self.battery = Battery(
                sim, profile.battery_capacity_joules, meter=self.meter,
                name=f"{name}.battery",
            )
            if battery_driver == "smart":
                self.battery_driver = SmartBatteryDriver(self.battery, self.meter)
            elif battery_driver == "acpi":
                self.battery_driver = AcpiDriver(self.battery)
            else:
                raise ValueError(f"unknown battery driver {battery_driver!r}")

        self.goal_adaptation = GoalDirectedAdaptation(
            sim, self.battery, self.meter,
        )

        self.interface: Optional[NetworkInterface] = None
        self.network = network
        if network is not None:
            self.attach_network(network)

        self._background: Optional[BackgroundLoad] = None

    # -- wiring -----------------------------------------------------------------

    def attach_network(self, network: Network) -> None:
        """Register with *network* and wire radio power callbacks."""
        self.network = network
        self.interface = network.register_host(self.name)
        self.interface.on_tx_change = self._on_tx_change
        self.interface.on_rx_change = self._on_rx_change

    # -- convenience --------------------------------------------------------------

    @property
    def battery_powered(self) -> bool:
        return self.battery is not None

    @property
    def energy_importance(self) -> float:
        """The goal-directed parameter ``c`` for this host."""
        return self.goal_adaptation.importance

    def set_lifetime_goal(self, goal_seconds: Optional[float]) -> None:
        """Start goal-directed adaptation for a battery-lifetime target."""
        self.goal_adaptation.start(goal_seconds)

    def compute(self, cycles: float, owner: str = "op",
                fp_fraction: float = 0.0) -> Generator:
        """Process: burn *cycles* of work on this host's CPU.

        ``fp_fraction`` dilates the cycle count on FPU-less hosts (the
        Itsy's software floating-point emulation).
        """
        effective = self.profile.effective_cycles(cycles, fp_fraction)
        job = yield from self.cpu.run(effective, owner=owner)
        return job

    def start_background_load(self, nprocesses: int = 1) -> BackgroundLoad:
        """Launch the paper's 'CPU-intensive background job' scenario."""
        if self._background is not None:
            self._background.stop()
        self._background = BackgroundLoad(self.sim, self.cpu, nprocesses=nprocesses)
        self._background.start()
        return self._background

    def stop_background_load(self) -> None:
        if self._background is not None:
            self._background.stop()
            self._background = None

    def energy_consumed_joules(self) -> float:
        return self.meter.energy_consumed_joules()

    # -- power wiring ---------------------------------------------------------------

    def _on_cpu_change(self, _now: float, busy: bool, _active: int) -> None:
        self.meter.set_component(
            "cpu", self.profile.cpu_active_power_watts if busy else 0.0
        )

    def _on_tx_change(self, active: bool) -> None:
        self.meter.set_component(
            "net_tx", self.profile.net_tx_power_watts if active else 0.0
        )

    def _on_rx_change(self, active: bool) -> None:
        self.meter.set_component(
            "net_rx", self.profile.net_rx_power_watts if active else 0.0
        )

    def __repr__(self) -> str:
        power = "battery" if self.battery_powered else "wall"
        return f"<Host {self.name} ({self.profile.name}, {power})>"

"""The battery monitor (paper §3.3.3).

Supply: "the battery monitor returns the amount of energy remaining in
the client's battery.  It also returns an estimate of the current
importance of energy conservation, which is determined by goal-directed
adaptation."

Demand: measures per-operation energy consumption by differencing the
energy meter across the operation.  "Since it is difficult to distinguish
the energy usage of concurrent operations, Spectra ignores data gathered
from concurrently executing operations" — the client marks recordings as
concurrent and the predictor stack drops their energy samples.

A host with a battery driver (SmartBattery or ACPI) gets the
:class:`SmartBatteryMonitor`, which reads remaining capacity from
whichever driver the host has; a host without one (the 560X) is
measured by the :class:`MultimeterMonitor`.
"""

from __future__ import annotations

from typing import Optional

from ..hosts import Host
from .base import OperationRecording, ResourceMonitor
from .snapshot import BatteryEstimate, ResourceSnapshot


class BatteryMonitorBase(ResourceMonitor):
    """Common supply/demand logic for every battery monitor."""

    name = "battery"

    RESOURCE = "energy:client"

    def __init__(self, host: Host):
        self._host = host

    # -- supply ---------------------------------------------------------------------

    def _remaining_joules(self) -> Optional[float]:
        raise NotImplementedError

    def predict_avail(self, snapshot: ResourceSnapshot,
                      server_name: Optional[str] = None) -> None:
        if server_name is not None:
            return
        snapshot.battery = BatteryEstimate(
            remaining_joules=self._remaining_joules(),
            importance=self._host.energy_importance,
        )

    # -- demand ----------------------------------------------------------------------

    def start_op(self, recording: OperationRecording) -> None:
        recording.marks[self.name] = self._host.meter.energy_consumed_joules()

    def stop_op(self, recording: OperationRecording) -> None:
        start = recording.marks.get(self.name)
        if start is None:
            raise RuntimeError("battery monitor stop_op without start_op")
        joules = self._host.meter.energy_consumed_joules() - start
        recording.usage[self.RESOURCE] = (
            recording.usage.get(self.RESOURCE, 0.0) + joules
        )


class SmartBatteryMonitor(BatteryMonitorBase):
    """Reads the host's battery driver, SmartBattery (the Itsy's) or ACPI."""

    name = "battery-smart"

    def _remaining_joules(self) -> Optional[float]:
        driver = self._host.battery_driver
        if driver is None:
            return None
        return driver.remaining_capacity_joules()


class MultimeterMonitor(BatteryMonitorBase):
    """Exact external measurement — the paper's digital multimeter.

    The 560X "has no energy management support, [so] we used a digital
    multimeter to measure energy": this monitor reads the power meter
    directly and reports no battery capacity (the measured machine may
    still be wall powered).
    """

    name = "battery-multimeter"

    def _remaining_joules(self) -> Optional[float]:
        if self._host.battery is None:
            return None
        return self._host.battery.remaining_joules

"""Energy substrate: power metering, batteries, and goal-directed adaptation."""

from .battery import AcpiDriver, Battery, BatteryEmptyError, SmartBatteryDriver
from .goal import GoalDirectedAdaptation
from .power import PowerMeter

__all__ = [
    "AcpiDriver",
    "Battery",
    "BatteryEmptyError",
    "GoalDirectedAdaptation",
    "PowerMeter",
    "SmartBatteryDriver",
]

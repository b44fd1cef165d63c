"""Resource monitors: supply prediction and demand observation."""

from .base import MonitorSet, OperationRecording, ResourceMonitor
from .battery import (
    BatteryMonitorBase,
    MultimeterMonitor,
    SmartBatteryMonitor,
)
from .cpu import LocalCPUMonitor, ServerCPUMonitor
from .filecache import FileCacheMonitor
from .network import NetworkMonitor
from .remote import RemoteProxyMonitor, ServerStatus
from .snapshot import (
    BatteryEstimate,
    CacheStateEstimate,
    NetworkEstimate,
    ResourceSnapshot,
    ServerEstimate,
)

__all__ = [
    "BatteryEstimate",
    "BatteryMonitorBase",
    "CacheStateEstimate",
    "FileCacheMonitor",
    "LocalCPUMonitor",
    "MonitorSet",
    "MultimeterMonitor",
    "NetworkEstimate",
    "NetworkMonitor",
    "OperationRecording",
    "RemoteProxyMonitor",
    "ResourceMonitor",
    "ResourceSnapshot",
    "ServerCPUMonitor",
    "ServerEstimate",
    "ServerStatus",
    "SmartBatteryMonitor",
]

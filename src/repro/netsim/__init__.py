"""Network emulation environment.

The paper evaluates PAST inside a network emulator in which all Pastry node
instances run in one process and communicate through emulated links with a
scalar *proximity metric* (IP hops, geographic distance, ...).  This
package provides that substrate: node placement models, the proximity
metric, and message accounting.
"""

from .topology import Coordinate, TorusTopology, ClusteredTopology
from .stats import MessageStats
from .latency import LatencyModel, PAPER_PER_HOP_MS, percentiles
from .eventsim import (
    EventHandle,
    EventSimulator,
    PendingEvent,
    PeriodicTimer,
    SchedulePolicy,
)
from .trace import Decision, ScheduleTrace, TraceEvent
from .faults import (
    CRASH_AFTER_FSYNC,
    CRASH_BEFORE_FSYNC,
    CRASH_PHASES,
    CRASH_TORN_FSYNC,
    DISK_OK,
    DISK_READONLY,
    NEVER,
    READ_CORRUPT,
    READ_OK,
    CrashEvent,
    DiskModeEvent,
    FaultPlan,
    FaultStats,
    Partition,
    StorageFaultPlan,
    Transmission,
)

__all__ = [
    "Coordinate",
    "TorusTopology",
    "ClusteredTopology",
    "CRASH_AFTER_FSYNC",
    "CRASH_BEFORE_FSYNC",
    "CRASH_PHASES",
    "CRASH_TORN_FSYNC",
    "CrashEvent",
    "DISK_OK",
    "DISK_READONLY",
    "Decision",
    "DiskModeEvent",
    "EventHandle",
    "EventSimulator",
    "FaultPlan",
    "FaultStats",
    "MessageStats",
    "LatencyModel",
    "NEVER",
    "PAPER_PER_HOP_MS",
    "Partition",
    "READ_CORRUPT",
    "READ_OK",
    "StorageFaultPlan",
    "PendingEvent",
    "PeriodicTimer",
    "SchedulePolicy",
    "ScheduleTrace",
    "TraceEvent",
    "Transmission",
    "percentiles",
]

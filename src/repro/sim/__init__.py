"""Discrete-event simulation substrate.

The paper's evaluation (Section 5) is a simulation of a broker hierarchy.
This package provides the deterministic discrete-event kernel that hosts
broker processes, the latency/bandwidth network model connecting them, and
the seeded random-number streams that make every experiment reproducible.

The kernel is intentionally small and dependency-free: a time-ordered event
queue (:class:`~repro.sim.kernel.Simulator`), processes that exchange
messages through a :class:`~repro.sim.network.Network`, and nothing else.
"""

from repro.sim.kernel import EventHandle, Process, SimulationError, Simulator
from repro.sim.network import (
    CrashWindow,
    FaultPlan,
    FaultWindow,
    Link,
    Network,
    NetworkStats,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "CrashWindow",
    "EventHandle",
    "FaultPlan",
    "FaultWindow",
    "Link",
    "Network",
    "NetworkStats",
    "Process",
    "RngRegistry",
    "SimulationError",
    "Simulator",
]

"""Execution-runtime abstraction: one overlay, two backends.

The paper's routing and weakening machinery is runtime-agnostic; what
binds it to an execution substrate is a tiny surface — a clock, a timer
wheel, and a message transport.  :mod:`repro.runtime.base` names that
surface as structural protocols (:class:`Clock`, :class:`Timer`,
:class:`Executor`, :class:`Transport`).  The deterministic simulator
(:class:`repro.sim.kernel.Simulator` + :class:`repro.sim.network.
Network`) satisfies them as-is; :mod:`repro.runtime.asyncio_backend`
provides a second implementation running the same overlay/flow/log code
on an asyncio event loop over real localhost TCP sockets.

:mod:`repro.runtime.multiprocess_backend` runs the same transport with
every broker hosted in an OS process of its own (spawned workers, a
control RPC for orchestration), making ``kill`` a genuine SIGKILL.

Backend classes are imported lazily so that importing the protocols
never drags in the socket or multiprocessing machinery.
"""

from repro.runtime.base import Clock, Executor, Timer, Transport

__all__ = [
    "AsyncioRuntime",
    "Clock",
    "Executor",
    "MultiprocessRuntime",
    "TcpTransport",
    "Timer",
    "Transport",
]


def __getattr__(name: str):
    if name in ("AsyncioRuntime", "TcpTransport"):
        from repro.runtime import asyncio_backend

        return getattr(asyncio_backend, name)
    if name == "MultiprocessRuntime":
        from repro.runtime import multiprocess_backend

        return getattr(multiprocess_backend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

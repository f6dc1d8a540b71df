"""Multi-process placement: every broker hosted in its own OS process.

The transport is the asyncio backend's one
:class:`~repro.runtime.asyncio_backend.TcpTransport`, in the driver and
in each worker alike; what differs is which processes an OS process
hosts.  Each broker runs in a child process spawned via
:mod:`multiprocessing` that hosts that broker and nothing else; the
driver hosts the publishers and subscribers.  Every process hosted
elsewhere is a :class:`~repro.runtime.asyncio_backend.RemoteProcess` /
:class:`BrokerProxy` stand-in registered at the same name, at the port
its directory entry gives; because the stand-ins are per-name
singletons, identity checks in overlay code (``sender is self.parent``,
``s.home is sender``) keep working across the wire.  ``kill`` is a real
``SIGKILL`` with no teardown of any kind, and restore is a *fresh
process* that recovers solely from the on-disk :class:`EventLog`
segments and the paper's §4.3 refresh-or-restore renewals.

Control RPC
-----------

The driver binds one control server; each worker connects to it at
startup and speaks newline-delimited JSON:

- **bind-report**: the worker's first line is ``{"name", "port",
  "pid"}`` — the data port it bound, reported before any traffic flows.
- **register**: driver -> worker directory updates (name, port, stage)
  as publishers/subscribers bind or workers restart.
- **stats**: a snapshot (queue depth, log length, table size,
  incarnation, ``NetworkStats``, and the drain barrier's quiet flag and
  counters) — one round of the barrier, and what :meth:`BrokerProxy.stat`
  reads.
- **maintenance** / **stop**: the obvious.

Kill and restore
----------------

``kill`` sends SIGKILL and *joins the process* — the kill-ack is the
OS reporting it gone, not the victim acking anything.  ``restore``
spawns, on the same name and data port, a fresh worker that builds its
broker as the next incarnation and drives ``crash()`` + ``restart()``:
the simulator's recovery path, from the log's files alone (DESIGN §8).
"""

import asyncio
import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.advertisement import AdvertisementRegistry
from repro.metrics.counters import NodeCounters
from repro.obs.tracing import EventTracer
from repro.overlay.config import BrokerConfig
from repro.overlay.hierarchy import Hierarchy, build_tree
from repro.overlay.node import BrokerNode
from repro.runtime.asyncio_backend import AsyncioRuntime, RemoteProcess, TcpTransport
from repro.sim.kernel import Process, SimulationError
from repro.sim.rng import RngRegistry

_SPAWN = multiprocessing.get_context("spawn")

_ENCODING = "utf-8"


# ----------------------------------------------------------------------
# Specs (must stay plain-picklable: they cross the spawn boundary)
# ----------------------------------------------------------------------


@dataclass
class SystemSpec:
    """Everything a worker needs to rebuild its slice of the system."""

    stage_sizes: Tuple[int, ...]
    seed: int
    #: Every broker option, as one object (validated by the driver).
    broker: BrokerConfig
    link_latency: float = 0.001
    host: str = "127.0.0.1"


@dataclass
class WorkerSpec:
    """One worker's launch parameters (fresh spawn or restore)."""

    name: str
    stage: int
    system: SystemSpec
    control_port: int
    #: 0 = bind an ephemeral port (fresh launch); a fixed port on
    #: restore so peers' cached directories stay valid.
    data_port: int = 0
    #: 0 = fresh broker; > 0 = restore: crash()+restart() bring the
    #: broker up as this incarnation, from the on-disk log.
    incarnation: int = 0
    #: name -> (port, stage or None) for every already-bound process.
    directory: Dict[str, Tuple[Optional[int], Optional[int]]] = field(
        default_factory=dict
    )
    maintain: bool = False
    #: What was advertised before a restore: a broker keeps its
    #: advertisements through a crash (DESIGN §8), a fresh process too.
    advertisements: Tuple[Any, ...] = ()
    #: The edge processes tied to the broker, which a restore tells too.
    peers: Tuple[str, ...] = ()


# ----------------------------------------------------------------------
# The driver's stand-in for a broker
# ----------------------------------------------------------------------


class BrokerProxy(RemoteProcess):
    """Stand-in for a broker hosted elsewhere: carries the topology
    facts local code reads off a neighbour (``stage``, ``parent``,
    ``broker_children``, the ``is_broker`` duck-type marker) plus the
    worker's latest stats ``snapshot``, which :meth:`stat` fetches again
    on read once it is older than the runtime's ``stats_interval``."""

    is_broker = True

    def __init__(self, sim: Any, name: str, stage: int):
        super().__init__(sim, name)
        self.stage = stage
        self.parent: Optional[Process] = None
        self.broker_children: List[Process] = []
        #: Latest worker-reported state (see ``_BrokerWorker._snapshot``);
        #: ``{"alive": False}`` when the worker is down.
        self.snapshot: Dict[str, Any] = {}
        #: ``sim.now`` when ``snapshot`` was taken (-inf: fetch on read).
        self.fetched_at = -math.inf
        self.counters = NodeCounters()

    def attach_child(self, child: Process) -> None:
        child.parent = self
        self.broker_children.append(child)

    def stat(self, key: str, default: Any = None) -> Any:
        runtime = self.sim
        if (
            runtime.now - self.fetched_at >= runtime.stats_interval
            and not runtime.loop.is_running()
        ):
            runtime.loop.run_until_complete(runtime._poll_workers([self.name]))
        return self.snapshot.get(key, default)

    def queue_depth(self) -> int:
        return int(self.stat("queue_depth") or 0)


# ----------------------------------------------------------------------
# Driver runtime
# ----------------------------------------------------------------------


class _WorkerHandle:
    __slots__ = (
        "name",
        "stage",
        "process",
        "reader",
        "writer",
        "lock",
        "port",
        "restarts",
        "request_id",
    )

    def __init__(self, name: str, stage: int):
        self.name = name
        self.stage = stage
        self.process: Optional[Any] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.lock = asyncio.Lock()
        self.port: Optional[int] = None
        self.restarts = 0
        self.request_id = 0

    @property
    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.is_alive()
            and self.writer is not None
        )


class WorkerHierarchy(Hierarchy):
    """The driver's view of the broker tree: all proxies.  Maintenance
    toggles broadcast to the workers that own the real nodes."""

    def __init__(self, nodes_by_stage: Dict[int, List[Any]], runtime: "MultiprocessRuntime"):
        super().__init__(nodes_by_stage)
        self.runtime = runtime

    def start_maintenance(self) -> None:
        self.runtime.set_maintenance(True)

    def stop_maintenance(self) -> None:
        self.runtime.set_maintenance(False)


class MultiprocessRuntime(AsyncioRuntime):
    """Driver-side executor: an :class:`AsyncioRuntime` whose placement
    hosts every broker in a worker process of its own, orchestrated over
    the control RPC.

    Workers' loops run continuously in real time, so driving the
    driver's loop is all ``run``/``run_for``/``run_until`` need; the
    drain barrier's rounds ask the workers as well (:meth:`_round`).
    """

    #: Worker spawn is a fresh interpreter + imports; generous.
    hello_timeout = 60.0
    #: How often the hello wait looks for a worker that died instead.
    hello_poll = 0.02
    control_timeout = 10.0
    #: How old a proxy's snapshot may get before ``stat`` fetches anew.
    stats_interval = 0.1

    def __init__(self) -> None:
        super().__init__()
        self._workers: Dict[str, _WorkerHandle] = {}
        self._proxies: Dict[str, BrokerProxy] = {}
        self._pending_hello: Dict[str, "asyncio.Future"] = {}
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._control_port: Optional[int] = None
        self._transport: Optional[TcpTransport] = None
        self._spec: Optional[SystemSpec] = None
        self._locals: Dict[str, Optional[int]] = {}
        self._maintained = False
        #: What the facade gives a restore: its advertisements and edges.
        self.advertisements = AdvertisementRegistry()
        self.edges_at: Callable[[str], Tuple[str, ...]] = lambda name: ()

    # -- launch --------------------------------------------------------

    def launch(self, transport: TcpTransport, spec: SystemSpec) -> WorkerHierarchy:
        """Spawn one worker per broker, collect bind-reports, broadcast
        the directory, and return the proxy hierarchy."""
        self._transport = transport
        self._spec = spec

        def member(name: str, stage: int) -> BrokerProxy:
            proxy = self._proxies[name] = BrokerProxy(self, name, stage)
            transport.register(proxy)
            return proxy

        nodes_by_stage = build_tree(spec.stage_sizes, member, transport.connect)
        self._start_control_server(spec.host)
        for name, proxy in self._proxies.items():
            self._spawn(
                WorkerSpec(
                    name=name,
                    stage=proxy.stage,
                    system=spec,
                    control_port=self._control_port,
                )
            )
        self._await_hellos(list(self._proxies))
        self.broadcast_directory()
        return WorkerHierarchy(nodes_by_stage, self)

    def _start_control_server(self, host: str) -> None:
        async def _start() -> asyncio.AbstractServer:
            return await asyncio.start_server(self._on_control_connection, host, 0)

        self._control_server = self._loop.run_until_complete(_start())
        self._control_port = self._control_server.sockets[0].getsockname()[1]

    async def _on_control_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        line = await reader.readline()
        if not line:
            writer.close()
            return
        try:
            hello = json.loads(line.decode(_ENCODING))
        except ValueError:
            writer.close()
            return
        future = self._pending_hello.pop(hello.get("name"), None)
        if future is None or future.done():
            writer.close()
            return
        future.set_result((hello, reader, writer))

    def _spawn(self, wspec: WorkerSpec) -> None:
        handle = self._workers.get(wspec.name)
        if handle is None:
            handle = self._workers[wspec.name] = _WorkerHandle(
                wspec.name, wspec.stage
            )
        self._pending_hello[wspec.name] = self._loop.create_future()
        process = _SPAWN.Process(
            target=_worker_main, args=(wspec,), daemon=True, name=f"broker-{wspec.name}"
        )
        process.start()
        handle.process = process
        handle.reader = None
        handle.writer = None

    def _await_hellos(self, names: List[str]) -> None:
        """Collect the named workers' bind-reports.  A worker process
        that exits before its hello fails the wait at once rather than
        running out ``hello_timeout``."""

        async def _collect() -> None:
            futures = {name: self._pending_hello[name] for name in names}
            deadline = self._loop.time() + self.hello_timeout
            try:
                while not all(future.done() for future in futures.values()):
                    for name, future in futures.items():
                        process = self._workers[name].process
                        if not future.done() and not process.is_alive():
                            raise SimulationError(
                                f"worker {name!r} exited with code "
                                f"{process.exitcode} before its hello"
                            )
                    if self._loop.time() > deadline:
                        raise asyncio.TimeoutError(
                            f"no hello within {self.hello_timeout}s from "
                            f"{[n for n, f in futures.items() if not f.done()]}"
                        )
                    await asyncio.sleep(self.hello_poll)
            finally:
                # Also on failure: close() stops the workers that did
                # report in over the channels recorded here.
                for name, future in futures.items():
                    if not future.done():
                        continue
                    hello, reader, writer = future.result()
                    handle = self._workers[name]
                    handle.reader = reader
                    handle.writer = writer
                    handle.port = hello.get("port")
                    handle.request_id = 0
                    proxy = self._proxies[name]
                    proxy.fetched_at = -math.inf
                    self._transport.place(proxy, handle.port)

        self._loop.run_until_complete(_collect())

    # -- control RPC ---------------------------------------------------

    def worker(self, name: str) -> _WorkerHandle:
        return self._workers[name]

    def call(
        self, name: str, op: str, timeout: Optional[float] = None, **kw: Any
    ) -> Dict[str, Any]:
        """One synchronous control round-trip to a worker."""
        handle = self._workers[name]
        return self._loop.run_until_complete(
            self._call_async(handle, op, timeout, **kw)
        )

    async def _call_async(
        self,
        handle: _WorkerHandle,
        op: str,
        timeout: Optional[float] = None,
        **kw: Any,
    ) -> Dict[str, Any]:
        if handle.writer is None or handle.reader is None:
            raise ConnectionError(f"no control channel to {handle.name!r}")
        async with handle.lock:
            handle.request_id += 1
            request = dict(kw)
            request["op"] = op
            request["id"] = handle.request_id
            handle.writer.write(
                (json.dumps(request) + "\n").encode(_ENCODING)
            )
            await handle.writer.drain()
            while True:
                line = await asyncio.wait_for(
                    handle.reader.readline(), timeout or self.control_timeout
                )
                if not line:
                    raise ConnectionError(f"control channel to {handle.name!r} closed")
                reply = json.loads(line.decode(_ENCODING))
                # A reply to a request that timed out arrives late: skip it.
                if reply.get("id") == handle.request_id:
                    return reply

    def broadcast(self, op: str, **kw: Any) -> None:
        """Send ``op`` to every live worker; dead workers are skipped."""
        for name, handle in self._workers.items():
            if handle.alive:
                try:
                    self.call(name, op, **kw)
                except (ConnectionError, asyncio.TimeoutError, OSError):
                    pass

    def _directory(self) -> List[Dict[str, Any]]:
        entries = [
            {"name": name, "port": handle.port, "stage": handle.stage}
            for name, handle in self._workers.items()
        ]
        entries.extend(
            {"name": name, "port": port, "stage": None}
            for name, port in self._locals.items()
        )
        return entries

    def broadcast_directory(self) -> None:
        self.broadcast("register", procs=self._directory())

    def announce_local(self, name: str, port: Optional[int]) -> None:
        """A driver-local process bound ``port``: tell every worker."""
        self._locals[name] = port
        self.broadcast(
            "register", procs=[{"name": name, "port": port, "stage": None}]
        )

    def set_maintenance(self, on: bool) -> None:
        self._maintained = on
        self.broadcast("maintenance", on=on)

    # -- stats: the proxies' snapshots and the barrier's rounds --------

    def poll_workers(self) -> Dict[str, Dict[str, Any]]:
        """Fetch a stats snapshot from every worker onto its proxy."""
        return self._loop.run_until_complete(self._poll_workers())

    async def _poll_workers(
        self, names: Optional[List[str]] = None
    ) -> Dict[str, Dict[str, Any]]:
        """The named workers' snapshots (every worker's by default),
        asked at once, each put on its proxy.  A worker that does not
        answer is alive and not quiet unless its OS process is gone:
        only a dead worker may be left out of a drain."""

        async def snapshot(handle: _WorkerHandle) -> Dict[str, Any]:
            if handle.alive:
                try:
                    reply = await self._call_async(handle, "stats", 5.0)
                    return dict(reply.get("stats") or {}, alive=True)
                except (ConnectionError, asyncio.TimeoutError, OSError, ValueError):
                    pass
            process = handle.process
            return {"alive": process is not None and process.is_alive()}

        names = list(self._workers) if names is None else names
        snapshots = await asyncio.gather(
            *(snapshot(self._workers[name]) for name in names)
        )
        for name, taken in zip(names, snapshots):
            proxy = self._proxies.get(name)
            if proxy is not None:
                proxy.snapshot, proxy.fetched_at = taken, self.now
        return dict(zip(names, snapshots))

    async def _round(self) -> Dict[str, Dict[str, Any]]:
        """Every worker at once, then this process: a frame a worker
        wrote here before it answered has had the round trip to land."""
        reports = await self._poll_workers()
        reports[""] = self._report()
        return reports

    # -- kill / restore ------------------------------------------------

    def kill_worker(self, name: str) -> None:
        """SIGKILL the worker and wait for the OS to confirm it gone."""
        handle = self._workers[name]
        process = handle.process
        if process is not None and process.is_alive():
            process.kill()
        if process is not None:
            process.join(10)
            if process.is_alive():
                raise SimulationError(
                    f"worker {name!r} survived SIGKILL (pid {process.pid})"
                )
        if handle.writer is not None:
            handle.writer.close()
        handle.reader = None
        handle.writer = None
        proxy = self._proxies[name]
        proxy.snapshot, proxy.fetched_at = {"alive": False}, self.now

    def restore_worker(self, name: str) -> None:
        """Spawn a fresh process for ``name`` on its old data port, as
        its next incarnation."""
        handle = self._workers[name]
        if handle.process is not None and handle.process.is_alive():
            raise SimulationError(f"worker {name!r} is still alive")
        handle.restarts += 1
        self._spawn(
            WorkerSpec(
                name=name,
                stage=handle.stage,
                system=self._spec,
                control_port=self._control_port,
                data_port=handle.port or 0,
                incarnation=handle.restarts,
                directory={
                    entry["name"]: (entry["port"], entry["stage"])
                    for entry in self._directory()
                },
                maintain=self._maintained,
                advertisements=tuple(map(self.advertisements.get, self.advertisements.classes())),
                peers=self.edges_at(name),
            )
        )
        self._await_hellos([name])

    # -- teardown ------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        for name, handle in self._workers.items():
            if handle.alive:
                try:
                    self.call(name, "stop", timeout=5.0)
                except (ConnectionError, asyncio.TimeoutError, OSError):
                    pass
        for handle in self._workers.values():
            process = handle.process
            if process is None:
                continue
            if handle.writer is None and process.is_alive():
                # Never reported in (a failed launch): nobody to ask.
                process.terminate()
            process.join(5)
            if process.is_alive():
                process.terminate()
                process.join(2)
            if process.is_alive():
                process.kill()
                process.join(2)
            if handle.writer is not None:
                handle.writer.close()
                handle.writer = None
                handle.reader = None
        if self._control_server is not None:
            self._control_server.close()
            self._loop.run_until_complete(self._control_server.wait_closed())
            self._control_server = None
        super().close()

    def __repr__(self) -> str:
        alive = sum(1 for h in self._workers.values() if h.alive)
        return (
            f"MultiprocessRuntime(now={self.now:.3f}, "
            f"workers={alive}/{len(self._workers)})"
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_main(spec: WorkerSpec) -> None:
    """Entry point of a broker worker process (spawn target)."""
    _BrokerWorker(spec).run()


class _BrokerWorker:
    """One broker, one asyncio loop, one data server, one control
    connection — the whole lifetime of a worker process."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.runtime: Optional[AsyncioRuntime] = None
        self.transport: Optional[TcpTransport] = None
        self.node: Optional[Any] = None

    def run(self) -> None:
        self.runtime = AsyncioRuntime()
        try:
            self.runtime._loop.run_until_complete(self._main())
        finally:
            for part in (getattr(self.node, "log", None), self.transport, self.runtime):
                if part is not None:
                    try:
                        part.close()
                    except Exception:
                        pass

    async def _main(self) -> None:
        spec = self.spec
        system = spec.system
        transport = self.transport = TcpTransport(self.runtime, host=system.host)
        self._build_tree()
        node = self.node
        for name, (port, stage) in spec.directory.items():
            self._register_entry({"name": name, "port": port, "stage": stage})
        endpoint = transport.register(node)
        # A restored broker takes its old port back (peers' directories
        # name it); the old socket may still be in a lingering close.
        endpoint.port = spec.data_port or None
        await transport._ensure_server(endpoint)
        if spec.incarnation:  # the simulator's recovery path
            node.incarnation = spec.incarnation - 1
            for advertisement in spec.advertisements:
                node.advertisements.add(advertisement)
            node.links.peers.update((name, transport._by_name[name]) for name in spec.peers)
            node.crash()
            node.restart()
            # Run the fresh clock on past the reloaded log (timers keep their instants).
            runtime, tail = self.runtime, max((r.time for r in node.log or ()), default=0.0)
            behind = max(0.0, tail - runtime.now)
            runtime._t0 -= behind
            for timer in runtime._timers:
                timer.time += behind
        if spec.maintain:
            node.start_maintenance()
        reader, writer = await asyncio.open_connection(
            system.host, spec.control_port
        )
        hello = {"name": spec.name, "port": endpoint.port, "pid": os.getpid()}
        writer.write((json.dumps(hello) + "\n").encode(_ENCODING))
        await writer.drain()
        await self._control_loop(reader, writer)

    def _build_tree(self) -> None:
        """Rebuild the tree with this broker real and everyone else a
        proxy (same shape and child order as every other process: see
        :func:`~repro.overlay.hierarchy.build_tree`)."""
        spec = self.spec

        def member(name: str, stage: int) -> Process:
            if name != spec.name:
                proxy = BrokerProxy(self.runtime, name, stage)
                self.transport.register(proxy)
                return proxy
            self.node = BrokerNode(
                self.runtime,
                self.transport,
                name,
                stage,
                spec.system.broker,
                rng=RngRegistry(spec.system.seed).stream(f"node/{name}"),
                tracer=EventTracer(enabled=False),
            )
            return self.node

        build_tree(spec.system.stage_sizes, member, self.transport.connect)

    # -- control ops ---------------------------------------------------

    async def _control_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return  # driver gone; nothing to serve anyone for
            try:
                message = json.loads(line.decode(_ENCODING))
            except ValueError:
                continue
            op = message.get("op")
            reply: Dict[str, Any] = {"id": message.get("id"), "ok": True}
            try:
                if op == "register":
                    for entry in message.get("procs", []):
                        self._register_entry(entry)
                elif op == "maintenance":
                    if message.get("on"):
                        self.node.start_maintenance()
                    else:
                        self.node.stop_maintenance()
                elif op == "stats":
                    reply["stats"] = self._snapshot()
                elif op != "stop":
                    reply.update(ok=False, error=f"unknown op {op!r}")
            except Exception as exc:
                reply.update(ok=False, error=repr(exc))
            writer.write((json.dumps(reply) + "\n").encode(_ENCODING))
            await writer.drain()
            if op == "stop":
                return

    def _register_entry(self, entry: Dict[str, Any]) -> None:
        name = entry.get("name")
        if not name or name == self.spec.name:
            return
        stage = entry.get("stage")
        process = self.transport._by_name.get(name)
        if process is None:
            process = (
                BrokerProxy(self.runtime, name, stage)
                if stage
                else RemoteProcess(self.runtime, name)
            )
        self.transport.place(process, entry.get("port"))

    def _snapshot(self) -> Dict[str, Any]:
        node = self.node
        stats = self.transport.stats
        log = getattr(node, "log", None)
        # The drain barrier's part: quiet, frames sent, events processed.
        snapshot = self.runtime._report()
        snapshot.update(
            {
                "name": node.name,
                "stage": node.stage,
                "pid": os.getpid(),
                "now": self.runtime.now,
                "inflight": self.runtime._inflight,
                "crashed": node.crashed,
                "incarnation": node.incarnation,
                "queue_depth": node.queue_depth(),
                "table_size": len(node.table),
                "log_records": len(log) if log is not None else None,
                "log_next_offset": log.next_offset if log is not None else None,
                "events_shed": node.counters.events_shed,
                "net": {
                    "total_messages": stats.total_messages,
                    "total_bytes": stats.total_bytes,
                    "dropped_messages": stats.dropped_messages,
                    "dropped_bytes": stats.dropped_bytes,
                    "in_flight": stats.in_flight,
                    "peak_in_flight": stats.peak_in_flight,
                },
                "errors": list(self.transport.errors),
            }
        )
        return snapshot

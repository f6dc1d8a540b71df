"""Multi-process backend: every broker is its own OS process.

PR 8's asyncio backend put the whole overlay on one event loop in one
process, so "crash" was still cooperative — ``kill`` ran ``crash()``
in-process and the broker's Python objects (channel epochs, cached
writers, the in-memory log) conveniently survived to help recovery
along.  This backend removes the convenience: each broker runs in a
child process spawned via :mod:`multiprocessing`, ``kill`` is a real
``SIGKILL`` with no teardown of any kind, and restart is a *fresh
process* that recovers solely from the on-disk :class:`EventLog`
segments and the paper's §4.3 refresh-or-restore renewals.

Wire protocol
-------------

The asyncio backend's, unchanged: length-prefixed binary frames
(:func:`repro.runtime.asyncio_backend.encode_frame` — events as records
a broker process forwards without re-serialising or opening them,
everything else pickled), with ``Process`` references travelling as
name refs.  Frames carry a source name but no destination — addressing
is *which server socket the frame arrives at* — so the
one-listening-server-per-process model maps directly onto processes:
each worker binds one data server for its broker, and the driver binds
one per local publisher/subscriber.  Name refs resolve
against each process's local registry, where every non-local name is a
:class:`RemoteProcess` / :class:`BrokerProxy` stand-in registered at
the same name.  Because the stand-ins are per-name singletons, identity
checks in overlay code (``sender is self.parent``, ``s.home is
sender``) keep working across the wire.

Control RPC
-----------

The driver binds one control server; each worker connects to it at
startup and speaks newline-delimited JSON:

- **bind-report**: the worker's first line is ``{"name", "port",
  "pid"}`` — the data port it bound, reported before any traffic flows.
- **register**: driver -> worker directory updates (name, port, stage)
  as publishers/subscribers bind or workers restart.
- **drain**: the worker awaits local idleness (nothing in flight, no
  timer due) within a budget and reports it — the driver's drain
  barrier.
- **stats**: a snapshot (queue depth, log length, table size,
  incarnation, ``NetworkStats``) that ``run_until`` predicates and the
  metrics surface read on the driver.
- **maintenance** / **ping** / **stop**: the obvious.

Kill and restore
----------------

``kill`` sends SIGKILL and *joins the process* — the kill-ack is the
OS reporting it gone, not the victim acking anything.  ``restore``
spawns a fresh worker with the same name, the same data port (peers'
directories stay valid; their one-reconnect-per-dead-cached-writer
logic reaches the rebound server), a frozen directory snapshot, and an
incarnation base strictly above anything peers have seen.  The fresh
worker builds its broker with *no* log, then drives ``crash()`` +
``restart()``: ``restart`` reloads the log via ``EventLog.load(...,
reopen=True)``, announces ``ChannelReset`` to its tree neighbours and
the replay root, and schedules the replay request — the identical
recovery path the simulator exercises, now with genuinely nothing left
in memory to cheat with.
"""

import asyncio
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.metrics.counters import NodeCounters
from repro.obs.tracing import EventTracer
from repro.overlay.config import BrokerConfig
from repro.overlay.hierarchy import Hierarchy, build_tree
from repro.overlay.node import BrokerNode
from repro.runtime.asyncio_backend import (
    BINDING,
    CRASHED,
    INIT,
    RECOVERING,
    AsyncioRuntime,
    TcpTransport,
)
from repro.sim.kernel import Process, SimulationError
from repro.sim.rng import RngRegistry

#: Endpoint FSM state for processes that live in *another* OS process:
#: the local transport connects out to their port but never binds a
#: server for them.  ``_ensure_server`` only binds from INIT/BINDING,
#: so a REMOTE endpoint can never accidentally become local.
REMOTE = "remote"

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
    #: 0 = fresh broker.  > 0 = restore: the broker starts at this
    #: incarnation and immediately runs crash()+restart(), recovering
    #: from the on-disk log.  The driver picks a base strictly above
    #: every incarnation peers may have recorded for this name.
    incarnation_base: int = 0
    #: name -> (port, stage or None) for every already-bound process.
    directory: Dict[str, Tuple[Optional[int], Optional[int]]] = field(
        default_factory=dict
    )
    maintain: bool = False


# ----------------------------------------------------------------------
# Remote stand-ins
# ----------------------------------------------------------------------


class RemoteProcess(Process):
    """A name-addressable stand-in for a process living elsewhere.

    Subclassing :class:`Process` is load-bearing twice over: the frame
    codec's ``persistent_id`` hook serializes any ``Process`` as a name
    ref, and the transport registry returns one singleton per name, so
    overlay identity checks hold across the wire.  Receiving locally is
    a bug by construction — frames for a remote process go out a
    socket, never through ``receive``.
    """

    is_broker = False

    def receive(self, message: Any, sender: Optional[Process] = None) -> None:
        raise SimulationError(
            f"{self.name!r} is remote: frames for it must cross the wire, "
            f"not be delivered in-process"
        )


class BrokerProxy(RemoteProcess):
    """Remote stand-in for a broker: carries the topology facts local
    code reads off a neighbour (``stage``, ``parent``,
    ``broker_children``, the ``is_broker`` duck-type marker) plus the
    latest driver-side stats ``snapshot`` for predicates and metrics."""

    is_broker = True

    def __init__(self, sim: Any, name: str, stage: int):
        super().__init__(sim, name)
        self.stage = stage
        self.parent: Optional[Process] = None
        self.broker_children: List[Process] = []
        #: Latest worker-reported state (see ``_BrokerWorker._snapshot``);
        #: ``{"alive": False}`` when the worker is down.
        self.snapshot: Dict[str, Any] = {}
        self.counters = NodeCounters()

    def attach_child(self, child: Process) -> None:
        child.parent = self
        self.broker_children.append(child)

    def stat(self, key: str, default: Any = None) -> Any:
        return self.snapshot.get(key, default)

    def queue_depth(self) -> int:
        return int(self.snapshot.get("queue_depth") or 0)


# ----------------------------------------------------------------------
# Transport (shared remote-routing behaviour + driver specialization)
# ----------------------------------------------------------------------


class _RemoteRoutingTransport(TcpTransport):
    """TcpTransport that knows some endpoints live in other processes."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._remote: Set[str] = set()

    def register_remote(
        self, process: Process, port: Optional[int] = None
    ) -> Any:
        """Register a process whose server socket belongs to another OS
        process: record its port (when known) and pin the endpoint in
        the REMOTE state so it is never lazily bound here."""
        endpoint = self.register(process)
        self._remote.add(process.name)
        if port is not None:
            endpoint.port = port
        if endpoint.state in (INIT, BINDING):
            endpoint.transition(REMOTE)
        return endpoint

    def set_remote_port(self, name: str, port: Optional[int]) -> None:
        endpoint = self._endpoints.get(name)
        if endpoint is not None:
            endpoint.port = port

    def _frame_written(self, src_name: str, dst_name: str, size: int) -> None:
        """A frame fully written toward a remote endpoint will never be
        dispatched by *this* loop — the receiving process accounts its
        own arrival.  Settle it here (write success is this process's
        last sight of the frame) so the local idle detector works."""
        if dst_name not in self._remote:
            return
        if self._settle(src_name, dst_name):
            link = self._links.get((src_name, dst_name))
            if link is not None:
                self.stats.record(link, size)


class MultiprocessTransport(_RemoteRoutingTransport):
    """Driver-side transport: local publishers/subscribers, remote
    brokers, and kill/restore that operate on worker *processes*."""

    def activate(self, process: Process) -> None:
        """Bind ``process``'s data server now and announce its port to
        every worker, synchronously — a local process must be reachable
        before the first frame referencing it crosses the wire."""
        endpoint = self.register(process)
        if endpoint.state in (INIT, BINDING):
            self.runtime._loop.run_until_complete(self._ensure_server(endpoint))
        self.runtime.announce_local(process.name, endpoint.port)

    def kill(self, process: Process) -> None:
        """Fail-stop: SIGKILL for workers, PR 8 semantics otherwise.

        For a worker the sequence is: SIGKILL + join (the kill-ack is
        the OS reporting the pid gone), then the same endpoint teardown
        as the in-process backend — cached writers die, in-flight
        frames reconcile as drops.  Idempotent like the base edge.
        """
        if not self.runtime.owns_worker(process.name):
            super().kill(process)
            return
        endpoint = self._endpoints[process.name]
        if endpoint.state == CRASHED:
            return
        self.runtime.kill_worker(process.name)
        process.crash()
        endpoint.transition(CRASHED)
        endpoint.teardown = self.runtime._loop.create_task(
            self._teardown_endpoint(endpoint)
        )

    def restore(self, process: Process) -> None:
        """Restart a SIGKILL'd worker as a fresh process on its old
        port, recovering from the on-disk log alone."""
        if not self.runtime.owns_worker(process.name):
            super().restore(process)
            return
        endpoint = self._endpoints[process.name]
        if endpoint.state != CRASHED:
            raise SimulationError(
                f"cannot restore {process.name!r}: endpoint state is "
                f"{endpoint.state!r}, not {CRASHED!r} — restoring a live "
                f"worker would fork a second broker process for its name"
            )
        if endpoint.teardown is not None:
            self.runtime._loop.run_until_complete(endpoint.teardown)
            endpoint.teardown = None
        endpoint.transition(RECOVERING)
        self.runtime.restore_worker(process.name)
        endpoint.transition(REMOTE)
        process.restart()


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
    """Driver-side executor: an :class:`AsyncioRuntime` that also
    orchestrates one OS process per broker over the control RPC.

    Workers' loops run continuously in real time, so driving the driver
    loop is all ``run``/``run_for`` need; ``run(until=None)`` adds a
    drain *barrier* (local idle + every worker reporting idle, twice in
    a row), and ``run_until`` refreshes worker stats snapshots between
    polls so predicates can read worker-reported state off the proxies.
    """

    #: Worker spawn is a fresh interpreter + imports; generous.
    hello_timeout = 60.0
    #: How often the hello wait looks for a worker that died instead.
    hello_poll = 0.02
    control_timeout = 10.0
    #: Minimum wall-clock gap between stats broadcasts in ``run_until``.
    stats_interval = 0.1

    def __init__(self) -> None:
        super().__init__()
        self._workers: Dict[str, _WorkerHandle] = {}
        self._proxies: Dict[str, BrokerProxy] = {}
        self._pending_hello: Dict[str, "asyncio.Future"] = {}
        self._control_server: Optional[asyncio.AbstractServer] = None
        self._control_port: Optional[int] = None
        self._transport: Optional[MultiprocessTransport] = None
        self._spec: Optional[SystemSpec] = None
        self._locals: Dict[str, Optional[int]] = {}
        self._maintained = False
        self._last_stats = -1.0

    # -- launch --------------------------------------------------------

    def launch(
        self, transport: MultiprocessTransport, spec: SystemSpec
    ) -> WorkerHierarchy:
        """Spawn one worker per broker, collect bind-reports, broadcast
        the directory, and return the proxy hierarchy."""
        self._transport = transport
        self._spec = spec

        def member(name: str, stage: int) -> BrokerProxy:
            proxy = self._proxies[name] = BrokerProxy(self, name, stage)
            transport.register_remote(proxy)
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
                    self._transport.set_remote_port(name, handle.port)

        self._loop.run_until_complete(_collect())

    # -- control RPC ---------------------------------------------------

    def owns_worker(self, name: str) -> bool:
        return name in self._workers

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
            line = await asyncio.wait_for(
                handle.reader.readline(), timeout or self.control_timeout
            )
            if not line:
                raise ConnectionError(f"control channel to {handle.name!r} closed")
            return json.loads(line.decode(_ENCODING))

    def broadcast(self, op: str, **kw: Any) -> Dict[str, Dict[str, Any]]:
        """Send ``op`` to every live worker; dead workers are skipped."""
        replies: Dict[str, Dict[str, Any]] = {}
        for name, handle in self._workers.items():
            if not handle.alive:
                continue
            try:
                replies[name] = self.call(name, op, **kw)
            except (ConnectionError, asyncio.TimeoutError, OSError):
                continue
        return replies

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
        proxy = self._proxies.get(name)
        if proxy is not None:
            proxy.snapshot = {"alive": False}

    def restore_worker(self, name: str) -> None:
        """Spawn a fresh process for ``name`` on its old data port.

        The incarnation base rises by 2 per restart: peers recorded at
        most ``base + 1`` from the previous incarnation's ChannelReset,
        and the fresh worker announces ``base' + 1 = base + 3``, so its
        resets are never mistaken for stale duplicates.
        """
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
                incarnation_base=handle.restarts * 2,
                directory={
                    entry["name"]: (entry["port"], entry["stage"])
                    for entry in self._directory()
                },
                maintain=self._maintained,
            )
        )
        self._await_hellos([name])

    # -- driving -------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Timed runs drive the local loop (workers run continuously in
        real time anyway); a drain (``until=None``) additionally
        barriers on every worker reporting idle twice in a row."""
        if until is not None or not self._workers:
            return super().run(until=until, max_events=max_events)
        before = self._processed
        deadline = time.monotonic() + self.idle_timeout
        quiet_rounds = 0
        while quiet_rounds < 2 and time.monotonic() < deadline:
            super().run()
            local_idle = self._inflight == 0 and not self._timer_due_within(
                self.idle_horizon
            )
            workers_idle = True
            for name, handle in self._workers.items():
                if not handle.alive:
                    continue
                try:
                    reply = self.call(name, "drain", budget=1.0)
                except (ConnectionError, asyncio.TimeoutError, OSError):
                    continue
                if not reply.get("idle"):
                    workers_idle = False
            quiet_rounds = (
                quiet_rounds + 1 if (local_idle and workers_idle) else 0
            )
        return self._processed - before

    def run_until(
        self,
        predicate: Any,
        timeout: float,
        poll: float = 0.02,
    ) -> bool:
        """Like the base, but worker stats snapshots refresh (throttled)
        between polls so predicates can read worker-reported state."""
        self.poll_workers()
        if predicate():
            return True
        deadline = self.now + timeout
        while self.now < deadline:
            self._loop.run_until_complete(asyncio.sleep(poll))
            self._maybe_poll_workers()
            if predicate():
                return True
        self.poll_workers()
        return predicate()

    def _maybe_poll_workers(self) -> None:
        if self.now - self._last_stats >= self.stats_interval:
            self.poll_workers()

    def poll_workers(self) -> Dict[str, Dict[str, Any]]:
        """Fetch a stats snapshot from every worker onto its proxy."""
        self._last_stats = self.now
        snapshots: Dict[str, Dict[str, Any]] = {}
        for name, handle in self._workers.items():
            if not handle.alive:
                snapshot: Dict[str, Any] = {"alive": False}
            else:
                try:
                    reply = self.call(name, "stats", timeout=5.0)
                    snapshot = reply.get("stats") or {}
                    snapshot["alive"] = True
                except (ConnectionError, asyncio.TimeoutError, OSError, ValueError):
                    snapshot = {"alive": False}
            proxy = self._proxies.get(name)
            if proxy is not None:
                proxy.snapshot = snapshot
            snapshots[name] = snapshot
        return snapshots

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


class _WorkerTransport(_RemoteRoutingTransport):
    """Worker-side transport: exactly one local endpoint (the owned
    broker); every other name resolves to a remote stand-in.  Lookup is
    forgiving — a name arriving ahead of its directory entry gets a
    portless stand-in that the next ``register`` broadcast fills in."""

    def lookup(self, name: str) -> Process:
        process = self._by_name.get(name)
        if process is None:
            process = RemoteProcess(self.runtime, name)
            self.register_remote(process)
        return process


def _worker_main(spec: WorkerSpec) -> None:
    """Entry point of a broker worker process (spawn target)."""
    _BrokerWorker(spec).run()


class _BrokerWorker:
    """One broker, one asyncio loop, one data server, one control
    connection — the whole lifetime of a worker process."""

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        self.runtime: Optional[AsyncioRuntime] = None
        self.transport: Optional[_WorkerTransport] = None
        self.node: Optional[Any] = None

    def run(self) -> None:
        self.runtime = AsyncioRuntime()
        try:
            self.runtime._loop.run_until_complete(self._main())
        finally:
            node = self.node
            if node is not None and getattr(node, "log", None) is not None:
                try:
                    node.log.close()
                except Exception:
                    pass
            if self.transport is not None:
                try:
                    self.transport.close()
                except Exception:
                    pass
            try:
                self.runtime.close()
            except Exception:
                pass

    async def _main(self) -> None:
        spec = self.spec
        system = spec.system
        runtime = self.runtime
        transport = self.transport = _WorkerTransport(runtime, host=system.host)
        self._build_tree()
        node = self.node
        for name, (port, stage) in spec.directory.items():
            self._register_entry({"name": name, "port": port, "stage": stage})
        endpoint = transport.register(node)
        await self._bind_data_server(endpoint)
        restoring = spec.incarnation_base > 0
        if restoring:
            # True fail-stop recovery: the broker starts with *nothing*
            # in memory.  crash()+restart() runs the identical recovery
            # path the simulator exercises — reload the on-disk log,
            # ChannelReset the neighbours, schedule the replay request.
            node.incarnation = spec.incarnation_base
            node.crash()
            node.restart()
        if spec.maintain:
            node.start_maintenance()
        reader, writer = await asyncio.open_connection(
            system.host, spec.control_port
        )
        hello = {"name": spec.name, "port": endpoint.port, "pid": os.getpid()}
        writer.write((json.dumps(hello) + "\n").encode(_ENCODING))
        await writer.drain()
        await self._control_loop(reader, writer)

    def _build_node(self) -> BrokerNode:
        spec = self.spec
        system = spec.system
        config = system.broker
        restoring = spec.incarnation_base > 0
        node = BrokerNode(
            self.runtime,
            self.transport,
            spec.name,
            spec.stage,
            # On restore the fresh EventLog a normal construction would
            # open must NOT clobber the on-disk segments we are about to
            # recover from: build logless and let restart() reload.
            replace(config, log=None) if restoring else config,
            rng=RngRegistry(system.seed).stream(f"node/{spec.name}"),
            tracer=EventTracer(enabled=False),
        )
        if config.log is not None and config.log.directory:
            node.recover_log_from_disk = True
            if restoring:
                node.log_config = config.log
        return node

    def _build_tree(self) -> None:
        """Rebuild the tree with this broker real and everyone else a
        proxy (same shape and child order as every other process: see
        :func:`~repro.overlay.hierarchy.build_tree`)."""

        def member(name: str, stage: int) -> Process:
            if name == self.spec.name:
                self.node = self._build_node()
                return self.node
            proxy = BrokerProxy(self.runtime, name, stage)
            self.transport.register_remote(proxy)
            return proxy

        build_tree(self.spec.system.stage_sizes, member, self.transport.connect)

    async def _bind_data_server(self, endpoint: Any) -> None:
        """Bind the broker's data server; on restore the fixed old port
        may still be in a lingering close, so back off and retry."""
        endpoint.port = self.spec.data_port or None
        delay = 0.02
        while True:
            try:
                await self.transport._ensure_server(endpoint)
                return
            except OSError:
                if delay > 2.0:
                    raise
                endpoint.server = None
                endpoint.transition(INIT)
                await asyncio.sleep(delay)
                delay *= 2

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
            stop = False
            try:
                if op == "register":
                    for entry in message.get("procs", []):
                        self._register_entry(entry)
                elif op == "maintenance":
                    if message.get("on"):
                        self.node.start_maintenance()
                    else:
                        self.node.stop_maintenance()
                elif op == "drain":
                    reply["idle"] = await self._await_idle(
                        float(message.get("budget", 1.0))
                    )
                elif op == "stats":
                    reply["stats"] = self._snapshot()
                elif op == "ping":
                    reply["now"] = self.runtime.now
                elif op == "stop":
                    stop = True
                else:
                    reply = {
                        "id": message.get("id"),
                        "ok": False,
                        "error": f"unknown op {op!r}",
                    }
            except Exception as exc:
                reply = {
                    "id": message.get("id"),
                    "ok": False,
                    "error": repr(exc),
                }
            writer.write((json.dumps(reply) + "\n").encode(_ENCODING))
            await writer.drain()
            if stop:
                return

    def _register_entry(self, entry: Dict[str, Any]) -> None:
        name = entry.get("name")
        if not name or name == self.spec.name:
            return
        port = entry.get("port")
        stage = entry.get("stage")
        process = self.transport._by_name.get(name)
        if process is None:
            process = (
                BrokerProxy(self.runtime, name, stage)
                if stage
                else RemoteProcess(self.runtime, name)
            )
            self.transport.register_remote(process, port)
        elif port is not None:
            self.transport.set_remote_port(name, port)

    async def _await_idle(self, budget: float) -> bool:
        runtime = self.runtime
        deadline = runtime.now + budget
        settle = 0
        while runtime.now < deadline:
            await asyncio.sleep(runtime._idle_poll)
            if runtime._inflight == 0 and not runtime._timer_due_within(
                runtime.idle_horizon
            ):
                settle += 1
                if settle >= runtime._idle_settle:
                    return True
            else:
                settle = 0
        return False

    def _snapshot(self) -> Dict[str, Any]:
        node = self.node
        runtime = self.runtime
        stats = self.transport.stats
        log = getattr(node, "log", None)
        return {
            "name": node.name,
            "stage": node.stage,
            "pid": os.getpid(),
            "now": runtime.now,
            "processed": runtime.processed_events,
            "inflight": runtime._inflight,
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

"""The socket runtime: an asyncio executor and a TCP transport.

This module is the second implementation of the :mod:`repro.runtime.base`
protocols.  :class:`AsyncioRuntime` maps the simulator's timer surface
onto an asyncio event loop (``schedule`` → ``call_at``, ``now`` → loop
time since construction), and :class:`TcpTransport` replaces the
simulated link model with real localhost TCP sockets: every registered
process gets an FSM-tracked endpoint, and ``send`` writes
length-prefixed binary frames instead of scheduling a delivery event.

Placement is what the transport's registry holds: a real
:class:`~repro.sim.kernel.Process` registered here is hosted in this OS
process and listens on a server of its own; a :class:`RemoteProcess`
stand-in is hosted in another OS process, at the port its directory
entry gives.  ``runtime="asyncio"`` registers only real processes;
``runtime="multiprocess"`` (:mod:`repro.runtime.multiprocess_backend`)
runs this same transport in the driver and in every broker worker, each
hosting its own share.

Framing protocol (one frame per message, DESIGN §13)::

    4 bytes   frame length, this prefix included, big-endian
              (at most ``MAX_FRAME_BYTES``; a reader hangs up on more)
    8 bytes   header: version, kind, sender-name length, record count
    ...       sender name, UTF-8
    ...       body, by kind
    4 bytes   CRC-32 of header, name and body

Messages are the same dataclasses the simulator delivers by reference
(:mod:`repro.overlay.messages`).  The data plane — ``Publish``,
``PublishBatch``, ``DataFrame``, ``ReplayBatch``, ``CatchUpBatch``,
bare or inside one ``Sequenced`` — has a kind each: the body is the
message's few integer fields, fixed-width, and then one self-delimiting
*record* per event (:meth:`repro.overlay.messages.Publish.record`: root
offset, ``published_at`` and ``(publisher, seq)`` as fixed fields, the
property set, and the payload as a raw length-prefixed slice that no
broker opens; empty for a ``PropertyEvent``, whose property set is the
event).  A record is built with its ``Publish`` object, once, at
publish, and decoding keeps the slice it parsed, so a broker
forwarding an event to k children encodes with a ``bytes.join``.
Every other message, and a data-plane message holding a value the
record format cannot carry exactly, is ``kind`` 0: the body is the
message pickled.  Control messages carry direct
:class:`~repro.sim.kernel.Process` references (``JoinAt.node``,
``SubscriptionRequest.subscriber``, ...); those are pickled as *name
references* via a ``persistent_id`` hook and resolved against the
transport's registry on receive, so identity survives the wire without
pickling a whole broker.

Endpoint FSM (see DESIGN §13)::

    INIT -> BINDING -> LISTENING -> SERVING
                          |  ^
                          v  |
              CRASHED -> RECOVERING
    (any) -> STOPPED

``kill`` closes the endpoint's server and connections mid-flight (frames
to it are dropped and counted, like the simulator's crash gate), after
a SIGKILL of the worker when the process is hosted elsewhere;
``restore`` takes the same port back — rebinding it here, or spawning a
fresh worker on it — and lets the normal ChannelReset/renewal recovery
machinery run over the reopened sockets.
"""

import asyncio
import io
import math
import pickle
import struct
import zlib
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.tracing import EventTracer
from repro.overlay.messages import (
    FRAME_HEAD,
    FRAME_TRAILER,
    SEQUENCED_LAYOUT,
    CatchUpBatch,
    DataFrame,
    Publish,
    PublishBatch,
    ReplayBatch,
    Sequenced,
)
from repro.sim.kernel import Process, SimulationError
from repro.sim.network import Link, NetworkStats

FRAME_VERSION = 2
_HEADER_SIZE = 4
#: Largest frame a reader accepts, length prefix included.  A length
#: outside ``_HEADER_SIZE + 1 .. MAX_FRAME_BYTES`` is a corrupt or
#: hostile prefix: the connection is closed before anything is buffered.
MAX_FRAME_BYTES = 16 * 1024 * 1024

# Endpoint FSM states.
INIT = "init"
BINDING = "binding"
LISTENING = "listening"
SERVING = "serving"
CRASHED = "crashed"
RECOVERING = "recovering"
STOPPED = "stopped"


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------

# The header, trailer and per-message field layouts are declared beside
# the messages (:mod:`repro.overlay.messages`): the simulator prices a
# data message with them.
#: A frame ends in the CRC-32 of everything before it, little-endian,
#: which makes the CRC-32 of the *whole* frame this constant: the check
#: is one pass over the bytes as they arrived, with nothing sliced off.
_CRC_RESIDUE = 0x2144DF1C

#: ``kind`` of a frame whose body is the pickled message.
_PICKLE = 0
_PUBLISH = 1
#: ``kind`` bit: the run travels inside ``Sequenced(epoch, seq, ...)``.
_IN_SEQUENCED = 0x80
#: The data plane.  ``kind -> (message class, its fields besides the
#: run of events, their fixed encoding)``; a single ``Publish`` is the
#: run itself.  ``?`` demands a ``bool`` and ``q`` an ``int``.
_RUN_KINDS = {
    kind: (cls, cls.FRAME_FIELDS, cls.FRAME_LAYOUT)
    for kind, cls in enumerate(
        (Publish, PublishBatch, DataFrame, ReplayBatch, CatchUpBatch), _PUBLISH
    )
}
_KIND_OF = {
    cls: (kind, names, layout) for kind, (cls, names, layout) in _RUN_KINDS.items()
}
_FIELD_TYPES = {"q": int, "?": bool}


class _ProcessRefPickler(pickle.Pickler):
    """Serialize :class:`Process` references as stable name refs."""

    def persistent_id(self, obj: Any) -> Optional[str]:
        if isinstance(obj, Process):
            return obj.name
        return None


class _ProcessRefUnpickler(pickle.Unpickler):
    def __init__(self, file: io.BytesIO, resolve: Callable[[str], Process]):
        super().__init__(file)
        self._resolve = resolve

    def persistent_load(self, pid: str) -> Process:
        return self._resolve(pid)


def _pack_fields(layout: struct.Struct, values: tuple) -> Optional[bytes]:
    """``values`` in ``layout``, or ``None`` unless every value has
    exactly the type its field decodes to, and fits."""
    for code, value in zip(layout.format[1:], values):
        if type(value) is not _FIELD_TYPES[code]:
            return None
    try:
        return layout.pack(*values)
    except struct.error:
        return None


def _run_parts(message: Any) -> Optional[Tuple[int, int, List[bytes]]]:
    """``(kind, record count, body parts)`` of a data-plane message, or
    ``None`` when the record format cannot carry it exactly.  That is
    decided by the types of the values in it, never by a setting."""
    flag, parts = 0, []
    if type(message) is Sequenced:
        numbering = _pack_fields(SEQUENCED_LAYOUT, (message.epoch, message.seq))
        if numbering is None:
            return None
        flag, parts, message = _IN_SEQUENCED, [numbering], message.payload
    known = _KIND_OF.get(type(message))
    if known is None:
        return None
    kind, names, layout = known
    if names:
        fields = _pack_fields(layout, tuple(getattr(message, n) for n in names))
        if fields is None:
            return None
        parts.append(fields)
    run = (message,) if kind == _PUBLISH else message.publishes
    if type(run) is not tuple:
        return None
    for publish in run:  # every event has its record from birth
        record = publish._record if type(publish) is Publish else None
        if record is None:
            return None
        parts.append(record)
    return flag | kind, len(run), parts


def encode_frame(src_name: str, message: Any) -> bytes:
    """One message as a frame payload (without the length prefix).

    A run of events is a header and the events' records joined: a
    record is built with its ``Publish`` (a decoded one keeps the slice
    it was parsed from), so no broker re-serialises anything.
    Everything else is the message pickled (``Process`` references as
    names), as raw bytes.
    """
    run = _run_parts(message)
    if run is None:
        buffer = io.BytesIO()
        _ProcessRefPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(message)
        run = _PICKLE, 0, [buffer.getvalue()]
    kind, count, parts = run
    name = src_name.encode("utf-8", "surrogatepass")
    parts[:0] = FRAME_HEAD.pack(FRAME_VERSION, kind, len(name), count), name
    body = b"".join(parts)
    return body + FRAME_TRAILER.pack(zlib.crc32(body))


def frame_sender(payload: bytes) -> Optional[str]:
    """The sender name in a frame's header, checked against nothing:
    who to book a frame on when :func:`decode_frame` refused it.
    ``None`` when the header itself does not parse."""
    try:
        version, _, name_size, _ = FRAME_HEAD.unpack_from(payload)
        name = payload[FRAME_HEAD.size : FRAME_HEAD.size + name_size]
        if version != FRAME_VERSION or len(name) != name_size:
            return None
        return name.decode("utf-8", "surrogatepass")
    except (struct.error, ValueError):
        return None


def decode_frame(
    payload: bytes, resolve: Callable[[str], Process]
) -> Tuple[str, Any]:
    """Parse a frame payload back into ``(sender name, message)``.

    Raises ``ValueError``, and nothing else, on a frame that is
    truncated, of another version, fails its checksum (so corrupt bytes
    are never unpickled) or names an unknown process.  Event payloads
    are sliced out of the frame, never opened.
    """
    try:
        return _decode(payload, resolve)
    except ValueError:
        raise
    except Exception as exc:  # struct, pickle, a class this side lacks
        raise ValueError(f"undecodable frame: {exc!r}") from exc


def _decode(payload: bytes, resolve: Callable[[str], Process]) -> Tuple[str, Any]:
    if len(payload) < FRAME_HEAD.size + FRAME_TRAILER.size:
        raise ValueError(f"truncated frame ({len(payload)} bytes)")
    version, kind, name_size, count = FRAME_HEAD.unpack_from(payload)
    if version != FRAME_VERSION:
        raise ValueError(f"unsupported frame version {version!r}")
    if zlib.crc32(payload) != _CRC_RESIDUE:
        raise ValueError("frame checksum mismatch")
    position = FRAME_HEAD.size + name_size
    src_name = payload[FRAME_HEAD.size : position].decode("utf-8", "surrogatepass")
    if kind == _PICKLE:
        buffer = io.BytesIO(payload)
        buffer.seek(position)
        return src_name, _ProcessRefUnpickler(buffer, resolve).load()
    numbering = None
    if kind & _IN_SEQUENCED:
        numbering = SEQUENCED_LAYOUT.unpack_from(payload, position)
        position += SEQUENCED_LAYOUT.size
    cls, names, layout = _RUN_KINDS[kind & ~_IN_SEQUENCED]
    fields = layout.unpack_from(payload, position)
    position += layout.size
    run = []
    from_record = Publish.from_record
    for _ in range(count):
        publish, position = from_record(payload, position)
        run.append(publish)
    if position != len(payload) - FRAME_TRAILER.size:
        raise ValueError("the records do not end where the frame does")
    if cls is Publish:
        (message,) = run
    else:
        message = cls(publishes=tuple(run), **dict(zip(names, fields)))
    if numbering is not None:
        message = Sequenced(*numbering, message)
    return src_name, message


# ----------------------------------------------------------------------
# Timers
# ----------------------------------------------------------------------


class AsyncioTimer:
    """A timer satisfying :class:`repro.runtime.base.Timer`: one-shot, or
    with an ``interval`` recurring like :class:`repro.sim.kernel.
    RecurringHandle` until cancelled."""

    __slots__ = ("runtime", "time", "interval", "callback", "args", "cancelled", "_handle")

    def __init__(
        self,
        runtime: "AsyncioRuntime",
        time: float,
        callback: Callable[..., None],
        args: tuple,
        interval: Optional[float] = None,
    ):
        self.runtime = runtime
        self.time = time
        self.interval = interval
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._handle = runtime._loop.call_at(runtime._t0 + time, self._fire)
        runtime._timers.add(self)

    def _fire(self) -> None:
        runtime = self.runtime
        if self.cancelled:
            return
        if self.interval is None:
            runtime._timers.discard(self)
        else:
            # Reschedule first, like the sim's RecurringHandle: the callback
            # sees the next tick armed and may cancel to stop the chain.
            self.time = runtime.now + self.interval
            self._handle = runtime._loop.call_at(runtime._t0 + self.time, self._fire)
        runtime._processed += 1
        self.callback(*self.args)

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._handle.cancel()
            self.runtime._timers.discard(self)

    def __repr__(self) -> str:
        when = f"t={self.time!r}" if self.interval is None else f"every={self.interval!r}"
        return f"AsyncioTimer({when}, {'cancelled' if self.cancelled else 'pending'})"


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


class AsyncioRuntime:
    """Wall-clock executor satisfying :class:`repro.runtime.base.Executor`.

    The loop is owned, private, and driven synchronously: ``run`` /
    ``run_until`` block the calling thread while the loop services
    timers and sockets, exactly as ``Simulator.run`` blocks while
    popping its heap.  ``now`` is seconds since construction, so
    published_at stamps and log append times stay small positive floats
    on both backends.

    ``run()`` with no deadline is the drain barrier (DESIGN §13): rounds
    that ask every participant at once — this process, plus its workers
    when it has any (:meth:`_round`) — whether it is quiet and how far
    its frame and event counters have got.
    """

    #: ``run(until=None)`` gives up after this many wall seconds even if
    #: the system never goes quiet (retransmitting to a dead peer, say).
    idle_timeout = 30.0
    #: A participant is quiet when nothing it sent is in flight and no
    #: one-shot timer of its is due within this horizon (covers
    #: retransmit timers re-arming).
    idle_horizon = 0.05

    def __init__(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._t0 = self._loop.time()
        self._processed = 0
        #: Frames handed to the transport, ever (the barrier's frame counter).
        self._sent = 0
        self._timers: set = set()
        #: Frames sent but not yet dispatched, written to another OS
        #: process or dropped (maintained by the transport: the count of
        #: its ``_wire`` entries).
        self._inflight = 0
        self._closed = False

    @property
    def now(self) -> float:
        return self._loop.time() - self._t0

    @property
    def processed_events(self) -> int:
        """Timer fires plus dispatched frames (cancelled timers excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        return len(self._timers)

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    # -- timer surface (Executor protocol) -----------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> AsyncioTimer:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return AsyncioTimer(self, self.now + delay, callback, args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> AsyncioTimer:
        return AsyncioTimer(self, time, callback, args)

    def defer(self, callback: Callable[..., None], *args: Any) -> AsyncioTimer:
        return AsyncioTimer(self, self.now, callback, args)

    def every(
        self, interval: float, callback: Callable[..., None], *args: Any
    ) -> AsyncioTimer:
        if interval <= 0:
            raise SimulationError(
                f"recurring interval must be positive, got {interval}"
            )
        return AsyncioTimer(self, self.now + interval, callback, args, interval)

    # -- driving the loop ----------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Drive the loop: until wall time ``until``, or until idle.

        ``max_events`` is accepted for signature parity with the
        simulator but cannot bound a wall-clock loop mid-flight; it is
        ignored.  Returns the number of events processed by this call.
        """
        if self._closed:
            raise SimulationError("runtime is closed")
        before = self._processed
        if until is None:
            self._loop.run_until_complete(self._drain())
        elif until > self.now:
            self._loop.run_until_complete(asyncio.sleep(until - self.now))
        return self._processed - before

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        poll: float = 0.02,
    ) -> bool:
        """Drive the loop until ``predicate()`` holds; False on timeout.

        The predicate runs between loop slices (never concurrently with
        callbacks), so it may inspect process state freely.
        """
        if predicate():
            return True
        deadline = self.now + timeout
        while self.now < deadline:
            self._loop.run_until_complete(asyncio.sleep(poll))
            if predicate():
                return True
        return predicate()

    async def _drain(self) -> None:
        """Rounds until two in a row find every live participant quiet
        and no participant's counters moved since the round before."""
        deadline = self.now + self.idle_timeout
        last, still = None, 0
        while still < 2 and self.now < deadline:
            reports = await self._round()
            counters = {
                name: (report.get("sent"), report.get("processed"))
                for name, report in reports.items()
                if report["alive"]
            }
            quiet = all(reports[name].get("quiet") for name in counters)
            still = still + 1 if quiet and counters == last else 0
            last = counters
            # Frames in flight here, or everything quiet: the next round
            # at once (it yields to the loop).  A timer due soon: its time.
            due = 0.0 if self._inflight else self._next_due() - self.now
            await asyncio.sleep(due if 0 < due <= self.idle_horizon else 0)

    async def _round(self) -> Dict[str, Dict[str, Any]]:
        """Every participant's report, asked at once: here, this process's."""
        return {"": self._report()}

    def _report(self) -> Dict[str, Any]:
        """This process as a participant of the drain barrier."""
        return {
            "alive": True,
            "quiet": self._inflight == 0
            and self._next_due() > self.now + self.idle_horizon,
            "sent": self._sent,
            "processed": self._processed,
        }

    def _next_due(self) -> float:
        """When the earliest one-shot timer is due (a recurring one never
        lets the system go quiet, so it is no reason to wait)."""
        return min(
            (timer.time for timer in self._timers if timer.interval is None),
            default=math.inf,
        )

    def close(self) -> None:
        """Cancel outstanding work and close the loop for good."""
        if self._closed:
            return
        self._closed = True
        for timer in list(self._timers):
            timer.cancel()
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()

    def __repr__(self) -> str:
        return f"AsyncioRuntime(now={self.now:.3f}, processed={self._processed})"


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------


class RemoteProcess(Process):
    """A name-addressable stand-in for a process hosted elsewhere.

    Subclassing :class:`Process` is load-bearing twice over: the frame
    codec's ``persistent_id`` hook serializes any ``Process`` as a name
    ref, and the transport registry returns one singleton per name, so
    overlay identity checks (``sender is self.parent``, ``s.home is
    sender``) hold across the wire.  Receiving locally is a bug by
    construction — frames for a remote process go out a socket, never
    through ``receive``.
    """

    is_broker = False

    def receive(self, message: Any, sender: Optional[Process] = None) -> None:
        raise SimulationError(
            f"{self.name!r} is remote: frames for it must cross the wire, "
            f"not be delivered in-process"
        )


class _Wire(deque):
    """One directed pair's frames in flight, their sizes in send order.
    The first ``written`` have been written toward a receiver hosted
    here; they are a prefix because frames of a pair are written in
    order."""

    __slots__ = ("written",)

    def __init__(self) -> None:
        super().__init__()
        self.written = 0


class _Endpoint:
    """One process's socket presence: server, connections, FSM state."""

    __slots__ = (
        "process",
        "local",
        "kills",
        "server",
        "port",
        "state",
        "history",
        "outbound",
        "inbound",
        "teardown",
        "_lock",
    )

    def __init__(self, process: Process):
        self.process = process
        #: Hosted in this OS process (its server is bound here) rather
        #: than a stand-in for one hosted elsewhere.
        self.local = not isinstance(process, RemoteProcess)
        #: ``kill`` calls so far: a connection opened or accepted before
        #: the latest one leads to, or from, a dead incarnation.
        self.kills = 0
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self.state = INIT
        self.history: List[str] = [INIT]
        #: dst name -> StreamWriter for frames this process sends.
        self.outbound: Dict[str, asyncio.StreamWriter] = {}
        #: StreamWriters of accepted inbound connections (for teardown).
        self.inbound: List[asyncio.StreamWriter] = []
        #: In-flight teardown task after a kill; restore awaits it so the
        #: old server socket is fully closed before rebinding the port.
        self.teardown: Optional["asyncio.Task"] = None
        self._lock: Optional[asyncio.Lock] = None

    def transition(self, state: str) -> None:
        if state != self.state:
            self.state = state
            self.history.append(state)


class TcpTransport:
    """Message fabric over real localhost TCP sockets.

    Satisfies :class:`repro.runtime.base.Transport` with the same
    ``send(src, dst, message)`` surface as the simulated
    :class:`~repro.sim.network.Network`, so overlay code cannot tell
    them apart.  Per-pair frame order is preserved (one serialized
    writer chain per directed pair); cross-pair order is whatever the
    loop and the kernel make of it — which is the point.
    """

    def __init__(
        self,
        runtime: AsyncioRuntime,
        default_latency: Optional[float] = None,
        tracer: Optional[EventTracer] = None,
        host: str = "127.0.0.1",
    ):
        self.runtime = runtime
        self.host = host
        #: Unused for timing (the kernel schedules real packets); kept
        #: for constructor parity with Network.
        self.default_latency = default_latency
        self.stats = NetworkStats()
        self.tracer = tracer if tracer is not None else EventTracer(enabled=False)
        self._endpoints: Dict[str, _Endpoint] = {}
        self._by_name: Dict[str, Process] = {}
        #: Names of the registered stand-ins: processes hosted elsewhere.
        self._elsewhere: Set[str] = set()
        self._links: Dict[Tuple[str, str], Link] = {}
        self._pair_locks: Dict[Tuple[str, str], asyncio.Lock] = {}
        #: In-flight frames per directed pair — the canonical wire
        #: occupancy registry.  Every frame that increments
        #: ``runtime._inflight`` pushes an entry here, and exactly one of
        #: four exits pops it: a failed write; a completed write to a
        #: receiver hosted elsewhere (whose process books the arrival);
        #: and, once written toward a receiver hosted here, its dispatch
        #: there or the kill-teardown reconciliation (a frame written
        #: into a killed endpoint's socket buffer is never read, so
        #: without the teardown sweep the counter leaks and ``run()``
        #: burns its full idle timeout).
        self._wire: Dict[Tuple[str, str], _Wire] = {}
        #: Dispatch/codec failures (tests assert this stays empty).
        self.errors: List[str] = []
        self._closed = False

    # -- registry: what is hosted here, and where the rest is ---------

    def register(self, process: Process) -> _Endpoint:
        """Make a process addressable (idempotent; names must be unique)."""
        known = self._by_name.get(process.name)
        if known is not None and known is not process:
            raise SimulationError(
                f"duplicate process name {process.name!r} on this transport"
            )
        self._by_name[process.name] = process
        endpoint = self._endpoints.get(process.name)
        if endpoint is None:
            endpoint = self._endpoints[process.name] = _Endpoint(process)
            if not endpoint.local:
                self._elsewhere.add(process.name)
        return endpoint

    def place(self, process: Process, port: Optional[int]) -> None:
        """A directory entry: the stand-in ``process`` is hosted elsewhere
        and listens on ``port`` (``None`` while that is not known)."""
        endpoint = self.register(process)
        if port is not None:
            endpoint.port = port

    def activate(self, process: Process) -> None:
        """Make a process hosted here reachable from the processes hosted
        elsewhere before the first frame naming it leaves: bind its
        server now and have the runtime announce its port.  With nothing
        hosted elsewhere there is no one to tell, and a server binds on
        first contact."""
        endpoint = self.register(process)
        if self._elsewhere:
            self.runtime._loop.run_until_complete(self._ensure_server(endpoint))
            self.runtime.announce_local(process.name, endpoint.port)

    def connect(self, a: Process, b: Process, latency: Optional[float] = None) -> None:
        """Declare a link: registers both ends (latency is the kernel's)."""
        self.register(a)
        self.register(b)
        self._link(a, b)
        self._link(b, a)

    def lookup(self, name: str) -> Process:
        process = self._by_name.get(name)
        if process is None:
            if not self._elsewhere:
                raise ValueError(f"unknown process reference {name!r}")
            # Where some processes are hosted elsewhere, a directory entry
            # can trail the first frame naming its process: a portless
            # stand-in now, its port with the next ``place``.
            process = RemoteProcess(self.runtime, name)
            self.register(process)
        return process

    def endpoint(self, process: Process) -> _Endpoint:
        return self._endpoints[process.name]

    def _link(self, src: Process, dst: Process) -> Link:
        key = (src.name, dst.name)
        link = self._links.get(key)
        if link is None:
            link = Link(src, dst, 0.0)
            self._links[key] = link
        return link

    def link(self, src: Process, dst: Process) -> Optional[Link]:
        return self._links.get((src.name, dst.name))

    # -- sending -------------------------------------------------------

    def send(self, src: Process, dst: Process, message: Any) -> None:
        """Frame and ship one message; never blocks, never delivers
        synchronously (the frame arrives in a later loop round)."""
        if self._closed:
            return
        self.register(src)
        self.register(dst)
        link = self._link(src, dst)
        payload = encode_frame(src.name, message)
        size = len(payload) + _HEADER_SIZE
        if src.crashed:
            self.stats.record_drop(link, size)
            return
        if size > MAX_FRAME_BYTES:  # the receiver would close on it
            self.errors.append(f"{size}-byte frame from {src.name} refused")
            self.stats.record_drop(link, size)
            return
        self.stats.record_scheduled()
        runtime = self.runtime
        runtime._inflight += 1
        runtime._sent += 1
        wire = self._wire.get((src.name, dst.name))
        if wire is None:
            wire = self._wire[(src.name, dst.name)] = _Wire()
        wire.append(size)
        runtime._loop.create_task(self._deliver(src.name, dst.name, payload, size))

    async def _deliver(
        self, src_name: str, dst_name: str, payload: bytes, size: int
    ) -> None:
        """Write one frame over the (src, dst) connection, in order.

        The per-pair lock serializes the open-or-reuse + write sequence,
        so frames of one directed pair hit the socket in send order.  A
        dead peer (killed endpoint, refused connect, reset mid-write)
        costs the frame: it is dropped and counted, matching the
        simulator's crash-gate semantics.
        """
        pair = (src_name, dst_name)
        lock = self._pair_locks.get(pair)
        if lock is None:
            lock = self._pair_locks[pair] = asyncio.Lock()
        frame = size.to_bytes(_HEADER_SIZE, "big") + payload
        dst_ep = self._endpoints[dst_name]
        wire, written = self._wire[pair], False
        try:
            async with lock:
                # A cached connection to another OS process can be a
                # silently dead socket (its worker was killed and
                # restarted since the last frame), so one failed write
                # earns one reconnect.  Only a failure on a *fresh*
                # connection is a genuine dead-peer drop.
                for attempt in (0, 1):
                    kills = dst_ep.kills
                    writer = await self._writer_for(src_name, dst_ep)
                    if dst_ep.kills != kills:
                        raise ConnectionRefusedError(f"{dst_name} was killed")
                    writer.write(frame)
                    if dst_ep.local:
                        # Settled where it is read, or by the kill that
                        # keeps it from being read.
                        wire.written += 1
                        written = True
                        await writer.drain()
                        return
                    try:
                        await writer.drain()
                        break
                    except (ConnectionError, OSError):
                        self._invalidate_writer(src_name, dst_name)
                        if attempt:
                            raise
            # Its receiver lives in another OS process and books the
            # arrival there: a completed write is this process's last
            # sight of the frame.
            self._unwire(wire)
            self.stats.record(self._links[pair], size)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            self._invalidate_writer(src_name, dst_name)
            if not written:
                self._unwire(wire)
                self.stats.record_drop(self._links.get(pair), size)
        except asyncio.CancelledError:
            if not written:
                self._unwire(wire)
                self.stats.record_drop(self._links.get(pair), size)
            raise

    def _invalidate_writer(self, src_name: str, dst_name: str) -> None:
        src_ep = self._endpoints.get(src_name)
        if src_ep is not None:
            stale = src_ep.outbound.pop(dst_name, None)
            if stale is not None:
                stale.close()

    def _unwire(self, wire: _Wire) -> None:
        """Settle the frame being written on the pair, the first of its
        frames not written yet (the pair lock's holder)."""
        del wire[wire.written]
        self.stats.record_arrival()
        self.runtime._inflight -= 1

    def _settle(self, src_name: str, dst_name: str) -> bool:
        """Claim the frame being read here: the oldest written on the
        pair.  Returns False when there is none — the frame came from
        another OS process, or a kill booked it already — in which case
        the caller must not account it again."""
        wire = self._wire.get((src_name, dst_name))
        if wire is None or not wire.written:
            return False
        wire.popleft()
        wire.written -= 1
        self.stats.record_arrival()
        self.runtime._inflight -= 1
        return True

    async def _writer_for(
        self, src_name: str, dst_ep: _Endpoint
    ) -> asyncio.StreamWriter:
        if dst_ep.local:
            await self._ensure_server(dst_ep)
        dst_name = dst_ep.process.name
        if dst_ep.state in (CRASHED, RECOVERING):
            raise ConnectionRefusedError(f"{dst_name} is down")
        if dst_ep.port is None:
            raise ConnectionRefusedError(f"{dst_name} has no bound port")
        src_ep = self._endpoints[src_name]
        writer = src_ep.outbound.get(dst_name)
        if writer is None or writer.is_closing():
            _, writer = await asyncio.open_connection(self.host, dst_ep.port)
            src_ep.outbound[dst_name] = writer
        return writer

    # -- receiving -----------------------------------------------------

    async def _ensure_server(self, endpoint: _Endpoint) -> None:
        """Bind a hosted endpoint's listening server on first contact.

        Lazy binding happens only from INIT: every later rebinding is
        owned by :meth:`restore`, and racing it here would steal the
        port out from under the recovering endpoint (EADDRINUSE).
        """
        if endpoint.state not in (INIT, BINDING):
            return
        if endpoint._lock is None:
            endpoint._lock = asyncio.Lock()
        async with endpoint._lock:
            if endpoint.server is not None or endpoint.state != INIT:
                return
            endpoint.transition(BINDING)
            await self._listen(endpoint)

    async def _listen(self, endpoint: _Endpoint) -> None:
        """Start the endpoint's server on its port, or any port while it
        has none.  A port given up a moment ago may still be in a
        lingering close: back off briefly and try again.  A kill while
        this binds wins: the server was for an incarnation now gone."""
        kills, delay = endpoint.kills, 0.01
        while True:
            try:
                server = await asyncio.start_server(
                    lambda reader, writer: self._serve_client(endpoint, reader, writer),
                    self.host,
                    endpoint.port or 0,
                )
                break
            except OSError:
                if delay > 2.0:
                    raise
                await asyncio.sleep(delay)
                delay *= 2
        if endpoint.kills != kills:
            server.close()
            raise ConnectionRefusedError(f"{endpoint.process.name} was killed")
        endpoint.server = server
        endpoint.port = server.sockets[0].getsockname()[1]
        endpoint.transition(LISTENING)

    async def _serve_client(
        self,
        endpoint: _Endpoint,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Per-inbound-connection read loop: frame in, dispatch."""
        endpoint.inbound.append(writer)
        kills = endpoint.kills
        try:
            while True:
                header = await reader.readexactly(_HEADER_SIZE)
                size = int.from_bytes(header, "big")
                if not _HEADER_SIZE < size <= MAX_FRAME_BYTES:
                    # Nothing after a wrong length can be framed: this
                    # connection ends here, before any of it is buffered.
                    self._refuse(
                        endpoint, None, _HEADER_SIZE, f"frame length {size}"
                    )
                    break
                payload = await reader.readexactly(size - _HEADER_SIZE)
                if endpoint.kills != kills:
                    # Left in the buffers of an incarnation since killed:
                    # the kill booked whatever of it was this process's.
                    break
                self._dispatch(endpoint, payload, size)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Only runtime teardown cancels reader tasks; ending cleanly
            # here keeps the loop's exception reporter quiet.
            pass
        finally:
            if writer in endpoint.inbound:
                endpoint.inbound.remove(writer)
            writer.close()

    def _dispatch(self, endpoint: _Endpoint, payload: bytes, size: int) -> None:
        """One frame arrived: decode, account, hand to ``receive``."""
        process = endpoint.process
        try:
            src_name, message = decode_frame(payload, self.lookup)
        except ValueError as exc:
            self._refuse(endpoint, frame_sender(payload), size, f"decode: {exc!r}")
            return
        settled = self._settle(src_name, process.name)
        link = self._links.get((src_name, process.name))
        if process.crashed or endpoint.state == CRASHED:
            # The crash gate on the receiving side: a frame that raced a
            # still-open socket into a crashed process is lost.
            if settled:
                self.stats.record_drop(link, size)
            return
        if link is None:
            sender = self._by_name.get(src_name)
            if sender is not None:
                link = self._link(sender, process)
        if link is not None:
            self.stats.record(link, size)
        if endpoint.state == LISTENING:
            endpoint.transition(SERVING)
        self.runtime._processed += 1
        try:
            process.receive(message, self._by_name.get(src_name))
        except Exception as exc:  # keep the read loop alive; tests check
            self.errors.append(f"{process.name} receive: {exc!r}")

    def _refuse(
        self, endpoint: _Endpoint, src_name: Optional[str], size: int, why: str
    ) -> None:
        """Book a frame that cannot be delivered: surfaced in ``errors``,
        counted as a drop, and its in-flight entry settled.

        ``src_name`` comes from the frame's header when that still
        parses, so a corrupt body is booked on the pair and the link it
        travelled.  ``None`` is a corrupt header or length prefix: the
        sender is unknowable, and any in-flight entry bound for this
        endpoint is settled so the registry stays consistent with the
        counter.  A frame nobody here accounted for (a sender in another
        process settles at its write) settles nothing.
        """
        dst_name = endpoint.process.name
        if src_name is None:
            src_name = next(
                (
                    src
                    for (src, dst), wire in self._wire.items()
                    if dst == dst_name and wire.written
                ),
                None,
            )
        link = None
        if src_name is not None:
            self._settle(src_name, dst_name)
            link = self._links.get((src_name, dst_name))
        self.errors.append(f"{why} at {dst_name}")
        self.stats.record_drop(link, size)

    # -- crash lifecycle (the endpoint FSM's externally driven edges) --

    def kill(self, process: Process) -> None:
        """Fail-stop the process *and* its socket presence.

        Hosted elsewhere, its OS process is SIGKILLed first and the call
        returns once the OS reports it gone (the only kill-ack a
        fail-stop crash can give).  Either way ``process.crash()`` runs
        synchronously (soft state is wiped, a log directory closed), and
        the socket teardown lands on the loop, completing in the next
        driven round: peers' cached connections die with it, their next
        frame is dropped and counted, and frames already written toward
        the endpoint are settled as drops.

        Idempotent: killing an endpoint whose process is down — crashed,
        or recovering inside ``restore`` — is a no-op.  A second
        ``crash()`` is one too (every process kind returns at once when
        it is already down), but overwriting ``endpoint.teardown`` would
        orphan the first teardown task and let a later ``restore`` race
        the still-closing server socket.
        """
        endpoint = self._endpoints[process.name]
        if endpoint.state in (CRASHED, RECOVERING):
            return
        if not endpoint.local:
            self.runtime.kill_worker(process.name)
        process.crash()
        endpoint.kills += 1
        endpoint.transition(CRASHED)
        endpoint.teardown = self.runtime._loop.create_task(
            self._teardown_endpoint(endpoint)
        )

    async def _teardown_endpoint(self, endpoint: _Endpoint) -> None:
        server, endpoint.server = endpoint.server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for writer in endpoint.inbound[:]:
            writer.close()
        endpoint.inbound.clear()
        for writer in endpoint.outbound.values():
            writer.close()
        endpoint.outbound.clear()
        # Peers' cached connections to this endpoint are now half-dead
        # sockets whose first write would "succeed" into the void (the
        # RST lands after the kernel accepts the frame).  Dropping them
        # here makes the next send open a fresh connection, which either
        # reaches the restarted server or fails loudly as a real drop.
        for peer in self._endpoints.values():
            stale = peer.outbound.pop(endpoint.process.name, None)
            if stale is not None:
                stale.close()
        # Frames already written into this endpoint's socket buffers will
        # never be read: settle them as drops now, or the runtime's
        # in-flight counter leaks and ``run()`` cannot detect idleness.
        self._reconcile_in_flight(endpoint.process.name)

    def _reconcile_in_flight(self, dst_name: str) -> None:
        """Book every frame written toward ``dst_name`` and not read as a
        drop (one not written yet is its writer's to settle)."""
        for (src, dst), wire in self._wire.items():
            if dst != dst_name:
                continue
            link = self._links.get((src, dst))
            while wire.written:
                size = wire.popleft()
                wire.written -= 1
                self.stats.record_arrival()
                self.runtime._inflight -= 1
                self.stats.record_drop(link, size)

    def restore(self, process: Process) -> None:
        """Bring a killed process back on its old port, then run the
        normal restart recovery (ChannelReset, renewals, a log directory
        reloaded from its files — DESIGN §8).

        Hosted here, its server is rebound; hosted elsewhere, a fresh OS
        process is spawned on the port and recovers from the on-disk log
        alone.  Called between runs, not from a loop callback: it drives
        the loop until the port is taken again.
        """
        endpoint = self._endpoints[process.name]
        if endpoint.state != CRASHED:
            raise SimulationError(
                f"cannot restore {process.name!r}: endpoint state is "
                f"{endpoint.state!r}, not {CRASHED!r} — restoring a live "
                f"process would start a second server on its port"
            )
        endpoint.transition(RECOVERING)
        loop = self.runtime._loop
        if endpoint.teardown is not None:
            # The port cannot be taken again until the old sockets close.
            loop.run_until_complete(endpoint.teardown)
            endpoint.teardown = None
        if endpoint.local:
            loop.run_until_complete(self._listen(endpoint))
        else:
            self.runtime.restore_worker(process.name)
            endpoint.transition(LISTENING)
        process.restart()

    # -- teardown ------------------------------------------------------

    def close(self) -> None:
        """Stop every endpoint and refuse further sends (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.runtime._loop.is_closed():
            return

        async def _close_all() -> None:
            for endpoint in self._endpoints.values():
                await self._teardown_endpoint(endpoint)
                endpoint.transition(STOPPED)

        self.runtime._loop.run_until_complete(_close_all())

    def __repr__(self) -> str:
        return (
            f"TcpTransport(endpoints={len(self._endpoints)}, "
            f"messages={self.stats.total_messages})"
        )

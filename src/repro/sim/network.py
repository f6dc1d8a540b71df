"""Simulated network connecting processes.

The network delivers messages between :class:`~repro.sim.kernel.Process`
instances with a per-link latency and accounts traffic (message and byte
counts) per link and per process.  Byte sizes come from a pluggable sizer
so experiments can model the paper's observation that weakened events are
smaller than full event objects.

Only point-to-point links exist: the paper's overlay is a tree of brokers,
and publishers/subscribers each attach to a single broker.

Fault injection: a seeded :class:`FaultPlan` describes per-link loss,
duplication, and latency jitter inside scheduled fault windows, plus
broker crash/restart schedules gated by ``Process.crashed``.  Everything
the plan does is driven by one seeded RNG, so a chaos run is exactly as
reproducible as a clean one.
"""

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.obs.tracing import NETWORK_STAGE, EventTracer
from repro.sim.kernel import Process, SimulationError, Simulator


def _default_sizer(message: Any) -> int:
    """Default message size model (DESIGN §16), never below 16 bytes.

    Every message kind of :mod:`repro.overlay.messages` answers
    ``wire_size()`` (duck-typed, so the sim layer stays free of overlay
    imports): one that carries events with what its frame costs on a
    socket, sender name aside, from the records the events carry; a
    control message from its fields alone.  Only an object
    that is none of those kinds (a test's string, say) costs the length
    of its ``repr``.
    """
    wire_size = getattr(message, "wire_size", None)
    size = wire_size() if wire_size is not None else len(repr(message))
    return max(16, size)


def _check_latency(latency: float) -> None:
    """Refuse a latency no delivery could be scheduled at (NaN, or
    before the send), where it is configured, not at the first send."""
    if not latency >= 0:
        raise SimulationError(f"link latency must be >= 0, got {latency}")


class Link:
    """A directed link between two processes with fixed latency."""

    __slots__ = (
        "src",
        "dst",
        "latency",
        "messages",
        "bytes",
        "dropped_messages",
        "dropped_bytes",
        "duplicated_messages",
    )

    def __init__(self, src: Process, dst: Process, latency: float):
        self.src = src
        self.dst = dst
        self.latency = latency
        self.messages = 0
        self.bytes = 0
        self.dropped_messages = 0
        self.dropped_bytes = 0
        self.duplicated_messages = 0

    def __repr__(self) -> str:
        return (
            f"Link({self.src.name} -> {self.dst.name}, latency={self.latency}, "
            f"messages={self.messages})"
        )


class NetworkStats:
    """Aggregate traffic counters for a whole network."""

    def __init__(self) -> None:
        self.total_messages = 0
        self.total_bytes = 0
        self.dropped_messages = 0
        self.dropped_bytes = 0
        self.duplicated_messages = 0
        self.duplicated_bytes = 0
        self.messages_by_process: Dict[str, int] = {}
        #: Message copies currently scheduled but not yet delivered — the
        #: wire-occupancy gauge the flow-control experiments bound.
        self.in_flight = 0
        #: Peak of ``in_flight`` over the run.
        self.peak_in_flight = 0

    def record_scheduled(self) -> None:
        """One wire copy entered flight."""
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight

    def record_arrival(self) -> None:
        """One wire copy left flight (delivered or lost with a crash)."""
        self.in_flight -= 1

    def record(self, link: Link, size: int) -> None:
        self.total_messages += 1
        self.total_bytes += size
        self.messages_by_process[link.dst.name] = (
            self.messages_by_process.get(link.dst.name, 0) + 1
        )

    def record_drop(self, link: Optional[Link], size: int) -> None:
        """One message lost (partition, fault-window loss, crashed peer)."""
        self.dropped_messages += 1
        self.dropped_bytes += size
        if link is not None:
            link.dropped_messages += 1
            link.dropped_bytes += size

    def record_duplicate(self, link: Optional[Link], size: int) -> None:
        """One extra wire copy injected by a duplication fault."""
        self.duplicated_messages += 1
        self.duplicated_bytes += size
        if link is not None:
            link.duplicated_messages += 1

    def __repr__(self) -> str:
        return f"NetworkStats(messages={self.total_messages}, bytes={self.total_bytes})"


#: Safety cap on the geometric duplication roll (a 100% duplication rate
#: must not loop forever).
MAX_DUPLICATES = 3


@dataclass(frozen=True)
class FaultWindow:
    """Link-level faults active during ``[start, end)``.

    ``loss``/``duplicate`` are per-send probabilities; ``jitter`` adds a
    uniform ``[0, jitter]`` extra latency to each delivered copy (which
    deliberately breaks per-link FIFO — the reorderings the sequence-
    numbered control channel exists to absorb).  ``links`` restricts the
    window to specific unordered process pairs; ``None`` hits every link.
    """

    start: float
    end: float
    loss: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0
    links: Optional[FrozenSet[FrozenSet[int]]] = None

    def applies(self, now: float, src: Process, dst: Process) -> bool:
        if not (self.start <= now < self.end):
            return False
        if self.links is None:
            return True
        return frozenset((id(src), id(dst))) in self.links


@dataclass(frozen=True)
class CrashWindow:
    """A scheduled fail-stop: ``process`` is down during ``[at, until)``.

    ``until is None`` means the process never restarts.
    """

    process: Process
    at: float
    until: Optional[float]

    def active(self, now: float) -> bool:
        return self.at <= now and (self.until is None or now < self.until)


class FaultPlan:
    """A seeded schedule of link faults and process crashes.

    Build the plan, then hand it to :meth:`Network.install_faults` —
    crashes are scheduled on the simulator, link faults are rolled at
    send time from the plan's private RNG.  Two runs with the same seed
    and the same send sequence inject byte-identical faults.
    """

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.windows: List[FaultWindow] = []
        self.crashes: List[CrashWindow] = []

    def add_window(
        self,
        start: float,
        end: float,
        loss: float = 0.0,
        duplicate: float = 0.0,
        jitter: float = 0.0,
        links: Optional[Iterable[Tuple[Process, Process]]] = None,
    ) -> FaultWindow:
        """Register a fault window; returns it for introspection."""
        if end <= start:
            raise SimulationError(f"empty fault window [{start}, {end})")
        for name, value in (("loss", loss), ("duplicate", duplicate)):
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must be a probability, got {value}")
        if jitter < 0:
            raise SimulationError(f"negative jitter {jitter}")
        link_set = None
        if links is not None:
            link_set = frozenset(frozenset((id(a), id(b))) for a, b in links)
        window = FaultWindow(start, end, loss, duplicate, jitter, link_set)
        self.windows.append(window)
        return window

    def add_crash(
        self, process: Process, at: float, duration: Optional[float] = None
    ) -> CrashWindow:
        """Schedule a fail-stop at ``at``; restart after ``duration``
        (``None`` = the process stays down forever)."""
        if duration is not None and duration <= 0:
            raise SimulationError(f"crash duration must be positive, got {duration}")
        until = None if duration is None else at + duration
        crash = CrashWindow(process, at, until)
        self.crashes.append(crash)
        return crash

    def in_fault_window(self, now: float) -> bool:
        """True while any link fault or crash is active — the boundary of
        the chaos gate's "published outside a fault window"."""
        return any(w.start <= now < w.end for w in self.windows) or any(
            c.active(now) for c in self.crashes
        )

    def roll(
        self, now: float, src: Process, dst: Process
    ) -> Optional[Tuple[bool, Tuple[float, ...]]]:
        """Roll the fate of one send: ``None`` when no window applies,
        else ``(dropped, per-copy extra latencies)`` (first copy is the
        original; additional entries are duplicates)."""
        active = [w for w in self.windows if w.applies(now, src, dst)]
        if not active:
            return None
        survive = 1.0
        duplicate = 0.0
        jitter = 0.0
        for window in active:
            survive *= 1.0 - window.loss
            duplicate = max(duplicate, window.duplicate)
            jitter = max(jitter, window.jitter)
        if survive < 1.0 and self.rng.random() >= survive:
            return (True, ())
        delays = [self.rng.uniform(0.0, jitter) if jitter else 0.0]
        while (
            duplicate
            and len(delays) <= MAX_DUPLICATES
            and self.rng.random() < duplicate
        ):
            delays.append(self.rng.uniform(0.0, jitter) if jitter else 0.0)
        return (False, tuple(delays))


class Network:
    """Message fabric between simulated processes.

    Links must be registered with :meth:`connect` before :meth:`send` is
    used between a pair of processes; this mirrors the paper's overlay
    where every process talks only to its hierarchy neighbours.  A default
    latency can be supplied for convenience, in which case unknown pairs
    are connected lazily.

    Process names must be unique per network: the per-process traffic
    counters are keyed by name, and two processes sharing one would merge
    their rows silently.  :meth:`connect` (and the lazy path) enforce it.
    """

    def __init__(
        self,
        sim: Simulator,
        default_latency: Optional[float] = None,
        sizer: Callable[[Any], int] = _default_sizer,
        faults: Optional[FaultPlan] = None,
        tracer: Optional[EventTracer] = None,
    ):
        if default_latency is not None:
            _check_latency(default_latency)
        self.sim = sim
        self.default_latency = default_latency
        self.sizer = sizer
        self.stats = NetworkStats()
        self.faults = faults
        #: Causal span tracer: wire-level drop/dup spans when enabled.
        self.tracer = tracer if tracer is not None else EventTracer(enabled=False)
        self._links: Dict[Tuple[int, int], Link] = {}
        self._partitioned: set = set()
        self._disconnected: set = set()
        self._names: Dict[str, int] = {}

    def install_faults(self, plan: FaultPlan) -> None:
        """Activate a fault plan: link faults apply from now on, crashes
        and restarts are scheduled on the simulator."""
        self.faults = plan
        for crash in plan.crashes:
            self.sim.schedule_at(crash.at, crash.process.crash)
            if crash.until is not None:
                self.sim.schedule_at(crash.until, crash.process.restart)

    def partition(self, a: Process, b: Process) -> None:
        """Cut communication between ``a`` and ``b`` (both directions).

        Unlike :meth:`disconnect`, sends over a partitioned pair are
        *silently dropped* (counted in ``stats.dropped_messages`` /
        ``dropped_bytes`` and on the link) — the behaviour of a real
        network partition, and what the TTL soft state of §4.3 is
        designed to survive.
        """
        self._partitioned.add(frozenset((id(a), id(b))))

    def heal(self, a: Process, b: Process) -> None:
        """Restore communication after :meth:`partition`."""
        self._partitioned.discard(frozenset((id(a), id(b))))

    def is_partitioned(self, a: Process, b: Process) -> bool:
        return frozenset((id(a), id(b))) in self._partitioned

    def _register_name(self, process: Process) -> None:
        known = self._names.get(process.name)
        if known is None:
            self._names[process.name] = id(process)
        elif known != id(process):
            raise SimulationError(
                f"duplicate process name {process.name!r} on this network; "
                f"per-process traffic accounting is keyed by name"
            )

    def forget(self, process: Process) -> None:
        """Retire a process object that is gone for good.

        Releases its name registration and removes its links, so a new
        incarnation of the same logical participant — a fresh object
        carrying the same stable name — can attach.  Durable broker
        state (offline flags, buffered events) is keyed by name, not by
        object, so it survives the swap and replays to the newcomer.
        """
        if self._names.get(process.name) == id(process):
            del self._names[process.name]
        dead = id(process)
        for key in [k for k in self._links if dead in k]:
            del self._links[key]
        self._partitioned = {p for p in self._partitioned if dead not in p}
        self._disconnected = {p for p in self._disconnected if dead not in p}

    def connect(self, a: Process, b: Process, latency: float = 0.001) -> None:
        """Create a bidirectional link between ``a`` and ``b``."""
        _check_latency(latency)
        self._register_name(a)
        self._register_name(b)
        self._disconnected.discard(frozenset((id(a), id(b))))
        self._links[(id(a), id(b))] = Link(a, b, latency)
        self._links[(id(b), id(a))] = Link(b, a, latency)

    def disconnect(self, a: Process, b: Process) -> None:
        """Remove the link between ``a`` and ``b`` (both directions).

        The pair is tombstoned: a later :meth:`send` between the two
        raises even when a default latency is configured (lazy
        reconnection used to silently undo the disconnect — a documented
        footgun, now fixed).  An explicit :meth:`connect` re-links.
        """
        self._links.pop((id(a), id(b)), None)
        self._links.pop((id(b), id(a)), None)
        self._disconnected.add(frozenset((id(a), id(b))))

    def link(self, src: Process, dst: Process) -> Optional[Link]:
        """Return the directed link from ``src`` to ``dst`` if present."""
        return self._links.get((id(src), id(dst)))

    def send(self, src: Process, dst: Process, message: Any) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after link latency.

        Delivery invokes ``dst.receive(message, src)`` as a scheduled
        simulator event.  Per-link FIFO order follows from the kernel's
        deterministic tie-breaking and the fixed per-link latency —
        unless an active fault window adds jitter, in which case copies
        may reorder (that is the point).

        A send over a live link with no fault plan, no partition anywhere
        and both ends up takes the fast path: one link lookup, the size,
        the counters and one scheduled delivery.  Every other case — a
        missing link (disconnected, or connected lazily on first use), a
        partition, a crashed end, an installed plan — goes through
        :meth:`_send_checked`, and both paths book a delivered send alike.
        """
        link = self._links.get((id(src), id(dst)))
        if (
            link is None
            or self.faults is not None
            or self._partitioned
            or src.crashed
            or dst.crashed
        ):
            self._send_checked(src, dst, message)
            return
        size = self.sizer(message)
        link.messages += 1
        link.bytes += size
        self.stats.record(link, size)
        self.stats.record_scheduled()
        sim = self.sim
        sim.schedule_at(sim.now + link.latency, self._deliver, link, message)

    def _send_checked(self, src: Process, dst: Process, message: Any) -> None:
        """:meth:`send` with every gate: disconnection, partition, crash,
        lazy connection and the fault plan's roll.

        With no fault outcome, the tail below (link and stats counters,
        one scheduled delivery at ``link.latency``) must book exactly
        what :meth:`send`'s fast path books; change the two together.
        ``test_fast_and_checked_paths_book_alike`` in
        ``tests/sim/test_send_fast_path.py`` runs every scenario through
        both and compares the ledgers."""
        pair = frozenset((id(src), id(dst)))
        if pair in self._disconnected:
            raise SimulationError(
                f"link between {src.name} and {dst.name} was disconnected"
            )
        link = self._links.get((id(src), id(dst)))
        size = self.sizer(message)
        if pair in self._partitioned or src.crashed or dst.crashed:
            self.stats.record_drop(link, size)
            if self.tracer.enabled:
                if pair in self._partitioned:
                    reason = "partition"
                elif src.crashed:
                    reason = "src-crashed"
                else:
                    reason = "dst-crashed"
                self._trace_wire("drop", src, dst, message, reason)
            return
        if link is None:
            if self.default_latency is None:
                raise SimulationError(
                    f"no link from {src.name} to {dst.name} and no default latency"
                )
            self.connect(src, dst, self.default_latency)
            link = self._links[(id(src), id(dst))]
        outcome = (
            self.faults.roll(self.sim.now, src, dst)
            if self.faults is not None
            else None
        )
        if outcome is not None and outcome[0]:
            self.stats.record_drop(link, size)
            if self.tracer.enabled:
                self._trace_wire("drop", src, dst, message, "fault-loss")
            return
        delays = outcome[1] if outcome is not None else (0.0,)
        link.messages += 1
        link.bytes += size
        self.stats.record(link, size)
        for extra in delays[1:]:
            self.stats.record_duplicate(link, size)
            if self.tracer.enabled:
                self._trace_wire("dup", src, dst, message, "fault-duplicate")
        for extra in delays:
            self.stats.record_scheduled()
            self.sim.schedule(link.latency + extra, self._deliver, link, message)

    def _deliver(self, link: Link, message: Any) -> None:
        """Delivery-time crash gate: a copy in flight when the receiver
        fails is lost with it (and accounted as dropped)."""
        self.stats.record_arrival()
        if link.dst.crashed:
            self.stats.record_drop(link, self.sizer(message))
            if self.tracer.enabled:
                self._trace_wire(
                    "drop", link.src, link.dst, message, "crashed-in-flight"
                )
            return
        link.dst.receive(message, link.src)

    def _trace_wire(
        self, kind: str, src: Process, dst: Process, message: Any, reason: str
    ) -> None:
        """Record a wire-level span (drop or duplicate) for one send.

        Event payloads (anything carrying an envelope, or a batch of
        them) get one span per event id so traces can explain a missing
        or repeated delivery; control payloads get a single anonymous
        span.  Duck-typed so the sim layer stays free of overlay imports.
        """
        node = f"{src.name}->{dst.name}"
        details = (("reason", reason), ("payload", type(message).__name__))
        envelope = getattr(message, "envelope", None)
        if envelope is not None:
            ids = (envelope.event_id,)
        else:
            publishes = getattr(message, "publishes", None)
            if publishes is not None:
                ids = tuple(p.envelope.event_id for p in publishes)
            else:
                ids = ()
        if ids:
            for event_id in ids:
                self.tracer.span(
                    self.sim.now, kind, node, NETWORK_STAGE,
                    trace_id=event_id, details=details,
                )
        else:
            self.tracer.span(self.sim.now, kind, node, NETWORK_STAGE, details=details)

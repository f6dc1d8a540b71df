"""Deterministic discrete-event simulation kernel.

The kernel maintains a priority queue of scheduled callbacks ordered by
(simulated time, sequence number).  The sequence number makes execution
order deterministic when several events share a timestamp: events fire in
the order they were scheduled, which is the property the reproducibility
guarantees of the experiment harness rely on.  Heap entries are
``(time, seq, handle)`` tuples: ``seq`` is unique, so two entries are
always told apart before the handles would be compared, and ordering
stays inside the interpreter's tuple comparison.  NaN is refused as a
time, a delay and an interval: it compares false with everything, so it
would break both the heap order and the clock.

Typical use::

    sim = Simulator()
    sim.schedule(1.5, callback, arg1, arg2)
    sim.run(until=100.0)
"""

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple


#: One periodic soft-state task of a :class:`Process`: ``(name,
#: interval, body)``.
PeriodicTask = Tuple[str, float, Callable[[], None]]


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class EventHandle:
    """Handle for a scheduled event, usable to cancel it.

    A handle is returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  Cancelling is O(1): the queue entry is
    tombstoned and skipped when it surfaces.  The owning simulator counts
    live tombstones and compacts the heap when they pile up, so churny
    workloads (renewal timers, retransmit timers, flow-control grants)
    cannot grow the queue without bound.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event so it will be skipped when dequeued."""
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._note_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time!r}, seq={self.seq}, {state})"


class Simulator:
    """Time-ordered event queue with deterministic tie-breaking.

    The simulator clock starts at ``0.0`` and only advances when events are
    processed; there is no wall-clock coupling.  All times are plain floats
    in arbitrary "simulated time units" (the experiments use seconds).
    """

    #: Compaction fires once at least this many tombstones accumulate and
    #: they make up at least half the queue (amortized O(1) per cancel).
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._running = False
        self._cancelled_pending = 0
        self._compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of queue entries not yet executed (includes cancelled)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Number of tombstoned entries still sitting in the queue."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of tombstone-triggered heap rebuilds performed so far."""
        return self._compactions

    def _note_cancelled(self) -> None:
        """Record a cancellation; compact once tombstones dominate the heap.

        Compacting rebuilds the heap from the live entries only.  The heap
        order on (time, seq) is a strict total order (seq is unique), so a
        rebuild pops in exactly the same sequence as the original heap —
        compaction is invisible to deterministic replay.  The queue is
        rebuilt in place: :meth:`run` holds it across callbacks.
        """
        self._cancelled_pending += 1
        queue = self._queue
        if (
            self._cancelled_pending >= self.COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 >= len(queue)
        ):
            queue[:] = [entry for entry in queue if not entry[2].cancelled]
            heapify(queue)
            self._cancelled_pending = 0
            self._compactions += 1

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        Returns an :class:`EventHandle` that can be cancelled.  A zero delay
        is allowed and runs after all events already scheduled for the
        current instant.
        """
        if not delay >= 0:  # also refuses NaN
            raise SimulationError(f"delay must be a non-negative number, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def defer(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the *current* instant, after
        every event already queued for it.

        This is the batched-dispatch primitive: a node receiving a run of
        same-instant messages defers one drain callback and processes the
        whole run in a single wakeup instead of one per scheduling round.
        """
        return self.schedule_at(self._now, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if not time >= self._now:  # also refuses NaN
            raise SimulationError(
                f"cannot schedule at t={time}: not a time at or after t={self._now}"
            )
        seq = next(self._seq)
        handle = EventHandle(time, seq, callback, args, self)
        heappush(self._queue, (time, seq, handle))
        return handle

    def every(
        self, interval: float, callback: Callable[..., None], *args: Any
    ) -> "RecurringHandle":
        """Run ``callback(*args)`` every ``interval`` time units until the
        returned handle is cancelled.

        The tick grid is fixed at arming time (first fire at ``now +
        interval``), so periodic samplers observe the same instants in
        every same-seed run.  Note that, like the TTL maintenance tasks,
        a recurring event keeps the queue non-empty forever: drive a
        sampled simulation with ``run(until=...)``, not a bare ``run()``.
        """
        if not interval > 0:  # also refuses NaN
            raise SimulationError(f"recurring interval must be positive, got {interval}")
        return RecurringHandle(self, interval, callback, args)

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        was empty (cancelled entries are drained silently).
        """
        queue = self._queue
        while queue:
            time, _, handle = heappop(queue)
            if handle.cancelled:
                if self._cancelled_pending > 0:
                    self._cancelled_pending -= 1
                continue
            self._now = time
            self._processed += 1
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Events scheduled exactly at ``until`` still run (the bound is
        inclusive).  Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                time, _, handle = queue[0]
                if handle.cancelled:
                    heappop(queue)
                    if self._cancelled_pending > 0:
                        self._cancelled_pending -= 1
                    continue
                if until is not None and time > until:
                    self._now = until
                    break
                if self.step():
                    executed += 1
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return executed


class RecurringHandle:
    """A self-rescheduling periodic event (see :meth:`Simulator.every`).

    Cancelling tombstones the pending occurrence and stops the chain; a
    cancelled handle never fires again.
    """

    __slots__ = ("sim", "interval", "callback", "args", "cancelled", "_pending")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., None],
        args: tuple,
    ):
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._pending = sim.schedule(interval, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        # Reschedule first: the callback sees the next tick already armed
        # and may cancel this handle to stop the chain.
        self._pending = self.sim.schedule(self.interval, self._fire)
        self.callback(*self.args)

    def cancel(self) -> None:
        self.cancelled = True
        self._pending.cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        return f"RecurringHandle(every={self.interval!r}, {state})"


class Process:
    """Base class for simulated entities (brokers, publishers, subscribers).

    A process owns a reference to the :class:`Simulator` (any object
    satisfying the :class:`repro.runtime.base.Executor` protocol) and
    exposes :meth:`receive`, the network's delivery entry point.
    Subclasses override :meth:`receive` to implement their protocol.

    Timers whose work belongs to the *current incarnation* of the process
    should be armed through :meth:`call_later` / :meth:`call_at` /
    :meth:`call_soon` rather than raw executor scheduling: owned timers
    are cancelled by :meth:`crash` and additionally guarded by the
    incarnation counter, so a stale pre-crash timer can never fire into
    the restarted incarnation's fresh state (the same bug class as the
    epoch-guarded retransmit timers in overlay/channel.py).

    Periodic soft-state work (§4.3 renew and purge) is declared in
    :meth:`_maintenance_tasks`; this class runs each task as one owned
    :meth:`call_later` chain, re-armed after its body.  Whether
    maintenance is on (:attr:`maintaining`) survives a crash, the armed
    chains do not, and :meth:`restart` re-arms them after
    :meth:`_resume`.  A subclass that must pause them (a subscriber gone
    offline) overrides :meth:`_maintenance_paused` and calls
    :meth:`_sync_maintenance` when its answer changes.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        #: Fail-stop gate: while True the network drops every message to
        #: or from this process (fault injection; see sim.network).
        self.crashed = False
        #: Bumped by :meth:`restart`; owned-timer callbacks armed under an
        #: older incarnation refuse to run.
        self.incarnation = 0
        #: Armed owned timers; made by the first one (most subscribers
        #: never arm any).
        self._owned_timers: Optional[set] = None
        #: Whether the periodic tasks run: the intent, which a crash
        #: keeps and a restart re-arms from.
        self.maintaining = False
        #: The armed chain of each periodic task, by name (dies with the
        #: incarnation).
        self._periodic: Dict[str, EventHandle] = {}

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule owned work at an absolute time (see class docstring)."""
        incarnation = self.incarnation
        handle_box: list = []

        def _fire() -> None:
            if self._owned_timers is not None:  # None: a crash came since
                self._owned_timers.discard(handle_box[0])
            if self.crashed or self.incarnation != incarnation:
                return
            callback(*args)

        handle = self.sim.schedule_at(time, _fire)
        handle_box.append(handle)
        if self._owned_timers is None:
            self._owned_timers = set()
        self._owned_timers.add(handle)
        return handle

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule owned work ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.call_at(self.sim.now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Defer owned work to the current instant (after queued events)."""
        return self.call_at(self.sim.now, callback, *args)

    def _maintenance_tasks(self) -> Tuple[PeriodicTask, ...]:
        """The periodic tasks as ``(name, interval, body)``, in the order
        they are armed; a process declares none by default."""
        return ()

    def _maintenance_paused(self) -> bool:
        """True while the tasks stay disarmed although maintenance is on."""
        return False

    def start_maintenance(self) -> None:
        """Run every periodic task, the first time one interval from now."""
        self.stop_maintenance()
        self.maintaining = True
        self._sync_maintenance()

    def stop_maintenance(self) -> None:
        self.maintaining = False
        self._sync_maintenance()

    def armed_tasks(self) -> Tuple[str, ...]:
        """The names of the periodic tasks armed now, in arming order."""
        return tuple(self._periodic)

    def _sync_maintenance(self) -> None:
        """Arm each declared task that should run and is not armed, or
        cancel them all when none should (off, crashed or paused)."""
        periodic = self._periodic
        if not self.maintaining or self.crashed or self._maintenance_paused():
            for handle in periodic.values():
                handle.cancel()
            periodic.clear()
            return
        for name, interval, body in self._maintenance_tasks():
            if name not in periodic:
                periodic[name] = self.call_later(interval, self._run_task, name, body)

    def _run_task(self, name: str, body: Callable[[], None]) -> None:
        del self._periodic[name]
        body()
        self._sync_maintenance()

    def crash(self) -> None:
        """Take the process down (fail-stop).

        Flips the network gate, cancels every owned timer and has the
        subclass lose its soft state, which is what the paper's §4.3
        refresh-or-restore renewals rebuild.  A no-op on a process that
        is already down: a second kill, or the later of two overlapping
        crash windows, must not move the link epochs a second time.
        """
        if self.crashed:
            return
        self.crashed = True
        for handle in self._owned_timers or ():
            handle.cancel()
        self._owned_timers = None
        self._periodic.clear()
        self._lose_soft_state()

    def _lose_soft_state(self) -> None:
        """What :meth:`crash` wipes beyond the owned timers."""

    def restart(self) -> None:
        """Bring the process back up after :meth:`crash`.

        Bumps the incarnation counter so any owned timer that escaped
        cancellation (or any raw timer guarded by incarnation) fires into
        a closed door rather than the fresh state, lets the subclass pick
        up again, and then re-arms the periodic tasks if maintenance is
        on — after :meth:`_resume`, so what it schedules comes first.  A
        no-op on a live process (a second bump would strand its own
        armed timers).
        """
        if not self.crashed:
            return
        self.crashed = False
        self.incarnation += 1
        self._resume()
        self._sync_maintenance()

    def _resume(self) -> None:
        """What :meth:`restart` does once the process is up again."""

    def receive(self, message: Any, sender: "Process") -> None:
        """Handle a message delivered by the network."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

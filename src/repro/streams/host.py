"""The flow-operator host of one broker (DESIGN §15).

A :class:`FlowHost` keeps the flows a :class:`~repro.streams.registrar.
FlowRegistrar` installed at its broker: one :class:`~repro.streams.
operators.FlowRuntime` per flow name, the lazy window-boundary timers,
and the republication of operator output into the broker's normal
publish path.  Installed flows are §4.3 soft state: a crash discards
them and the registrar's renewals re-install (refresh-or-restore).
Timers, spans and counts go through ``node``, as :class:`~repro.log.
replay.Replayer`'s do.
"""

import math
from typing import TYPE_CHECKING, Any, Dict, List, Sequence

from repro.events.base import CLASS_ATTRIBUTE, PropertyEvent
from repro.events.serialization import marshal
from repro.overlay.messages import FlowInstall, Publish
from repro.streams.operators import Emission, FlowRuntime
from repro.streams.spec import CollapseSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.node import BrokerNode

#: Re-entrancy bound of derived republication (chained flows), so a
#: mutually-recursive pair cannot livelock.
MAX_DEPTH = 8


class FlowHost:
    """Installed flows of one broker, their timers and their output."""

    def __init__(self, node: "BrokerNode") -> None:
        self.node = node
        #: Next derived-event sequence number per flow name.  Survives
        #: :meth:`reset` for the same reason the uplink sender's epoch
        #: counter does: the reserved publisher namespace (broker:flow,
        #: seq) must stay collision-free across incarnations, or
        #: idempotent downstream logs would silently swallow post-restart
        #: rollups.
        self.seqs: Dict[str, int] = {}
        #: Installed flows by name.
        self.flows: Dict[str, FlowRuntime] = {}
        #: Boundary-timer handles per flow (owned timers of the node:
        #: they die with its incarnation).
        self._timers: Dict[str, Any] = {}
        #: Current depth of derived republication.
        self._depth = 0

    def reset(self) -> None:
        """The broker crashed: open windows die with the process.
        Announce each one so the exactly-once audit can excuse derived
        events the dropped windows will never emit (DESIGN §15)."""
        node = self.node
        for runtime in self.flows.values():
            for group, window_start, pending in runtime.pending_windows():
                node.counters.flow_windows_dropped += 1
                node._span(
                    "window-dropped",
                    ("flow", runtime.spec.name),
                    ("group", group),
                    ("window_start", window_start),
                    ("pending", pending),
                    ("reason", "crash"),
                )
        self.flows.clear()
        self._timers.clear()  # owned handles: cancelled with the incarnation
        self._depth = 0
        node.counters.flows_installed = 0

    def install(self, message: FlowInstall, sender: Any) -> None:
        node = self.node
        spec = message.spec
        now = node.sim.now
        runtime = self.flows.get(spec.name)
        if runtime is not None and runtime.spec == spec:
            # Refresh-or-restore: an identical spec is a pure lease renewal.
            runtime.renewed_at = now
            return
        if runtime is not None:
            # Changed definition: replace the machine, dropping its state.
            self._cancel_timer(spec.name)
        self.flows[spec.name] = FlowRuntime(spec, now)
        if spec.name not in self.seqs:
            # First install on this incarnation chain: start the derived
            # sequence above anything ever logged under the flow's
            # namespace, so a process death that lost the in-memory
            # counter (asyncio backend) cannot reuse ids the idempotent
            # downstream logs would silently swallow.
            floor = 0
            if node.log is not None:
                floor = node.log.watermarks().get(f"{node.name}:{spec.name}", -1) + 1
            self.seqs[spec.name] = floor
        node.counters.flows_installed = len(self.flows)
        node._span(
            "flow-install",
            ("flow", spec.name),
            ("operator", spec.operator_kind),
            ("out", spec.output_class),
            ("from", sender.name),
        )

    def remove(self, flow_name: str, reason: str) -> None:
        if self.flows.pop(flow_name, None) is None:
            return
        self._cancel_timer(flow_name)
        self.node.counters.flows_installed = len(self.flows)
        self.node._span("flow-remove", ("flow", flow_name), ("reason", reason))

    def expire(self, horizon: float) -> None:
        """Drop, with its pending state, every flow not renewed since
        ``horizon``: its registrar fell silent (crashed, removed,
        partitioned past the expiry window)."""
        for name in [n for n, r in self.flows.items() if r.renewed_at < horizon]:
            self.remove(name, reason="lease-expired")

    def _cancel_timer(self, flow_name: str) -> None:
        handle = self._timers.pop(flow_name, None)
        if handle is not None:
            handle.cancel()

    def _arm_timer(self, runtime: FlowRuntime) -> None:
        """Arm the flow's next boundary timer (idempotent).

        Timers are **lazy**: armed when the operator takes on pending
        state and not re-armed once it runs dry, so an idle flow leaves
        the simulator's event queue empty and ``drain()`` terminates.
        Window boundaries align at multiples of the period anchored at
        t=0: firing times are a function of the clock alone, so
        same-seed runs fire identically regardless of install time.
        """
        period = runtime.timer_period()
        if period is None or runtime.spec.name in self._timers:
            return
        node = self.node
        next_fire = (math.floor(node.sim.now / period) + 1) * period
        self._timers[runtime.spec.name] = node.call_at(
            next_fire, self._on_timer, runtime.spec.name
        )

    def _on_timer(self, flow_name: str) -> None:
        runtime = self.flows.get(flow_name)
        self._timers.pop(flow_name, None)
        if runtime is None:
            return
        # Re-arm before emitting (an emission that crashes this broker
        # mid-instant must not also lose the timer chain) — but only
        # while state is still pending, to stay quiescent when idle.
        emissions = runtime.on_timer(self.node.sim.now)
        if runtime.pending_windows():
            self._arm_timer(runtime)
        if emissions:
            self._emit(runtime, emissions)

    def feed(self, batch: Sequence[Publish]) -> None:
        """Feed a just-forwarded batch to the installed flows.

        Chained flows compose because the derived batch re-enters the
        broker's ``_process_batch`` and is tapped again; the depth guard
        bounds mutually-recursive graphs, and a flow never consumes its
        own output (events from its reserved namespace are skipped).
        """
        if self._depth >= MAX_DEPTH:
            return
        node = self.node
        now = node.sim.now
        for runtime in list(self.flows.values()):
            own_namespace = f"{node.name}:{runtime.spec.name}"
            emissions: List[Emission] = []
            fed = 0
            for message in batch:
                envelope = message.envelope
                event_id = envelope.event_id
                if event_id is not None and event_id[0] == own_namespace:
                    continue
                if not runtime.matches(envelope.metadata):
                    continue
                fed += 1
                emissions.extend(
                    runtime.on_event(envelope.metadata, now, event_id)
                )
            if fed:
                node.counters.flow_events_in += fed
                self._arm_timer(runtime)
            if emissions:
                self._emit(runtime, emissions)

    def _emit(self, runtime: FlowRuntime, emissions: Sequence[Emission]) -> None:
        """Republish operator output into the normal publish path.

        Derived events get ids under the reserved publisher namespace
        ``(broker:flow, seq)`` and re-enter ``_process_batch`` at this
        broker, so they are matched, covered, credit-paced, logged, and
        traced exactly like events from a real publisher — with this
        broker in the publisher role: a ``publish`` span anchors path
        reconstruction here, and ``events_published`` counts once, at
        the deriving broker only.
        """
        node = self.node
        counters = node.counters
        spec = runtime.spec
        namespace = f"{node.name}:{spec.name}"
        now = node.sim.now
        tracing = node.tracer.enabled
        collapse = isinstance(spec.operator, CollapseSpec)
        publishes: List[Publish] = []
        for emission in emissions:
            seq = self.seqs.get(spec.name, 0)
            self.seqs[spec.name] = seq + 1
            props = dict(emission.properties)
            props[CLASS_ATTRIBUTE] = spec.output_class
            # A PropertyEvent, marshalled like any published one: its
            # meta-data is the event, and it travels with no payload.
            envelope = marshal(
                PropertyEvent(props), published_at=now, event_id=(namespace, seq)
            )
            publishes.append(Publish(envelope))
            counters.events_published += 1
            counters.flow_events_out += 1
            if collapse and emission.n_inputs > 1:
                counters.flow_collapsed_events += emission.n_inputs - 1
            if tracing:
                ids = ",".join(f"{p}/{s}" for p, s in emission.inputs)
                if emission.n_inputs > len(emission.inputs):
                    ids += f",+{emission.n_inputs - len(emission.inputs)}"
                node._span(
                    "publish",
                    ("class", spec.output_class),
                    ("flow", spec.name),
                    trace_id=envelope.event_id,
                )
                node._span(
                    "derive",
                    ("flow", spec.name),
                    ("op", spec.operator_kind),
                    ("inputs", emission.n_inputs),
                    ("input_ids", ids),
                    trace_id=envelope.event_id,
                )
        metas = None
        if tracing:
            metas = tuple((namespace, now) for _ in publishes)
        self._depth += 1
        try:
            node._process_batch(tuple(publishes), metas)
        finally:
            self._depth -= 1

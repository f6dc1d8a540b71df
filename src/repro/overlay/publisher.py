"""Publisher runtime: advertising and the event transformation boundary.

Publishers attach to the root ("published events are first forwarded to
the top most stage", §4).  Publishing performs the paper's event
transformation exactly once: the typed object is reflected into its
covering meta-data and sealed into an opaque envelope — after this point
no broker ever touches application code.

With flow control on (a :class:`~repro.flow.FlowConfig`), the publisher
is the *source end* of the overlay's backpressure chain: each publish
spends one credit from a local window the root replenishes (one grant
per event it processes), an optional token bucket caps the offered rate
at the source, and credit-starved events wait in a bounded local queue
whose overflow is shed observably.  ``publish`` then reports whether the
event actually entered the system.
"""

from collections import deque
from typing import Any, Iterable, Optional

from repro.core.advertisement import Advertisement
from repro.events.hierarchy import TypeRegistry
from repro.events.serialization import marshal
from repro.flow import BoundedQueue, CreditWindow, FlowConfig, RateLimiter
from repro.metrics.counters import NodeCounters
from repro.obs.tracing import PUBLISHER_STAGE, EventTracer
from repro.overlay.channel import PeerLinks
from repro.overlay.messages import (
    Advertise,
    CreditGrant,
    DataFrame,
    Publish,
    PublishBatch,
    Sequenced,
)
from repro.runtime.base import Executor, Transport
from repro.sim.kernel import Process


class PublisherRuntime(Process):
    """A data producer attached to the root of the hierarchy."""

    def __init__(
        self,
        sim: Executor,
        network: Transport,
        name: str,
        root: Process,
        types: Optional[TypeRegistry] = None,
        tracer: Optional[EventTracer] = None,
        flow: Optional[FlowConfig] = None,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
    ):
        super().__init__(sim, name)
        self.network = network
        self.root = root
        self.types = types
        self.counters = NodeCounters()
        self.events_published = 0
        #: Causal span tracer (shared system-wide when observability is on).
        self.tracer = tracer if tracer is not None else EventTracer(enabled=False)
        #: Flow-control knobs (None = fire-and-forget legacy publishing).
        self.flow = flow
        #: Credits for the link to the root (replenished by root grants).
        self._window: Optional[CreditWindow] = (
            CreditWindow(flow.link_window) if flow is not None else None
        )
        #: Events waiting for credits (bounded; overflow sheds observably).
        self._pending: Optional[BoundedQueue] = (
            BoundedQueue(flow.publisher_queue_capacity, flow.policy)
            if flow is not None
            else None
        )
        effective_rate = rate_limit
        effective_burst = burst
        if flow is not None:
            if effective_rate is None:
                effective_rate = flow.publisher_rate
            if effective_burst is None:
                effective_burst = flow.publisher_burst
        #: Token bucket over simulated time (None = unlimited rate).
        self.rate_limiter: Optional[RateLimiter] = (
            RateLimiter(effective_rate, effective_burst or 16.0, now=sim.now)
            if effective_rate is not None
            else None
        )
        #: The reliable link the root's credit grants arrive on.
        self.links = PeerLinks(self, network)
        #: Next data-frame sequence number on the link to the root (flow
        #: mode only): lets the root detect and re-credit events a lossy
        #: wire swallowed (the DESIGN §10 credit-leak fix).
        self._data_seq = 0

    def advertise(self, advertisement: Advertisement) -> None:
        """Disseminate an advertisement (schema + ``Gc``) into the overlay."""
        self.network.send(self, self.root, Advertise(advertisement))

    def publish(self, event: Any, event_class: Optional[str] = None) -> bool:
        """Transform ``event`` (reflection -> meta-data + opaque payload)
        and inject it at the top stage.

        ``event_class`` overrides the meta-data type name; by default the
        type registry's registered name (when available) or the Python
        class name is used.  Returns True when the event was sent or
        queued for sending, False when it was refused (rate limited, or
        shed from a full local queue) — always True without flow control.
        """
        if self.rate_limiter is not None and not self.rate_limiter.allow(self.sim.now):
            self.counters.rate_limited += 1
            if self.tracer.enabled:
                self.tracer.span(
                    self.sim.now,
                    "shed",
                    self.name,
                    PUBLISHER_STAGE,
                    details=(("reason", "rate-limit"),),
                )
            return False
        return self._submit(self._marshal(event, event_class))

    def publish_batch(
        self, events: Iterable[Any], event_class: Optional[str] = None
    ) -> int:
        """Publish a run of events as one batched injection.

        The whole run travels to the root in a single
        :class:`PublishBatch` message (one scheduling round, one receive)
        and is delivered downstream in publish order — the batched
        counterpart of calling :meth:`publish` per event.  Returns the
        number of events published (events refused by the rate limiter or
        shed from a full local queue do not count).
        """
        accepted = 0
        publishes = []
        for event in events:
            if self.rate_limiter is not None and not self.rate_limiter.allow(
                self.sim.now
            ):
                self.counters.rate_limited += 1
                continue
            publishes.append(self._marshal(event, event_class))
        if not publishes:
            return 0
        if self._window is None:
            if len(publishes) == 1:
                self.network.send(self, self.root, publishes[0])
            else:
                self.network.send(self, self.root, PublishBatch(tuple(publishes)))
            return len(publishes)
        for publish in publishes:
            if self._submit(publish):
                accepted += 1
        return accepted

    def _submit(self, message: Publish) -> bool:
        """Send one marshalled event, spending a credit; queue locally
        when the window is empty; shed when the local queue overflows."""
        if self._window is None:
            self.network.send(self, self.root, message)
            return True
        if not self._pending and self._window.take(1):
            self._send_data((message,))
            return True
        self.counters.credit_stalls += 1
        accepted, shed = self._pending.offer(message)
        if shed:
            self.counters.on_shed("publisher-overflow", len(shed))
            if self.tracer.enabled:
                for dropped in shed:
                    self.tracer.span(
                        self.sim.now,
                        "shed",
                        self.name,
                        PUBLISHER_STAGE,
                        trace_id=dropped.envelope.event_id,
                        details=(("reason", "publisher-overflow"),),
                    )
        return accepted

    @property
    def pending_count(self) -> int:
        """Events queued locally waiting for credits."""
        return len(self._pending) if self._pending is not None else 0

    def _marshal(self, event: Any, event_class: Optional[str]) -> Publish:
        if event_class is None and self.types is not None:
            if self.types.is_registered(type(event)):
                event_class = self.types.name_of(type(event))
        envelope = marshal(
            event,
            class_name=event_class,
            published_at=self.sim.now,
            event_id=(self.name, self.events_published),
        )
        self.events_published += 1
        if self.tracer.enabled:
            self.tracer.span(
                self.sim.now,
                "publish",
                self.name,
                PUBLISHER_STAGE,
                trace_id=envelope.event_id,
                details=(
                    ("class", envelope.metadata.event_class),
                    ("to", self.root.name),
                ),
            )
        return Publish(envelope)

    def receive(self, message: Any, sender: Process) -> None:
        # Credit grants from the root arrive on a reliable channel (a grant
        # lost to the wire is retransmitted, never deadlocking the loop).
        # Handled regardless of this publisher's own flow flag: absorbing
        # an unexpected grant is harmless, crashing on one is not.
        if isinstance(message, Sequenced):
            self.links.on_frame(message, sender, self._apply_grant)
            return
        raise TypeError(f"publisher {self.name} received unexpected {message!r}")

    def _apply_grant(self, message: Any) -> None:
        if not isinstance(message, CreditGrant):
            raise TypeError(
                f"publisher {self.name} received unexpected framed {message!r}"
            )
        if self._window is None:
            return
        self._window.grant(message.credits)
        sendable = deque()
        while self._pending and self._window.take(1):
            sendable.append(self._pending.popleft())
        if sendable:
            self._send_data(tuple(sendable))

    def _send_data(self, publishes) -> None:
        """Put a run of credit-backed events on the wire as one sequenced
        data frame (the numbering is what makes lost-frame credit gaps
        detectable at the root)."""
        frame = DataFrame(self._data_seq, tuple(publishes))
        self._data_seq += len(frame.publishes)
        self.network.send(self, self.root, frame)

    def _lose_soft_state(self) -> None:
        """Fail-stop: the grant stream's position dies with the process;
        the next incarnation adopts the first frame it hears."""
        self.links.reset()

    def __repr__(self) -> str:
        return f"PublisherRuntime({self.name}, published={self.events_published})"

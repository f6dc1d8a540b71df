"""Publisher runtime: advertising and the event transformation boundary.

Publishers attach to the root ("published events are first forwarded to
the top most stage", §4).  Publishing performs the paper's event
transformation exactly once: the typed object is reflected into its
covering meta-data and sealed into an opaque envelope (a
``PropertyEvent`` is its own meta-data and carries no payload), and the
envelope's wire record is built — after this point no broker ever
touches application code, and nothing re-serialises the event.

With flow control on (a :class:`~repro.flow.FlowConfig`), the publisher
is the *source end* of the overlay's backpressure chain: its hop to the
root is a credited link like any broker's (:mod:`repro.flow.link`) —
each publish spends one credit the root grants back per event it
processes, and credit-starved events wait in a bounded local queue whose
overflow is shed observably — and an optional token bucket caps the
offered rate at the source.  ``publish`` then reports whether the event
actually entered the system.
"""

from typing import Any, Iterable, List, Optional, Tuple

from repro.core.advertisement import Advertisement
from repro.core.subscription import RENEW_FRACTION
from repro.events.hierarchy import TypeRegistry
from repro.events.serialization import marshal
from repro.flow import FlowConfig, LinkSender, RateLimiter
from repro.metrics.counters import NodeCounters
from repro.obs.tracing import PUBLISHER_STAGE, EventTracer
from repro.overlay.channel import PeerLinks
from repro.overlay.messages import (
    Ack,
    Advertise,
    CreditGrant,
    Publish,
    PublishBatch,
    Sequenced,
)
from repro.runtime.base import Executor, Transport
from repro.sim.kernel import PeriodicTask, Process


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
        ttl: float = 60.0,
    ):
        super().__init__(sim, name)
        self.network = network
        self.root = root
        self.ttl = ttl
        self.types = types
        self.counters = NodeCounters()
        self.events_published = 0
        #: Causal span tracer (shared system-wide when observability is on).
        self.tracer = tracer if tracer is not None else EventTracer(enabled=False)
        #: The credited link to the root (None without flow control:
        #: fire-and-forget publishing): the window its grants refill,
        #: the events waiting for credits (bounded; overflow sheds
        #: observably) and the data-frame numbering that lets the root
        #: re-credit events a lossy wire swallowed (DESIGN §10).
        self.link: Optional[LinkSender] = (
            LinkSender(flow, flow.publisher_queue_capacity)
            if flow is not None
            else None
        )
        #: Token bucket over simulated time (None = unlimited rate).
        self.rate_limiter: Optional[RateLimiter] = (
            RateLimiter(rate_limit, burst or 16.0, now=sim.now)
            if rate_limit is not None
            else None
        )
        #: The reliable link with the root: its credit grants and resets
        #: in, our answers out.
        self.links = PeerLinks(self, network)

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
        if self._refused():
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
        publishes = [
            self._marshal(event, event_class)
            for event in events
            if not self._refused()
        ]
        if self.link is not None:
            return sum(map(self._submit, publishes))
        if len(publishes) == 1:
            self.network.send(self, self.root, publishes[0])
        elif publishes:
            self.network.send(self, self.root, PublishBatch(tuple(publishes)))
        return len(publishes)

    def _refused(self) -> bool:
        """The one rate-limit refusal: True, counted and leaving its
        ``shed`` span, when the token bucket has nothing for an event
        offered now."""
        if self.rate_limiter is None or self.rate_limiter.allow(self.sim.now):
            return False
        self.counters.rate_limited += 1
        self._shed_span("rate-limit")
        return True

    def _submit(self, message: Publish) -> bool:
        """Send one marshalled event, spending a credit; queue locally
        when the window is empty; shed when the local queue overflows."""
        if self.link is None:
            self.network.send(self, self.root, message)
            return True
        frame, shed, stalled = self.link.offer((message,))
        self.counters.credit_stalls += stalled
        if frame is not None:
            self.network.send(self, self.root, frame)
        self._shed("publisher-overflow", shed)
        return not any(dropped is message for dropped in shed)

    def _shed(self, reason: str, publishes: List[Publish]) -> None:
        """Count events shed here for ``reason``, each with its span."""
        if publishes:
            self.counters.on_shed(reason, len(publishes))
        for dropped in publishes:
            self._shed_span(reason, dropped.envelope.event_id)

    def _shed_span(self, reason: str, trace_id: Optional[tuple] = None) -> None:
        if self.tracer.enabled:
            self.tracer.span(
                self.sim.now,
                "shed",
                self.name,
                PUBLISHER_STAGE,
                trace_id=trace_id,
                details=(("reason", reason),),
            )

    @property
    def pending_count(self) -> int:
        """Events queued locally waiting for credits."""
        return len(self.link.queue) if self.link is not None else 0

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
        # The event's one serialisation: every hop, socket and log after
        # this one reuses the record built here.
        return Publish(envelope)

    def receive(self, message: Any, sender: Process) -> None:
        # Credit grants from the root arrive on a reliable channel (a grant
        # lost to the wire is retransmitted, never deadlocking the loop).
        # Handled regardless of this publisher's own flow flag: absorbing
        # an unexpected grant is harmless, crashing on one is not.
        if isinstance(message, Sequenced):
            self.links.on_frame(message, sender, self._apply_grant, self._root_restarted)
        elif isinstance(message, Ack):
            self.links.on_ack(sender, message)
        else:
            raise TypeError(f"publisher {self.name} received unexpected {message!r}")

    def _apply_grant(self, message: Any) -> None:
        if not isinstance(message, CreditGrant):
            raise TypeError(
                f"publisher {self.name} received unexpected framed {message!r}"
            )
        if self.link is None:
            return
        frame = self.link.granted(message.epoch, message.credits)
        if frame is not None:
            self.network.send(self, self.root, frame)

    def _root_restarted(self, root: Process) -> None:
        """The root restarted (``links.restart``; answered after this): the
        link starts over, full under a new epoch, and what waited for
        credits goes to the new incarnation."""
        if self.link is not None:
            for message in self.link.reset():
                self._submit(message)

    def _maintenance_tasks(self) -> Tuple[PeriodicTask, ...]:
        return () if self.link is None else (("probe", self.ttl * RENEW_FRACTION, self._probe),)

    def _probe(self) -> None:
        """Show a root that lost our last frames, or heard none, the gap."""
        frame = self.link.probe()
        if frame is not None:
            self.network.send(self, self.root, frame)

    def _lose_soft_state(self) -> None:
        """Fail-stop: the grant stream's position dies with the process;
        the next incarnation adopts the first frame it hears.  The
        credited link is not reset (DESIGN §8 says what that means)."""
        self.links.reset()

    def __repr__(self) -> str:
        return f"PublisherRuntime({self.name}, published={self.events_published})"

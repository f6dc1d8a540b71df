"""Subscriber runtime: Figure 5(a) join protocol + perfect stage-0 filtering.

The subscriber runtime is the paper's "user-level" (stage-0) process.  It
owns the *original* subscriptions — standard conjunctive filters plus any
residual closure predicates — and is the only place the full filters run
and the only place event payloads are unmarshaled: expressiveness and
event safety are enforced end-to-end here, while everything upstream saw
only weakened filters and meta-data.
"""

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.subscription import RENEW_FRACTION, Subscription
from repro.events.serialization import Envelope, unmarshal
from repro.filters.engine import DEFAULT_ENGINE, MatchEngine, make_engine
from repro.filters.filter import Filter
from repro.flow import FlowConfig
from repro.metrics.counters import NodeCounters
from repro.obs.tracing import SUBSCRIBER_STAGE, EventTracer
from repro.overlay.channel import PeerLinks, retransmit_details
from repro.overlay.messages import (
    AcceptedAt,
    Ack,
    CatchUpBatch,
    CatchUpDone,
    CatchUpLive,
    CatchUpRequest,
    ChannelReset,
    CreditGrant,
    Disconnect,
    JoinAt,
    Publish,
    PublishBatch,
    Reconnect,
    Renewal,
    Sequenced,
    SubscriptionRequest,
    Unsubscribe,
)
from repro.runtime.base import Executor, Transport
from repro.sim.kernel import PeriodicTask, Process

#: The handler signature: (typed event object, meta-data, subscription).
Handler = Callable[[Any, Any, Subscription], None]

#: Stands for an envelope's event while its payload is still sealed.
_UNOPENED = object()

#: A home holding more states than this is matched by one engine call
#: per envelope; at or below it the ``Filter.matches`` scan is cheaper.
#: A measured break-even (DESIGN §16, ``stage0_break_even.json``), not
#: an option: at 4 states the scan takes 0.62-0.70x the engine's time on
#: what a home actually sends and 0.96-1.23x (even, within noise) on
#: unfiltered traffic; from 5 on it is behind there (1.04-1.14x at 5,
#: 1.37-1.51x at 8).
STAGE0_SCAN_MAX = 4


@dataclass(eq=False)
class _SubscriptionState:
    subscription: Subscription
    handler: Optional[Handler]
    #: Position in the runtime's ``_states``: the order handlers run in.
    order: int
    #: Where the join's request goes: the root, or the ``at_node`` the
    #: subscription was pinned to.
    entry: Process
    home: Optional[Process] = None
    stored_filter: Optional[Filter] = None
    active: bool = True
    join_hops: int = 0

    @property
    def joined(self) -> bool:
        return self.home is not None

    def __lt__(self, other: "_SubscriptionState") -> bool:
        return self.order < other.order


class _Home(List[_SubscriptionState]):
    """The active, joined states homed at one node, in ``_states``
    order — the list itself, one object per home — and the engine
    matching them while they outnumber :data:`STAGE0_SCAN_MAX`
    (original filters, subscription ids as destinations; ``None`` at or
    below it)."""

    __slots__ = ("engine",)

    def __init__(self, states: Sequence[_SubscriptionState] = ()) -> None:
        super().__init__(states)
        self.engine: Optional[MatchEngine] = None

    @property
    def states(self) -> "_Home":
        return self


#: What an envelope from a node no subscription is homed at is checked
#: against: nothing.
_NO_HOME = _Home()


class _CatchUpSession:
    """Subscriber-side state of one catch-up (see :mod:`repro.log.replay`).

    The ``seen`` set is the exactly-once keystone: history, live taps,
    and (after the path goes live) the normal home-broker stream all
    overlap around the handover, and whichever copy of an event arrives
    first wins — every later copy is discarded.  The set is a bounded
    LRU; the overlap it must remember is recent by construction (the
    fence and the handover are both "now"-ish), so eviction of old ids
    is safe long before the bound matters.
    """

    __slots__ = (
        "subscription_id",
        "history_done",
        "live",
        "history_delivered",
        "tap_delivered",
        "dupes",
        "_seen",
        "_seen_limit",
    )

    def __init__(self, subscription_id: int, seen_limit: int = 65536) -> None:
        self.subscription_id = subscription_id
        #: The root drained every record up to the session fence.
        self.history_done = False
        #: Switchover announced: the overlay path now serves this alone.
        self.live = False
        self.history_delivered = 0
        self.tap_delivered = 0
        #: Copies discarded because another stream delivered them first.
        self.dupes = 0
        self._seen: "OrderedDict[Tuple, None]" = OrderedDict()
        self._seen_limit = seen_limit

    def remember(self, event_id: Tuple) -> bool:
        """Record one delivery; False when the event was already seen."""
        if event_id in self._seen:
            return False
        self._seen[event_id] = None
        if len(self._seen) > self._seen_limit:
            self._seen.popitem(last=False)
        return True


class SubscriberRuntime(Process):
    """A stage-0 user process holding one or more subscriptions."""

    def __init__(
        self,
        sim: Executor,
        network: Transport,
        name: str,
        root: Process,
        ttl: float = 60.0,
        tracer: Optional[EventTracer] = None,
        flow: Optional[FlowConfig] = None,
    ):
        super().__init__(sim, name)
        self.network = network
        self.root = root
        self.ttl = ttl
        #: Flow-control knobs: bounds the control links' send windows.
        self.flow = flow
        # What most subscribers never use is made on first use: the
        # reliable links (``links``), the latency series
        # (``delivery_latencies``) and the group dedup
        # (``_delivered_groups``).
        self._links: Optional[PeerLinks] = None
        self._latencies: Optional[List[float]] = None
        self._groups_seen: "Optional[OrderedDict[Tuple, None]]" = None
        #: Causal span tracer (shared system-wide when observability is on).
        self.tracer = tracer if tracer is not None else EventTracer(enabled=False)
        self.counters = NodeCounters()
        self._states: Dict[int, _SubscriptionState] = {}
        #: Number of active states (the ``filters_held`` gauge).
        self._active = 0
        # The active, joined states by home, kept current by ``_attach``
        # and ``_detach`` at every change of a state's ``active`` or
        # ``home``; a home with no such state has no entry.
        self._by_home: Dict[Process, _Home] = {}
        #: Gone offline (``disconnect``): renewals pause until ``reconnect``.
        self.offline = False
        self._delivered_groups_limit = 4096
        # Catch-up replay (see repro.log.replay): per-subscription
        # sessions, kept after switchover — their seen-sets are the
        # handover dedup.
        self._catch_up: Dict[int, _CatchUpSession] = {}

    @property
    def links(self) -> PeerLinks:
        """One reliable link per home node (order matters between a
        Renewal restoring a filter and an Unsubscribe removing it) and
        one with the root (catch-up requests out, replay stream in)."""
        if self._links is None:
            flow = self.flow
            self._links = PeerLinks(
                self,
                self.network,
                flow.control_window if flow is not None else None,
                self._on_retransmit,
            )
        return self._links

    @property
    def delivery_latencies(self) -> List[float]:
        """Publish-to-delivery latencies (simulated time), §5-style metric."""
        if self._latencies is None:
            self._latencies = []
        return self._latencies

    @property
    def _delivered_groups(self) -> "OrderedDict[Tuple, None]":
        """Disjunction-group delivery dedup: (group, event_id) pairs
        seen, a bounded LRU (branches of one OR can arrive over several
        paths)."""
        if self._groups_seen is None:
            self._groups_seen = OrderedDict()
        return self._groups_seen

    # ------------------------------------------------------------------
    # Subscribing (Figure 5a)
    # ------------------------------------------------------------------

    def subscribe(
        self,
        subscription: Subscription,
        handler: Optional[Handler] = None,
        at_node: Optional[Process] = None,
    ) -> int:
        """Send ``Subscription(fsub)`` to the root; returns the id used to
        correlate ``accepted-At`` and to unsubscribe later.

        ``at_node`` bypasses the Figure-5 search and sends the request to
        a specific node (a stage-1 node inserts immediately) — the
        locality/random placement the ablation experiments compare
        against similarity placement (§4.2).
        """
        if subscription.filter.matches_nothing:
            # No table holds fF; a broker asked to store it could only
            # refuse (and an engine raises).
            raise ValueError(f"{subscription!r} matches nothing: nothing to subscribe to")
        # Subscribed again under its id: the old state retires and the
        # new one takes its place in ``_states``.
        self.unsubscribe(subscription.subscription_id, explicit=False)
        replaced = self._states.get(subscription.subscription_id)
        state = _SubscriptionState(
            subscription,
            handler,
            len(self._states) if replaced is None else replaced.order,
            at_node if at_node is not None else self.root,
        )
        self._states[subscription.subscription_id] = state
        self._active += 1
        self.counters.set_filters_held(self._active)
        self._send_request(state, state.entry)
        return subscription.subscription_id

    def unsubscribe(self, subscription_id: int, explicit: bool = True) -> None:
        """Stop a subscription.

        With ``explicit=True`` an ``Unsubscribe`` is sent to the home node
        for immediate removal; either way the runtime stops renewing, so
        the soft state upstream decays within 3xTTL (§4.3).
        """
        state = self._states.get(subscription_id)
        if state is None or not state.active:
            return
        state.active = False
        self._active -= 1
        self.counters.set_filters_held(self._active)
        if state.joined:
            self._detach(state)
        if explicit and state.joined and state.stored_filter is not None:
            # The home stores one entry per (filter, subscriber): another
            # active state it placed under the same filter still needs it.
            home = self._by_home.get(state.home, _NO_HOME)
            if all(other.stored_filter != state.stored_filter for other in home):
                self.links.send(state.home, Unsubscribe(state.stored_filter, self))

    # ------------------------------------------------------------------
    # Catch-up replay (late joiners; see repro.log.replay)
    # ------------------------------------------------------------------

    def catch_up(
        self,
        subscription_id: int,
        from_offset: Optional[int] = None,
        from_time: Optional[Any] = None,
    ) -> None:
        """Ask the root to replay history for a joined subscription.

        ``from_offset`` picks a root-log line offset, ``from_time`` a
        point in time (simulated seconds or an ISO-8601 string anchored
        at :data:`repro.log.EPOCH_ISO`); neither means "everything the
        log retains".  History arrives at the configured replay rate
        (credit-bounded when flow control is on), live events are tapped
        in from the request onward, and once the normal overlay path
        covers the subscription the root hands over
        (:meth:`catch_up_live` turns True) — no gap, no duplicate.
        """
        state = self._states.get(subscription_id)
        if state is None or not state.active:
            raise KeyError(f"no active subscription {subscription_id}")
        if not state.joined:
            raise RuntimeError(
                f"subscription {subscription_id} must be joined before catch-up"
            )
        self._catch_up[subscription_id] = _CatchUpSession(subscription_id)
        self.links.send(
            self.root,
            CatchUpRequest(
                subscription_id,
                state.subscription.filter,
                state.subscription.event_class,
                self,
                state.home,
                from_offset,
                from_time,
            ),
        )

    def catch_up_history_done(self, subscription_id: int) -> bool:
        """True when the root has drained this session's history."""
        session = self._catch_up.get(subscription_id)
        return session is not None and session.history_done

    def catch_up_live(self, subscription_id: int) -> bool:
        """True when the switchover to normal live delivery completed."""
        session = self._catch_up.get(subscription_id)
        return session is not None and session.live

    def catch_up_stats(self, subscription_id: int) -> Optional[Dict[str, int]]:
        """Replay bookkeeping for one session (None when unknown)."""
        session = self._catch_up.get(subscription_id)
        if session is None:
            return None
        return {
            "history_delivered": session.history_delivered,
            "tap_delivered": session.tap_delivered,
            "dupes_discarded": session.dupes,
        }

    def _on_retransmit(self, peer: str, epoch: int, frames: tuple) -> None:
        self.counters.control_retransmits += len(frames)
        if self.tracer.enabled:
            self.tracer.span(
                self.sim.now, "retransmit", self.name, SUBSCRIBER_STAGE,
                details=retransmit_details(peer, epoch, frames),
            )

    @property
    def control_idle(self) -> bool:
        """True when every reliable control frame has been acknowledged."""
        return self._links is None or self._links.idle

    def _send_request(self, state: _SubscriptionState, node: Process) -> None:
        request = SubscriptionRequest(
            state.subscription.filter,
            state.subscription.event_class,
            self,
            state.subscription.subscription_id,
        )
        self.network.send(self, node, request)

    # ------------------------------------------------------------------
    # Crash lifecycle
    # ------------------------------------------------------------------

    def _lose_soft_state(self) -> None:
        """Fail-stop: un-acked control frames die with the incarnation —
        the renewals of the next one restore what they carried."""
        self.links.reset()

    # ------------------------------------------------------------------
    # Disconnection (durable subscriptions, §2.1)
    # ------------------------------------------------------------------

    def _homes(self) -> List[Process]:
        """Distinct home nodes of the active, joined subscriptions, in
        order of first appearance in ``_states``."""
        by_home = self._by_home
        return sorted(by_home, key=lambda home: by_home[home].states[0])

    def disconnect(self, durable: bool = True) -> None:
        """Go offline gracefully.

        With ``durable=True`` every home node buffers matching events
        for replay on :meth:`reconnect` (bounded by the node's buffer
        limit); renewals pause — so an absence beyond 3xTTL still loses
        the subscriptions, exactly the paper's soft-state semantics.
        """
        self.offline = True
        for home in self._homes():
            self.network.send(self, home, Disconnect(durable=durable))
        self._sync_maintenance()

    def rejoin(self, subscription_id: int) -> None:
        """Re-run the Figure-5 join for a subscription from scratch.

        Used after an absence longer than the lease window (the upstream
        soft state has decayed) or when the home node died: the
        subscription's placement state resets and a fresh
        ``Subscription(fsub)`` goes to the root.
        """
        state = self._states.get(subscription_id)
        if state is None or not state.active:
            raise KeyError(f"no active subscription {subscription_id}")
        if state.joined:
            self._detach(state)
        state.entry = self.root
        state.home = None
        state.stored_filter = None
        state.join_hops = 0
        self._send_request(state, self.root)

    def reconnect(self) -> None:
        """Come back online: homes flush buffers, renewals resume."""
        self.offline = False
        for home in self._homes():
            self.network.send(self, home, Reconnect())
        self._sync_maintenance()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def receive(self, message: Any, sender: Process) -> None:
        # Subscriptions homed at different nodes each receive their own
        # copy stream; a copy from node N serves exactly the subscriptions
        # homed at N.  This keeps per-subscription delivery exactly-once
        # even when one subscriber attaches at several points of the tree.
        if isinstance(message, Publish):
            home = self._by_home.get(sender, _NO_HOME)
            self._deliver(message.envelope, sender, home, home.engine)
        elif isinstance(message, PublishBatch):
            # A coalesced run from the home node: deliver in batch order,
            # which is exactly the unbatched per-destination send order.
            # The home is looked up per envelope: a handler may
            # unsubscribe, and the next envelope of the run must see it.
            by_home = self._by_home
            for publish in message.publishes:
                home = by_home.get(sender, _NO_HOME)
                self._deliver(publish.envelope, sender, home, home.engine)
        elif isinstance(message, JoinAt):
            self.counters.control_messages += 1
            state = self._states.get(message.subscription_id)
            if state is not None and state.active and not state.joined:
                state.join_hops += 1
                self._send_request(state, message.node)
        elif isinstance(message, AcceptedAt):
            self.counters.control_messages += 1
            state = self._states.get(message.subscription_id)
            if state is not None:
                if state.active and state.joined:
                    self._detach(state)  # accepted again: it may have moved
                state.home = message.node
                state.stored_filter = message.stored_filter
                if state.active:
                    self._attach(state)
                if self.tracer.enabled:
                    details = (("home", message.node.name), ("hops", state.join_hops))
                    self.tracer.span(
                        self.sim.now, "joined", self.name, SUBSCRIBER_STAGE,
                        details=details,
                    )
        elif isinstance(message, Ack):
            self.links.on_ack(sender, message)
        elif isinstance(message, Sequenced):
            # The root's reliable replay stream (catch-up batches and
            # session control).
            self.counters.control_dups_discarded += self.links.on_frame(
                message, sender, lambda payload: self._on_framed(payload, sender)
            )
        elif isinstance(message, ChannelReset):
            # The root restarted: its replay stream died with it.
            self.links.forget(sender)
        else:
            raise TypeError(f"{self.name}: unexpected message {message!r}")

    def _on_framed(self, payload: Any, sender: Process) -> None:
        if isinstance(payload, CatchUpBatch):
            self._on_catch_up_batch(payload, sender)
            return
        self.counters.control_messages += 1
        if isinstance(payload, CatchUpDone):
            session = self._catch_up.get(payload.subscription_id)
            if session is not None:
                session.history_done = True
        elif isinstance(payload, CatchUpLive):
            session = self._catch_up.get(payload.subscription_id)
            if session is not None:
                session.live = True
        else:
            raise TypeError(f"{self.name}: unexpected framed {payload!r}")

    def _on_catch_up_batch(self, message: CatchUpBatch, sender: Process) -> None:
        session = self._catch_up.get(message.subscription_id)
        if session is None:
            return  # stale stream for a session we no longer track
        state = self._states.get(message.subscription_id)
        for publish in message.publishes:
            states = [state] if state is not None and state.active else []
            self._deliver(
                publish.envelope, sender, states, None, session, message.history
            )
        if message.history and self.flow is not None and message.publishes:
            # One credit per consumed history event, back on the control
            # channel: the replay rate composes with PR 5's credit
            # windows exactly like live traffic does.
            self.links.send(sender, CreditGrant(message.epoch, len(message.publishes)))

    # ------------------------------------------------------------------
    # Perfect filtering and delivery (stage 0)
    # ------------------------------------------------------------------

    def _deliver(
        self,
        envelope: Envelope,
        sender: Process,
        states: Sequence[_SubscriptionState],
        engine: Optional[MatchEngine] = None,
        session: Optional[_CatchUpSession] = None,
        history: Optional[bool] = None,
    ) -> None:
        """Stage 0 for one envelope, live or replayed: exact filter,
        catch-up session dedup, disjunction-group dedup, residual
        closure, handler — in that order, for each of ``states``.

        A live copy (no ``session``) is checked against the states homed
        at ``sender``: by one ``engine.match`` when the home keeps an
        engine over them, by a scan when it holds too few to (either way
        the event was checked against ``len(states)`` filters, which is
        what ``filter_evaluations`` books).  A replayed copy arrives on
        ``session``'s stream for its one subscription, as history or
        (``history=False``) a live tap; it never enters the
        delivery-latency series — a historical event's publish-to-now
        span measures the subscriber's lateness, not the system's
        delivery latency.
        """
        metadata = envelope.metadata
        counters = self.counters
        counters.bytes_received += len(envelope)
        if engine is None:
            matched = []
            for state in states:
                if state.subscription.filter.matches(metadata):
                    matched.append(state)
        else:
            by_id = self._states
            matched = [
                by_id[subscription_id]
                for _, ids in engine.match(metadata)
                for subscription_id in ids
            ]
            # The engine answers by filter, in its own insertion order;
            # handlers run in ``_states`` order.
            matched.sort()
        counters.on_event(
            matched=bool(matched),
            forwarded_to=0,
            evaluations=len(states) if session is None else 1,
        )
        tracing = self.tracer.enabled
        delivered_before = counters.events_delivered if tracing else 0
        live = session is None and envelope.published_at is not None
        if matched and live:
            self.delivery_latencies.append(self.sim.now - envelope.published_at)
        event_id = envelope.event_id
        event = _UNOPENED
        catch_up = self._catch_up
        for state in matched:
            subscription = state.subscription
            # Around the catch-up handover one event can arrive on the
            # replay stream and from the home; first copy in wins, later
            # ones are discarded (exactly-once).
            dedup = session
            if dedup is None and catch_up:
                dedup = catch_up.get(subscription.subscription_id)
            if dedup is not None and event_id is not None:
                if not dedup.remember(event_id):
                    dedup.dupes += 1
                    counters.replay_dupes_discarded += 1
                    continue
            if subscription.group is not None and event_id is not None:
                key = (subscription.group, event_id)
                seen = self._delivered_groups
                if key in seen:
                    continue  # another branch already delivered this event
                seen[key] = None
                if len(seen) > self._delivered_groups_limit:
                    seen.popitem(last=False)
            # Event safety: the payload is opened at most once, at the
            # edge, and only for a copy someone looks at.
            closure = subscription.closure
            handler = state.handler
            if closure is not None and closure.residual is not None:
                if event is _UNOPENED:
                    event = unmarshal(envelope)
                if not closure.residual(event):
                    continue
            elif event is _UNOPENED and handler is not None:
                event = unmarshal(envelope)
            counters.events_delivered += 1
            if session is not None:
                counters.catchup_delivered += 1
                if history:
                    session.history_delivered += 1
                else:
                    session.tap_delivered += 1
            if handler is not None:
                handler(event, metadata, subscription)
        if tracing:
            details = (
                ("src", sender.name),
                ("matched", bool(matched)),
                ("delivered", counters.events_delivered - delivered_before),
                ("latency", self.sim.now - envelope.published_at if live else None),
            )
            if session is not None:
                details += (("replay", "history" if history else "tap"),)
            self.tracer.span(
                self.sim.now, "deliver", self.name, SUBSCRIBER_STAGE,
                trace_id=event_id, details=details,
            )

    def _active_states(self) -> List[_SubscriptionState]:
        return [s for s in self._states.values() if s.active]

    def _attach(self, state: _SubscriptionState) -> None:
        """An active state found its home: O(1) engine mutations."""
        home = self._by_home.get(state.home)
        if home is None:
            home = self._by_home[state.home] = _Home()
        states = home.states
        insort(states, state)
        if home.engine is not None:
            joining: Sequence[_SubscriptionState] = (state,)
        elif len(states) > STAGE0_SCAN_MAX:
            # Crossing the break-even: the engine takes the handful of
            # states the scan served until now.
            home.engine = make_engine(DEFAULT_ENGINE)
            joining = states
        else:
            return
        for held in joining:
            home.engine.insert(
                held.subscription.filter, held.subscription.subscription_id
            )

    def _detach(self, state: _SubscriptionState) -> None:
        """An attached state left its home (unsubscribed, rejoining, or
        accepted elsewhere)."""
        home = self._by_home[state.home]
        states = home.states
        del states[bisect_left(states, state)]
        if len(states) > STAGE0_SCAN_MAX:
            home.engine.remove(
                state.subscription.filter, state.subscription.subscription_id
            )
        else:
            home.engine = None  # back on the scan side
            if not states:
                del self._by_home[state.home]

    # ------------------------------------------------------------------
    # Renewal task (§4.3)
    # ------------------------------------------------------------------

    def _maintenance_tasks(self) -> Tuple[PeriodicTask, ...]:
        return (("renew", self.ttl * RENEW_FRACTION, self._renew_task),)

    def _maintenance_paused(self) -> bool:
        return self.offline

    def _renew_task(self) -> None:
        # A join travels unacknowledged: one whose request, JoinAt or
        # AcceptedAt was lost is refreshed here, like a lease, from where
        # it started.  A join that was merely slow ends in a second
        # AcceptedAt.
        for state in self._active_states():
            if not state.joined:
                self._send_request(state, state.entry)
        for home in self._homes():
            items = dict.fromkeys(
                (state.stored_filter, state.subscription.event_class)
                for state in self._by_home[home].states
                if state.stored_filter is not None
            )
            if items:
                self.links.send(home, Renewal(tuple(items)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def subscriptions(self) -> List[Subscription]:
        return [s.subscription for s in self._active_states()]

    def home_of(self, subscription_id: int) -> Optional[Process]:
        state = self._states.get(subscription_id)
        return state.home if state else None

    def all_joined(self) -> bool:
        """True when every active subscription has found its home node."""
        return all(s.joined for s in self._active_states())

    def __repr__(self) -> str:
        return f"SubscriberRuntime({self.name}, {len(self._states)} subscriptions)"

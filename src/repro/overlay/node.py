"""Broker nodes: Figure 5(b) routing and Figure 6 forwarding.

A :class:`BrokerNode` sits at some stage ``s >= 1`` of the hierarchy.  It
keeps a filter table of ``<weakened filter, destination ids>`` entries
(destinations are child brokers, or subscribers for stage-1 and
wildcard-hosting nodes), an advertisement registry, and lease soft state.

Behaviour implemented here, with the paper's names:

- subscription routing (``Subscription(fsub)`` handling): redirect toward
  the strongest stored covering filter, handle wildcard subscriptions,
  or descend to a random child; insert at stage 1;
- ``INSERT-SUBSCRIBER`` / ``req-Insert``: store weakened filters and
  announce them to the uplink;
- ``HANDLE-WILDCARD-SUBS``: attach wildcard subscriptions at the stage
  just above the topmost stage using the wildcarded attribute;
- the TTL tasks (renew own filters at the parent, purge silent ones);
- event filtering and forwarding (Figure 6).

Four components, each owning its soft state and one ``reset()``, do the
rest (map in DESIGN §3): :class:`~repro.overlay.uplink.CoveringUplink`
(what the parent is told, §4's covering-based aggregation),
:class:`~repro.streams.host.FlowHost`, :class:`~repro.log.replay.
Replayer` and :class:`~repro.overlay.channel.PeerLinks`; how a credited
hop behaves is :mod:`repro.flow.link`'s, one sender per downstream peer
and one receiver.

Event traffic takes one path whatever the :class:`~repro.overlay.config.
BrokerConfig`: ``_admit`` → ``_drain`` → ``_process_batch`` →
``_send_run``.  A configuration changes two policies, each decided at
one site (DESIGN §10): *flush-before-control* (``_flush_inbound``) and
*controlled downlinks* (``_send_run``).
"""

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.advertisement import AdvertisementRegistry
from repro.core.subscription import RENEW_FRACTION, LeaseTable
from repro.core.weakening import merge_covering, weaken_filter
from repro.filters.covering_index import CoveringIndex
from repro.filters.engine import MatchEngine, make_engine
from repro.filters.filter import Filter
from repro.filters.standard import most_general_wildcard, wildcard_attributes
from repro.flow import BoundedQueue, LinkReceiver, LinkSender, OverloadDetector
from repro.flow.overload import OVERLOAD_CAPACITY_FACTOR
from repro.log.eventlog import EventLog
from repro.metrics.counters import NodeCounters
from repro.obs.tracing import EventTracer
from repro.overlay.channel import PeerLinks, retransmit_details
from repro.overlay.config import BrokerConfig
from repro.overlay.messages import (
    AcceptedAt,
    Ack,
    Advertise,
    CatchUpRequest,
    ChannelReset,
    CreditGrant,
    DataFrame,
    Disconnect,
    FlowInstall,
    FlowRemove,
    JoinAt,
    Publish,
    PublishBatch,
    Reconnect,
    Renewal,
    ReplayBatch,
    ReplayRequest,
    ReqInsert,
    Sequenced,
    SubscriptionRequest,
    Unsubscribe,
    Withdraw,
)
from repro.overlay.uplink import CoveringUplink
from repro.runtime.base import Executor, Transport
from repro.sim.kernel import PeriodicTask, Process
from repro.streams.host import FlowHost


#: Events buffered per offline durable subscriber before the oldest is
#: shed (``offline_buffer_limit`` on a node, which tests may lower).
OFFLINE_BUFFER_LIMIT = 1000
#: Delay between a logging broker's restart and its recovery replay
#: request: long enough for the children's ChannelReset-triggered
#: renewals to rebuild the routing table the replay is matched against.
RECOVERY_DELAY = 0.5
#: An inbound queue entry: ``(publish, source, arrival time, link epoch)``.
Entry = Tuple[Publish, Process, float, int]


class BrokerNode(Process):
    """One intermediate node of the multi-stage hierarchy."""

    #: Duck-typed broker marker.  Routing decisions that distinguish
    #: broker destinations from subscriber destinations check this flag
    #: rather than ``isinstance(..., BrokerNode)`` so that a *remote*
    #: broker's lightweight proxy (multiprocess backend, where the real
    #: node lives in another OS process) routes exactly like the node it
    #: stands in for.
    is_broker = True

    def __init__(
        self,
        sim: Executor,
        network: Transport,
        name: str,
        stage: int,
        config: Optional[BrokerConfig] = None,
        rng: Optional[random.Random] = None,
        tracer: Optional[EventTracer] = None,
    ):
        """``config`` holds every behaviour option (see
        :class:`~repro.overlay.config.BrokerConfig`; default: all
        defaults); ``rng`` draws the random-child redirects."""
        super().__init__(sim, name)
        if stage < 1:
            raise ValueError(f"broker stages start at 1, got {stage}")
        config = config if config is not None else BrokerConfig()
        self.config = config
        self.network = network
        self.stage = stage
        self.ttl = config.ttl
        self.expiry_factor = config.expiry_factor
        self.offline_buffer_limit = OFFLINE_BUFFER_LIMIT
        #: Flow-control knobs (None = unbounded queue, no credit windows).
        self.flow = config.flow
        #: Log knobs (None = no log).
        self.log_config = log_config = config.log
        self.parent: Optional["BrokerNode"] = None
        self.broker_children: List["BrokerNode"] = []
        self.rng = rng or random.Random(0)
        #: Causal span tracer (shared system-wide; disabled tracer when
        #: observability is off, so every emission site is one flag check).
        self.tracer = tracer if tracer is not None else EventTracer(enabled=False)
        # ---- What survives crash() (DESIGN §8 has the reason for each) --
        self.advertisements = AdvertisementRegistry()
        self.counters = NodeCounters()
        #: Append-only publish log (the one durable thing a broker owns).
        self.log: Optional[EventLog] = (
            EventLog(
                name,
                segment_size=log_config.segment_size,
                directory=log_config.directory,
            )
            if log_config is not None
            else None
        )
        # ---- Components: each owns its soft state and one reset() -------
        #: Every reliable control link of this broker: the uplink (order-
        #: sensitive req-Insert / Withdraw / Renewal traffic and grants
        #: to the parent), grants to publishers, replay streams.
        self.links = PeerLinks(
            self,
            network,
            config.flow.control_window if config.flow is not None else None,
            self._on_retransmit,
        )
        #: What the parent is told about the stored filters (§4).
        self.uplink = CoveringUplink(self)
        #: In-broker information flows (streams/, DESIGN §15).
        self.flow_host = FlowHost(self)
        #: Root-side replayer, created lazily on the first replay request.
        self._replayer: Optional[Any] = None
        self.overload_detector: Optional[OverloadDetector] = (
            OverloadDetector(
                config.flow.queue_capacity,
                alpha=config.flow.ewma_alpha,
                high=config.flow.overload_high,
                low=config.flow.overload_low,
                on_transition=self._on_overload_transition,
            )
            if config.flow is not None
            else None
        )
        self._reset_soft_state()

    def _reset_soft_state(self) -> None:
        """Assign every soft field this class itself keeps — here and
        nowhere else: the constructor runs it once and a crash runs it
        again, so a field added here cannot be forgotten there
        (``overlay.invariants.soft_state_violations`` checks)."""
        # ---- Routing state (Figure 5b) ---------------------------------
        self.table: MatchEngine = self._new_engine()
        #: Covering index over the table's filters, at the brokers that
        #: place subscriptions (Figure 5b runs above stage 1 only; a
        #: stage-1 node inserts without asking and holds the most
        #: filters).  In lock-step with the table: a filter is added in
        #: ``_store`` when it first enters, discarded in ``_drop_pair``
        #: when its last destination leaves, so the index's insertion
        #: order is ``table.entries()`` order (DESIGN §5).
        self.placement_index: Optional[CoveringIndex] = (
            CoveringIndex() if self.stage > 1 else None
        )
        self.leases = LeaseTable(self.ttl, self.expiry_factor)
        self._filter_class: Dict[Filter, str] = {}
        # Compacted match engine, rebuilt lazily after table changes.
        self._compacted: Optional[MatchEngine] = None
        self._compacted_dirty = True
        #: The highest ChannelReset incarnation seen per peer *name*, the
        #: stable identity: by id(), a recycled object id would inherit a
        #: dead peer's history and discard its legitimate resets.
        self._peer_incarnations: Dict[str, int] = {}
        # Durable-subscription state (§2.1): offline destinations and the
        # events buffered for the durable ones.  Keyed by the destination
        # *name* — the stable identity on this network — not id(): a
        # recycled object id must not inherit a dead subscriber's offline
        # flag or durable buffer across a crash/reconnect cycle.
        self._offline: Dict[str, Tuple[Process, bool]] = {}
        self._buffers: Dict[str, BoundedQueue] = {}
        # ---- The data path: admit -> drain -> match -> forward (Fig. 6) -
        #: Arrived events awaiting the drain (``Entry``); bounded only
        #: under flow control.
        self._inbound = BoundedQueue(
            self.flow.queue_capacity if self.flow is not None else None,
            self.flow.policy if self.flow is not None else "drop_tail",
            priority=lambda entry: self._shed_priority(entry[0]),
        )
        self._drain_handle: Optional[Any] = None
        self._busy_until = 0.0
        self._drain_paused = False
        #: Credited links by downstream peer name (``link_to`` opens them).
        self._downlinks: Dict[str, LinkSender] = {}
        #: The receiving end of the credited links into this broker.
        self._receiver: Optional[LinkReceiver] = (
            LinkReceiver(self.flow.link_window) if self.flow is not None else None
        )
        if self.overload_detector is not None:
            self.overload_detector.reset()
        # An empty table holds no filter, compacted or not.
        self.counters.set_filters_held(0)

    def _new_engine(self) -> MatchEngine:
        """A fresh match engine, cache-wrapped when caching is on.

        The cache stats object is shared with this node's counters so
        hit/miss/invalidation totals survive compaction rebuilds (which
        construct a fresh wrapped engine each time).
        """
        return make_engine(self.config.engine, self.config.cache, self.counters.cache)

    def _span(
        self, kind: str, *details: Tuple[str, Any], trace_id: Optional[Tuple] = None
    ) -> None:
        """Emit one span of this broker, now (a no-op with tracing off;
        callers guard on ``tracer.enabled`` where building ``details``
        costs more than that check)."""
        self.tracer.span(self.sim.now, kind, self.name, self.stage, trace_id, details)

    # ------------------------------------------------------------------
    # Topology wiring (done by hierarchy builder / engine)
    # ------------------------------------------------------------------

    @property
    def root(self) -> "BrokerNode":
        """The top of this broker's tree (itself, at the root)."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def attach_child(self, child: "BrokerNode") -> None:
        """Register a child broker (one stage below) and link it."""
        if child.stage != self.stage - 1:
            raise ValueError(
                f"{child.name} (stage {child.stage}) cannot be a child of "
                f"{self.name} (stage {self.stage})"
            )
        child.parent = self
        self.broker_children.append(child)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def receive(self, message: Any, sender: Process) -> None:
        if isinstance(message, Publish):
            self._admit((message,), sender, 0)
            return
        if isinstance(message, PublishBatch):
            self._admit(message.publishes, sender, 0)
            return
        if isinstance(message, DataFrame):
            self._on_data_frame(message, sender)
            return
        if isinstance(message, Ack):
            # Acks touch only channel bookkeeping, never routing state:
            # no publish flush and no control_messages count (they are
            # overhead frames).
            self.links.on_ack(sender, message)
            return
        # Control messages mutate routing state: an unmanaged broker
        # serves its queued events first.
        self._flush_inbound()
        if isinstance(message, Sequenced):
            # A peer that opens a higher channel epoch restarted, whether
            # or not its ChannelReset arrived.
            self.counters.control_dups_discarded += self.links.on_frame(
                message,
                sender,
                lambda payload: self._apply_control(payload, sender),
                lambda: self._peer_restarted(sender),
            )
            return
        if isinstance(message, ChannelReset):
            self._on_channel_reset(message, sender)
            return
        self._apply_control(message, sender)

    def _apply_control(self, message: Any, sender: Process) -> None:
        """Apply one control message (unwrapped, in delivery order)."""
        self.counters.control_messages += 1
        if isinstance(message, SubscriptionRequest):
            self._on_subscription_request(message)
        elif isinstance(message, ReqInsert):
            self._refresh(((message.filter, message.event_class),), message.child)
        elif isinstance(message, Renewal):
            self._refresh(message.items, sender)
        elif isinstance(message, Advertise):
            self._on_advertise(message)
        elif isinstance(message, Unsubscribe):
            self._remove_pair(message.filter, message.subscriber)
        elif isinstance(message, Withdraw):
            self._remove_pair(message.filter, message.child)
        elif isinstance(message, Disconnect):
            self._on_disconnect(message, sender)
        elif isinstance(message, Reconnect):
            self._on_reconnect(sender)
        elif isinstance(message, CreditGrant):
            self._on_credit_grant(message, sender)
        elif isinstance(message, CatchUpRequest):
            if self._ensure_replayer() is not None:
                self._replayer.start_catch_up(message)
        elif isinstance(message, ReplayRequest):
            if self._ensure_replayer() is not None:
                self._replayer.start_recovery(message)
        elif isinstance(message, ReplayBatch):
            self._on_replay_batch(message, sender)
        elif isinstance(message, FlowInstall):
            self.flow_host.install(message, sender)
        elif isinstance(message, FlowRemove):
            self.flow_host.remove(message.flow, reason="removed")
        else:
            raise TypeError(f"{self.name}: unexpected message {message!r}")

    # ------------------------------------------------------------------
    # Advertisements
    # ------------------------------------------------------------------

    def _on_advertise(self, message: Advertise) -> None:
        changed = self.advertisements.add(message.advertisement)
        if self.tracer.enabled:
            self._span(
                "advertise",
                ("event_class", message.advertisement.event_class),
                ("changed", changed),
            )
        if changed:
            for child in self.broker_children:
                self.network.send(self, child, message)

    def _association_for(self, event_class: str):
        return self.advertisements.require(event_class).association

    # ------------------------------------------------------------------
    # Subscription routing (Figure 5b)
    # ------------------------------------------------------------------

    def _on_subscription_request(self, request: SubscriptionRequest) -> None:
        if request.filter.matches_nothing:
            # The edge refuses fF before sending (``SubscriberRuntime.
            # subscribe``); one that arrives anyway is a client's input,
            # not a reason for this broker to stop: no table holds fF,
            # so there is nothing to store, accept or redirect.
            self.counters.subscriptions_refused += 1
            if self.tracer.enabled:
                self._span("subscription-refused", ("subscriber", request.subscriber.name))
            return
        if self.stage == 1:
            self._insert_subscriber(request)
            return

        redirect = self._strongest_covering_child(request.filter)
        if redirect is not None:
            if self.tracer.enabled:
                self._span("route-covering", ("target", redirect.name))
            self.network.send(
                self, request.subscriber, JoinAt(redirect, request.subscription_id)
            )
            return

        if self.config.wildcard_routing and self._has_schema_wildcards(request):
            self._handle_wildcard_subscription(request)
            return

        self._redirect_to_random_child(request)

    def _strongest_covering_child(self, fsub: Filter) -> Optional["BrokerNode"]:
        """The broker child associated with the strongest stored filter
        covering ``fsub`` (None when no such entry exists)."""
        best_filter: Optional[Filter] = None
        best_child: Optional[BrokerNode] = None
        for stored in self.placement_index.covered_by(fsub):
            child = next(
                (
                    d
                    for d in self.table.destinations_for(stored)
                    if getattr(d, "is_broker", False)
                ),
                None,
            )
            if child is None:
                continue
            if best_filter is None or (
                best_filter.covers(stored) and not stored.covers(best_filter)
            ):
                best_filter = stored
                best_child = child
        return best_child

    def _has_schema_wildcards(self, request: SubscriptionRequest) -> bool:
        advertisement = self.advertisements.get(request.event_class)
        if advertisement is None:
            return False
        schema = set(advertisement.schema)
        return any(
            attribute in schema for attribute in wildcard_attributes(request.filter)
        )

    def _handle_wildcard_subscription(self, request: SubscriptionRequest) -> None:
        """HANDLE-WILDCARD-SUBS (§4.5).

        The most general wildcarded attribute determines the target stage
        ``j + 1``; deeper wildcards (on the most general attribute itself)
        can push the target above the root, in which case the subscription
        clamps to the root — the subscriber effectively wants everything
        the root sees for that class.
        """
        advertisement = self.advertisements.require(request.event_class)
        attribute = most_general_wildcard(request.filter, advertisement.schema)
        top_used = advertisement.association.top_stage_using(attribute)
        target_stage = top_used + 1
        clamped = self.parent is None and target_stage > self.stage
        if self.stage == target_stage or clamped:
            if self.tracer.enabled:
                self._span(
                    "wildcard-attach",
                    ("attribute", attribute),
                    ("target_stage", target_stage),
                )
            self._insert_subscriber(request)
        else:
            self._redirect_to_random_child(request)

    def _redirect_to_random_child(self, request: SubscriptionRequest) -> None:
        if not self.broker_children:
            # Malformed topology (an inner node without children): host the
            # subscriber rather than bounce the request forever.
            self._insert_subscriber(request)
            return
        child = self.rng.choice(self.broker_children)
        self.network.send(
            self, request.subscriber, JoinAt(child, request.subscription_id)
        )

    # ------------------------------------------------------------------
    # Filter insertion (INSERT-SUBSCRIBER / req-Insert)
    # ------------------------------------------------------------------

    def _insert_subscriber(self, request: SubscriptionRequest) -> None:
        association = self._association_for(request.event_class)
        stored = weaken_filter(request.filter, association, self.stage)
        newly_known = self._store(stored, request.subscriber, request.event_class)
        self.network.send(
            self,
            request.subscriber,
            AcceptedAt(self, request.subscription_id, stored),
        )
        if self.tracer.enabled:
            self._span(
                "subscriber-insert",
                ("subscriber", request.subscriber.name),
                ("filter", str(stored)),
            )
        self.uplink.announce(stored, request.event_class, first=newly_known)

    def _store(self, filter_: Filter, destination: Process, event_class: str) -> bool:
        """Insert one pair; True when the *filter* was not stored before."""
        newly_known = filter_ not in self.table
        self.table.insert(filter_, destination)
        if newly_known and self.placement_index is not None:
            self.placement_index.add(filter_)
        self.leases.touch(filter_, destination, self.sim.now)
        self._filter_class[filter_] = event_class
        self._table_changed()
        return newly_known

    def _refresh(self, items: Sequence[Tuple[Filter, str]], child: Process) -> None:
        """A ``req-Insert`` of one pair or a :class:`Renewal` of many:
        refresh-or-restore each."""
        for filter_, event_class in items:
            if self._store(filter_, child, event_class):
                self.uplink.announce(filter_, event_class)

    def _remove_pair(self, filter_: Filter, destination: Process) -> None:
        """Explicit removal of one stored pair: an ``Unsubscribe`` (of the
        stage-weakened filter the subscriber learned from accepted-At) or
        a child's ``Withdraw`` of a propagated form."""
        if self._drop_pair(filter_, destination):
            self._table_changed()

    def _drop_pair(self, filter_: Filter, destination: Process) -> bool:
        """Take one pair and its lease out; True when the table held it.

        The one place a filter can leave the table (explicit removal and
        lease expiry both come through here), hence the one place it
        leaves the placement index."""
        removed = self.table.remove(filter_, destination)
        self.leases.forget(filter_, destination)
        if removed and filter_ not in self.table:
            if self.placement_index is not None:
                self.placement_index.discard(filter_)
            self._filter_removed(filter_)
        return removed

    def _filter_removed(self, filter_: Filter) -> None:
        """``filter_`` no longer has any destination in the table."""
        event_class = self._filter_class.pop(filter_, None)
        if event_class is not None:
            self.uplink.retract(filter_, event_class)

    # ------------------------------------------------------------------
    # Reliable links and crash recovery
    # ------------------------------------------------------------------

    def _on_retransmit(self, peer: str, epoch: int, frames: tuple) -> None:
        self.counters.control_retransmits += len(frames)
        # Spans on the uplink only (extending them renumbers Span.seq).
        uplink = self.parent is not None and peer == self.parent.name
        if uplink and self.tracer.enabled:
            self._span("retransmit", *retransmit_details(peer, epoch, frames))

    @property
    def uplink_idle(self) -> bool:
        """True when every reliable frame this broker sent is acked
        (convergence probes: a quiesced control plane)."""
        return self.links.idle

    def _on_channel_reset(self, message: ChannelReset, sender: Process) -> None:
        """A neighbour restarted: drop its channel state, take the edge."""
        known = self._peer_incarnations.get(sender.name)
        if known is not None and known >= message.incarnation:
            return  # duplicate / stale reset
        self._peer_incarnations[sender.name] = message.incarnation
        # Abandon in-flight frames (the peer forgot the channel anyway)
        # and open a fresh epoch toward it.
        epoch = self.links.forget(sender)
        self._peer_restarted(sender)
        self._span(
            "channel-reset", ("peer", sender.name), ("incarnation", message.incarnation)
        )
        if sender is self.parent and epoch is not None:
            self._span("epoch-reset", ("peer", sender.name), ("epoch", epoch))

    def _peer_restarted(self, peer: Process) -> None:
        """The one restart edge: ``peer`` lost its state, learned from its
        ``ChannelReset`` or a higher control or data epoch.  Its replay
        ends, our link toward it comes back full with the events parked
        there shed (``flow.link``), and a parent is renewed at once."""
        if self._replayer is not None:
            self._replayer.on_peer_reset(peer.name)
        link = self._downlinks.get(peer.name)
        if link is not None:
            parked = link.reset()
            if parked:
                self._shed_publishes(parked, "peer-reset", peer=peer.name)
        self._maybe_resume_drain()
        if peer is self.parent:
            self.uplink.renew()

    def _lose_soft_state(self) -> None:
        """Fail-stop (``crash()``): lose all soft state, §4.3's failure
        model.

        Tables, leases, aggregation state, channel receivers, durable
        buffers, installed flows and queued events vanish.  What
        survives is listed once, with reasons, in DESIGN §8 —
        advertisements (a broker re-reads the rare, quasi-static
        advertisement configuration from durable storage on restart)
        and counters (measurement, not broker state) among them.
        """
        # The event log survives (it is what recovery replays against);
        # one with a directory survives as its files only, on every
        # runtime, and restart() reloads them (DESIGN §8).
        if self.log is not None and self.log_config.directory:
            self.log.close()
            self.log = None
        self._reset_soft_state()
        for part in (self.uplink, self._replayer, self.flow_host, self.links):
            if part is not None:
                part.reset()

    def _resume(self) -> None:
        """Back up (``restart()``): rebuild from the neighbours' renewals.

        Tree neighbours and the publishers it granted credits to get a
        :class:`ChannelReset`: broker children respond with an immediate
        full renewal, which rebuilds this node's table without waiting
        out a renewal period, and a publisher's window comes back full.
        Attached subscribers are unknown after the wipe — their periodic
        renewals restore their filters within one renewal interval.
        """
        if (
            self.log is None
            and self.log_config is not None
            and self.log_config.directory
        ):
            # Crash-recover the durable log from its segment files (its
            # only copy once crashed); reopen keeps the tail segment
            # appendable so this incarnation continues it.
            self.log = EventLog.load(
                self.name,
                self.log_config.directory,
                segment_size=self.log_config.segment_size,
                reopen=True,
            )
        reset = ChannelReset(self.incarnation)
        if self.parent is not None:
            self.network.send(self, self.parent, reset)
        for child in self.broker_children:
            self.network.send(self, child, reset)
        for peer in self.links.peers.values():
            if not getattr(peer, "is_broker", False):
                # A publisher holding a credited link into us (§10).
                self.network.send(self, peer, reset)
        if self.parent is not None and self.parent.parent is not None:
            # The recovery replay below rides a reliable channel straight
            # to the root (a non-tree neighbour when the tree is deeper
            # than two stages).  A true fail-stop loses that channel's
            # epoch counter with the process, so the root must be told to
            # forget its receiver state too — otherwise every frame of
            # the fresh incarnation's epoch-0 channel reads as stale and
            # the replay request retransmits into the void forever.
            self.network.send(self, self.root, reset)
        if self.log is not None and self.parent is not None:
            # Let the children's reset-triggered renewals rebuild the
            # routing table first, then ask the root to re-drive what
            # was missed while down.
            self.call_later(RECOVERY_DELAY, self._request_replay, self.incarnation)

    # ------------------------------------------------------------------
    # TTL maintenance (§4.3)
    # ------------------------------------------------------------------

    def _maintenance_tasks(self) -> Tuple[PeriodicTask, ...]:
        """EXTEND THE VALIDITY OF FILTERS (renew own filters at the
        parent) every half-TTL and REMOVE INVALID FILTERS every TTL; the
        ``Process`` base arms, re-arms and cancels both."""
        return (
            ("renew", self.ttl * RENEW_FRACTION, self.uplink.renew),
            ("purge", self.ttl, self._purge_task),
        )

    def _purge_task(self) -> None:
        """REMOVE INVALID FILTERS: drop pairs silent for 3xTTL."""
        # The purge mutates the table outside the message path: like a
        # control message, it lets an unmanaged broker serve its queued
        # events against the pre-purge state first.
        self._flush_inbound()
        for filter_, destination in self.leases.expired(self.sim.now):
            self._drop_pair(filter_, destination)
            if self.tracer.enabled:
                self._span(
                    "lease-expired",
                    ("destination", getattr(destination, "name", destination)),
                )
        for stale in [f for f in self._filter_class if f not in self.table]:
            self._filter_removed(stale)
        # Offline/buffer state for destinations that no longer hold any
        # lease here is garbage (the durable window closed with the lease).
        live_names = {destination.name for _, destination in self.leases.pairs()}
        for destination_name in list(self._offline):
            if destination_name not in live_names:
                del self._offline[destination_name]
                self._buffers.pop(destination_name, None)
        # Flow leases decay on the same clock as filter leases: a flow
        # whose registrar fell silent (crashed, removed, partitioned past
        # the expiry window) is dropped with its pending state.
        self.flow_host.expire(self.sim.now - self.ttl * self.expiry_factor)
        self._table_changed()

    def flows(self) -> Tuple[str, ...]:
        """Names of the currently installed flows (introspection)."""
        return tuple(self.flow_host.flows)

    # ------------------------------------------------------------------
    # Durable subscriptions (§2.1)
    # ------------------------------------------------------------------

    def _on_disconnect(self, message: Disconnect, sender: Process) -> None:
        self._offline[sender.name] = (sender, message.durable)
        if message.durable and sender.name not in self._buffers:
            self._buffers[sender.name] = BoundedQueue(
                self.offline_buffer_limit, "drop_oldest"
            )
        if self.tracer.enabled:
            self._span(
                "disconnect", ("subscriber", sender.name), ("durable", message.durable)
            )

    def _on_reconnect(self, sender: Process) -> None:
        self._offline.pop(sender.name, None)
        buffered = self._buffers.pop(sender.name, ())
        for publish in buffered:
            self.network.send(self, sender, publish)
        if self.tracer.enabled:
            self._span(
                "reconnect", ("subscriber", sender.name), ("replayed", len(buffered))
            )

    def _buffer_durable(self, destination: Process, message: Publish) -> None:
        """Buffer one event for an offline durable subscriber, shedding
        the oldest buffered event (observably — counter + span) when the
        buffer is full."""
        _, shed = self._buffers[destination.name].offer(message)
        for dropped in shed:
            self.counters.on_shed("offline-buffer")
            drops = self.counters.offline_drops
            drops[destination.name] = drops.get(destination.name, 0) + 1
            self._shed_span(dropped, "offline-buffer", destination.name)

    # ------------------------------------------------------------------
    # Table compaction (covering merges, §4)
    # ------------------------------------------------------------------

    def _table_changed(self) -> None:
        self._compacted_dirty = True
        if not self.config.compact:
            self.counters.set_filters_held(len(self.table))

    def _match_engine(self) -> MatchEngine:
        """The engine events are matched against.

        Without compaction this is the authoritative table.  With
        compaction, filters sharing an identical destination set are
        merged into covering filters (Example 5's g1 over f1/f2): fewer,
        weaker filters — sound because every original is covered, and
        exact again one stage below.  Leases and upward propagation keep
        using the authoritative table.
        """
        if not self.config.compact:
            return self.table
        if self._compacted_dirty or self._compacted is None:
            # A rebuild discards the previous compacted engine together
            # with its memoized decisions: account the flush.
            if self._compacted is not None and self._compacted.cached_decisions():
                self.counters.cache.invalidations += 1
            groups: Dict[Tuple[int, ...], Tuple[List[Filter], Tuple]] = {}
            for filter_, ids in self.table.entries():
                key = tuple(sorted(id(destination) for destination in ids))
                group = groups.setdefault(key, ([], ids))
                group[0].append(filter_)
            compacted = self._new_engine()
            for filters, ids in groups.values():
                for merged in merge_covering(filters):
                    for destination in ids:
                        compacted.insert(merged, destination)
            self._compacted = compacted
            self._compacted_dirty = False
            self.counters.set_filters_held(len(compacted))
        return self._compacted

    # ------------------------------------------------------------------
    # Event filtering and forwarding (Figure 6, batched)
    # ------------------------------------------------------------------

    def _admit(self, publishes: Sequence[Publish], sender: Process, epoch: int) -> None:
        """The one entry for event traffic: queue a run of arrivals that
        came on ``sender``'s link at ``epoch`` (0 off a credited link).

        They wait in the inbound queue — bounded, and shedding, only
        under flow control — for a drain wakeup at the end of the
        current instant, so same-instant arrivals are served as one run
        in arrival order.
        """
        now = self.sim.now
        capacity = None
        # Overload shedding: the queue-depth EWMA detector (fed by the
        # sampler tick) shrinks the effective inbound capacity while
        # OVERLOADED, turning sustained saturation into bounded-latency
        # shedding instead of unbounded queueing.
        if (
            self.overload_detector is not None
            and self.overload_detector.overloaded
        ):
            capacity = max(1, int(self.flow.queue_capacity * OVERLOAD_CAPACITY_FACTOR))
        shed_entries: List[Entry] = []
        for publish in publishes:
            _, shed = self._inbound.offer((publish, sender, now, epoch), capacity)
            shed_entries.extend(shed)
        if shed_entries:
            self._shed_entries(shed_entries, "queue-overflow")
        self._schedule_drain()

    def _schedule_drain(self) -> None:
        if self._drain_handle is not None or self._drain_paused or not self._inbound:
            return
        # ``_busy_until`` only ever moves on a finite-speed broker;
        # otherwise this is the end of the current instant.
        self._drain_handle = self.call_at(
            max(self.sim.now, self._busy_until), self._drain
        )

    def _drain(self) -> None:
        """The service loop: one wakeup serves one run.

        An infinitely fast broker serves the whole queue; with
        ``service_rate`` set it serves ``service_batch`` events and is
        busy for their service time.  A credit-starved downlink pauses
        the loop until grants arrive (head-of-line backpressure).
        """
        self._drain_handle = None
        if self._pause_if_blocked():
            return
        if not self._inbound:
            return  # flushed since this wakeup was armed
        count = len(self._inbound)
        rate = self.config.service_rate
        if rate is not None:
            count = min(self.config.service_batch, count)
        entries = self._serve(count)
        if rate is not None:
            self._busy_until = self.sim.now + count / rate
        if self.flow is not None:
            self._grant_for_entries(entries)
        if self._pause_if_blocked():
            return
        self._schedule_drain()

    def _serve(self, count: int) -> List[Entry]:
        """Take the ``count`` oldest queued events through matching and
        forwarding; returns their queue entries."""
        entries = [self._inbound.popleft() for _ in range(count)]
        metas = None
        if self.tracer.enabled:
            metas = tuple((entry[1].name, entry[2]) for entry in entries)
        self._process_batch(tuple(entry[0] for entry in entries), metas)
        return entries

    def _flush_inbound(self) -> None:
        """Flush-before-control, the first of the two policies: serve
        everything queued *now*, ahead of a table mutation, so the run
        sees exactly the tables it would have seen unbatched.  Only an
        unmanaged broker does: a finite-speed or credit-paced one cannot
        catch up instantly.  The drain wakeup already armed is left to
        fire on the emptied queue.
        """
        if self.config.managed or not self._inbound:
            return
        self._serve(len(self._inbound))

    def _process_batch(
        self,
        batch: Sequence[Publish],
        metas: Optional[Sequence[Tuple[str, float]]] = None,
    ) -> None:
        """Match and forward a run of events in one wakeup.

        Events bound for the same destination coalesce into a single
        :class:`PublishBatch` send (one scheduling round downstream);
        per-destination event order is the batch order, i.e. exactly the
        unbatched delivery order.  ``metas`` carries per-event ``(sender
        name, arrival time)`` exactly when tracing is on: each becomes
        one ``hop`` span.
        """
        self.counters.on_batch(len(batch))
        if self.log is not None:
            batch = self._log_batch(batch)
            if self._replayer is not None and self._replayer.has_catch_up:
                self._replayer.tap_batch(batch)
        engine = self._match_engine()
        # One engine call per served run, whatever the engine, the run
        # length or the tracer; the run's deltas are the only work
        # accounting (DESIGN §12) and a hop span is a view over the
        # result.
        probes_before = engine.evaluations
        rebuilds_before = engine.rebuilds
        residual_before = engine.residual_evaluations
        all_matches = engine.match_batch(
            tuple(message.envelope.metadata for message in batch)
        )
        self.counters.filter_evaluations += engine.evaluations - probes_before
        self.counters.compile_rebuilds += engine.rebuilds - rebuilds_before
        self.counters.residual_evaluations += (
            engine.residual_evaluations - residual_before
        )
        runs: Dict[int, List[Publish]] = {}
        run_order: List[Process] = []
        offline = self._offline
        for position, (message, matches) in enumerate(zip(batch, all_matches)):
            if len(matches) == 1:
                # One filter's ids are distinct already.
                destinations: Sequence[Process] = matches[0][1]
            else:
                destinations = []
                seen = set()
                for _, ids in matches:
                    for destination in ids:
                        if id(destination) not in seen:
                            seen.add(id(destination))
                            destinations.append(destination)
            self.counters.on_event(bool(matches), forwarded_to=len(destinations))
            if metas is not None:
                src, arrived = metas[position]
                self._span(
                    "hop",
                    ("src", src),
                    ("matched", bool(matches)),
                    ("fanout", len(destinations)),
                    ("defer", self.sim.now - arrived),
                    trace_id=message.envelope.event_id,
                )
            for destination in destinations:
                if offline and destination.name in offline:
                    if offline[destination.name][1]:  # durable
                        self._buffer_durable(destination, message)
                    continue
                run = runs.get(id(destination))
                if run is None:
                    run = runs[id(destination)] = []
                    run_order.append(destination)
                run.append(message)
        for destination in run_order:
            self._send_run(destination, runs[id(destination)])
        # Information flows tap the batch *after* the raw path has fully
        # forwarded it: subscribers not behind a flow see byte-identical
        # schedules whether or not any flow is installed here.
        if self.flow_host.flows:
            self.flow_host.feed(batch)

    def _send_run(self, destination: Process, run: Sequence[Publish]) -> None:
        """The one exit for event traffic: put a run on the wire.

        Controlled downlinks, the second of the two policies: only when
        ``flow`` is set and the peer is a broker is the link a credited
        one (``flow.link``).  There each event spends one credit, and
        credit-starved events wait in the bounded outbound queue behind
        whatever already waits.
        """
        if self.flow is None or not getattr(destination, "is_broker", False):
            if len(run) == 1:
                self.network.send(self, destination, run[0])
            else:
                self.network.send(self, destination, PublishBatch(tuple(run)))
            return
        frame, shed, stalled = self.link_to(destination).offer(run)
        self.counters.credit_stalls += stalled
        if shed:
            self._shed_publishes(shed, "outbound-overflow", peer=destination.name)
        if frame is not None:
            self.network.send(self, destination, frame)

    # ------------------------------------------------------------------
    # Durable event log, replay, and crash recovery (see repro.log)
    # ------------------------------------------------------------------

    def _log_batch(self, batch: Sequence[Publish]) -> Sequence[Publish]:
        """Append a run to the event log (idempotent per event id).

        At the root, each first-seen event gets its log offset stamped
        into the forwarded :class:`Publish`, so the same root offset
        travels unchanged to every downstream log (``source_offset``) —
        the coordinate system recovery replay is phrased in.
        """
        log = self.log
        stamped: List[Publish] = []
        changed = False
        for message in batch:
            before = log.next_offset
            record = log.append(message, self.sim.now)
            if log.next_offset != before:
                self.counters.events_logged += 1
            if self.parent is None and message.offset is None:
                message = message.stamped(record.offset)
                changed = True
            stamped.append(message)
        return tuple(stamped) if changed else batch

    def _ensure_replayer(self):
        """Built on the first request for history; ``None`` without a log."""
        if self._replayer is None and self.log is not None:
            from repro.log.replay import Replayer

            self._replayer = Replayer(self)
        return self._replayer

    def _on_replay_batch(self, message: ReplayBatch, sender: Process) -> None:
        """Recovery replay arriving at a restarted broker: drop what the
        surviving log already has, process the rest normally (matched,
        logged, forwarded — the missed-while-down events reach this
        subtree's subscribers through the regular path)."""
        fresh: List[Publish] = []
        dropped = 0
        for publish in message.publishes:
            eid = publish.envelope.event_id
            if self.log is not None and eid is not None and self.log.seen(eid):
                dropped += 1
                continue
            fresh.append(publish)
        if dropped:
            self.counters.replay_dupes_discarded += dropped
            if self.flow is not None:
                # The sender spent window credits on the dropped events;
                # they will never be processed, so return their credits
                # here (processing grants back only for accepted ones).
                self._grant_credits(sender, message.epoch, dropped)
        if fresh:
            self._admit(tuple(fresh), sender, message.epoch)

    def _request_replay(self, incarnation: int) -> None:
        """Ask the root to re-drive events missed while down (scheduled
        ``RECOVERY_DELAY`` after restart, once renewals rebuilt the
        table the replay is matched against)."""
        if self.crashed or incarnation != self.incarnation or self.log is None:
            return
        root = self.root
        if root is self:
            return
        from_offset = -1
        if self.log.max_source_offset is not None:
            from_offset = max(
                -1, self.log.max_source_offset - self.log_config.recovery_rewind
            )
        self._span("replay-request", ("root", root.name), ("from_offset", from_offset))
        self.links.send(root, ReplayRequest(self, from_offset))

    # ------------------------------------------------------------------
    # Flow control, backpressure, and overload protection: with ``flow``
    # set, the credited links (repro.flow.link) upstream and downstream
    # and overload shedding in ``_admit`` bound every queue in the system.
    # ------------------------------------------------------------------

    def _on_data_frame(self, frame: DataFrame, sender: Process) -> None:
        """Admit a data frame under the link's incarnation rule (a higher
        epoch is the sender's restart; a dead one's frame is dropped),
        granting back first any gap the receiving end finds before it."""
        missing = self._receiver.on_frame(
            sender.name, frame, lambda: self._peer_restarted(sender)
        )
        if missing is None:
            return
        if missing:
            self.counters.credit_gap_grants += missing
            self._span("credit-gap", ("peer", sender.name), ("missing", missing))
            self._grant_credits(sender, frame.epoch, missing)
        self._admit(frame.publishes, sender, frame.epoch)

    def queue_depth(self) -> int:
        """Events queued at this broker (inbound + outbound) — the
        public accessor the sampler and overload detector observe."""
        return len(self._inbound) + sum(
            len(link.queue) for link in self._downlinks.values()
        )

    def _shed_priority(self, publish: Publish) -> float:
        """Selectivity estimate for ``priority_by_selectivity`` shedding:
        the uplink's estimate of how many stored subscriptions the event
        is likely to reach.  Higher reach = kept longer."""
        return self.uplink.reach(publish.envelope.metadata)

    def _pause_if_blocked(self) -> bool:
        """Head-of-line backpressure: the whole drain stays paused while
        any downlink holds parked events — a slow stage-2 broker stalls
        its parent, the parent's inbound fills, its grants dry up, and
        the stall propagates hop-by-hop to the publishers."""
        self._drain_paused = any(link.blocked for link in self._downlinks.values())
        return self._drain_paused

    def _maybe_resume_drain(self) -> None:
        if self._drain_paused and not self._pause_if_blocked():
            self._schedule_drain()

    # -- upstream credit grants ----------------------------------------

    def _grant_for_entries(self, entries: Sequence[Entry]) -> None:
        """Grant one credit per drained entry back to its source, for the
        epoch it came under (grouped in first-seen order: grant emission
        is deterministic)."""
        owed: Dict[Tuple[Process, int], int] = {}
        for _, source, _, epoch in entries:
            owed[source, epoch] = owed.get((source, epoch), 0) + 1
        for (source, epoch), count in owed.items():
            self._grant_credits(source, epoch, count)

    def _grant_credits(self, source: Process, epoch: int, count: int) -> None:
        self.counters.credits_granted += count
        self._span("credit-grant", ("peer", source.name), ("credits", count))
        self.links.send(source, CreditGrant(epoch, count))

    # -- downstream credit spending ------------------------------------

    def link_to(self, peer: Process) -> Optional[LinkSender]:
        """The credited link toward ``peer``, opened on first use
        (``None`` without flow control: no link is ever built)."""
        if self.flow is None:
            return None
        link = self._downlinks.get(peer.name)
        if link is None:
            link = self._downlinks[peer.name] = LinkSender(
                self.flow, self.flow.outbound_capacity, self._shed_priority
            )
            # Above every epoch an earlier incarnation's links used.
            link.epoch = self.incarnation << 32
        return link

    def _on_credit_grant(self, message: CreditGrant, sender: Process) -> None:
        link = self._downlinks.get(sender.name)
        if link is None:
            return  # stale grant for a link we no longer track
        frame = link.granted(message.epoch, message.credits)
        if frame is not None:
            self.network.send(self, sender, frame)
        self._maybe_resume_drain()
        if self._replayer is not None:
            # A replay stalled on this window can resume immediately.
            self._replayer.kick()

    # -- shedding accounting -------------------------------------------

    def _shed_entries(self, entries: Sequence[Entry], reason: str) -> None:
        """Shed inbound entries: count, trace, and grant their credits
        back (the source paid one per entry; the slot is free again, and
        withholding the grant would leak the window shut)."""
        self.counters.on_shed(reason, len(entries))
        for publish, source, _, _ in entries:
            self._shed_span(publish, reason, source.name)
        self._grant_for_entries(entries)

    def _shed_publishes(
        self, publishes: Sequence[Publish], reason: str, peer: str
    ) -> None:
        """Shed outbound events (no downstream credit was spent on them)."""
        self.counters.on_shed(reason, len(publishes))
        for publish in publishes:
            self._shed_span(publish, reason, peer)

    def _shed_span(self, publish: Publish, reason: str, peer: str) -> None:
        if self.tracer.enabled:
            trace_id = publish.envelope.event_id
            self._span("shed", ("reason", reason), ("peer", peer), trace_id=trace_id)

    def _on_overload_transition(self, state: str, now: float, ewma: float) -> None:
        self.counters.overload_transitions += 1
        # ``now`` is the sampler's tick, the instant ``_span`` stamps.
        self._span("overload", ("state", state), ("ewma", f"{ewma:.2f}"))

    def __repr__(self) -> str:
        return f"BrokerNode({self.name}, stage={self.stage}, filters={len(self.table)})"

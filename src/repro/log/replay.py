"""Root-side replay: catch-up subscribers and broker crash recovery.

The :class:`Replayer` lives at the root broker (the only node whose log
is the complete publish history) and re-injects logged events into the
overlay for two consumers:

**Catch-up subscribers** (:class:`~repro.overlay.messages.CatchUpRequest`).
A subscriber that joined late asks for history from a log offset or
timestamp.  The session snapshots a *fence* (the log's next offset at
request time) and then runs two streams over one reliable channel:

- *history*: records in ``[origin, fence)`` matching the subscription,
  pumped at the configured replay rate and, with flow control on,
  spending per-event credits the subscriber grants back as it consumes —
  PR 5's credit windows bound the replay exactly like live traffic;
- *live taps*: every matching event the root processes while the session
  is open is forwarded immediately (``history=False``).

Events at offsets ``< fence`` arrive via history, ``>= fence`` via taps:
no gap.  The overlap a wire duplicate can cause — and the handover
overlap below — is closed by the subscriber's per-session dedup.  Once
history is drained (``CatchUpDone``) the replayer polls the overlay's
routing tables along the subscriber's home path; when the normal path
covers the subscription end-to-end it announces ``CatchUpLive`` and
stops tapping.  Between the path going live and the announcement an
event can arrive twice (tap + home); the dedup makes the switchover
seamless — no gap, no duplicate delivered.

**Recovering brokers** (:class:`~repro.overlay.messages.ReplayRequest`).
A restarted broker replays from just before its last acked root offset.
The replayer re-drives the records the broker's subtree would have been
routed (matched against the live table entries toward that subtree) as
``ReplayBatch`` frames; the recovering broker deduplicates against its
own surviving log and feeds the remainder through normal processing.
"""

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.weakening import weaken_filter
from repro.log.eventlog import parse_point
from repro.overlay.messages import (
    CatchUpBatch,
    CatchUpDone,
    CatchUpLive,
    CatchUpRequest,
    Publish,
    ReplayBatch,
    ReplayRequest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.overlay.node import BrokerNode


class _Session:
    """History being pumped toward ``peer``: cursor walks
    ``[origin, fence)``."""

    __slots__ = ("peer", "cursor", "fence", "replayed")

    #: The ``mode`` of this kind of session's ``replay`` spans.
    mode: str

    def __init__(self, peer, cursor: int, fence: int) -> None:
        self.peer = peer
        self.cursor = cursor
        self.fence = fence
        self.replayed = 0


class _CatchUpSession(_Session):
    """One subscriber catching up; ``renewed``: when it last asked."""

    __slots__ = (
        "subscription_id", "home", "filter", "event_class", "taps", "done_sent", "renewed"
    )  # fmt: skip
    mode = "history"

    def __init__(self, request: CatchUpRequest, cursor: int, fence: int, now: float) -> None:
        super().__init__(request.subscriber, cursor, fence)
        self.renewed = now
        self.subscription_id = request.subscription_id
        self.home = request.home
        self.filter = request.filter
        self.event_class = request.event_class
        self.taps = 0
        self.done_sent = False


class _RecoverySession(_Session):
    """One restarted broker being re-driven."""

    __slots__ = ("gate",)
    mode = "recovery"

    def __init__(self, requester, gate, cursor: int, fence: int) -> None:
        super().__init__(requester, cursor, fence)
        #: The root child whose subtree contains the requester — records
        #: are replayed iff the live table routes them toward this gate.
        self.gate = gate


class Replayer:
    """Pumps log history into the overlay at a bounded rate (see module
    docstring).  Owned lazily by the root broker; all session state is
    soft (a root crash drops it — requesters re-request)."""

    def __init__(self, node: "BrokerNode") -> None:
        if node.log is None or node.log_config is None:
            raise ValueError(f"{node.name} has no event log to replay from")
        self.node = node
        self.config = node.log_config
        #: Catch-up sessions keyed by (subscriber name, subscription id).
        self._catchup: Dict[Tuple[str, int], _CatchUpSession] = {}
        #: Recovery sessions keyed by requester name.
        self._recovery: Dict[str, _RecoverySession] = {}
        self._tick_handle = None

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._catchup) or bool(self._recovery)

    @property
    def has_catch_up(self) -> bool:
        return bool(self._catchup)

    def start_catch_up(self, request: CatchUpRequest) -> None:
        """Open a session, or renew the open one (asked again each
        renewal period until live)."""
        open_ = self._catchup.get((request.subscriber.name, request.subscription_id))
        if open_ is not None:
            open_.renewed = self.node.sim.now
            return
        log = self.node.log
        if request.from_offset is not None:
            origin = request.from_offset
        elif request.from_time is not None:
            origin = log.offset_for_time(parse_point(request.from_time))
        else:
            origin = log.start_offset
        cursor = max(origin, log.start_offset)
        session = _CatchUpSession(request, cursor, log.next_offset, self.node.sim.now)
        self._catchup[(request.subscriber.name, request.subscription_id)] = session
        # Open the subscriber's credited link now (under flow control)
        # so its grants are never "stale" at the root.
        self.node.link_to(request.subscriber)
        self._session_span(
            "catch-up-start",
            peer=request.subscriber.name,
            sid=request.subscription_id,
            cursor=cursor,
            fence=session.fence,
        )
        self._ensure_tick()

    def start_recovery(self, request: ReplayRequest) -> None:
        log = self.node.log
        gate = self._gate_for(request.child)
        if gate is None:
            return  # requester is not in this root's tree
        cursor = max(request.from_offset + 1, log.start_offset)
        session = _RecoverySession(request.child, gate, cursor, log.next_offset)
        self._recovery[request.child.name] = session
        self._session_span(
            "recovery-start",
            peer=request.child.name,
            cursor=cursor,
            fence=session.fence,
        )
        self._ensure_tick()

    def _gate_for(self, requester) -> Optional[object]:
        """The child of this root whose subtree holds ``requester``
        (``BrokerNode.root`` walked from the other end: the requester
        may be a remote stand-in that only knows its ``parent``)."""
        node = requester
        while node is not None and node.parent is not self.node:
            node = node.parent
        return node

    def expire(self, before: float) -> None:
        """Drop the catch-up sessions nobody asked for since ``before``."""
        for key in [k for k, s in self._catchup.items() if s.renewed < before]:
            del self._catchup[key]

    def on_peer_reset(self, peer_name: str) -> None:
        """A neighbour announced a new incarnation: its in-flight replay
        died with the old one (it will re-request if it still cares)."""
        self._recovery.pop(peer_name, None)
        for key in [k for k in self._catchup if k[0] == peer_name]:
            del self._catchup[key]

    def reset(self) -> None:
        """Root crash: all session state is soft and vanishes."""
        self._catchup.clear()
        self._recovery.clear()
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    # ------------------------------------------------------------------
    # Live taps
    # ------------------------------------------------------------------

    def tap_batch(self, batch) -> None:
        """Forward matching just-processed events into every open
        catch-up session (called by the root per processed batch)."""
        for session in list(self._catchup.values()):
            run: List[Publish] = []
            for message in batch:
                if self._session_matches(session, message.envelope):
                    run.append(message)
            if not run:
                continue
            session.taps += len(run)
            self.node.counters.catchup_taps += len(run)
            if self.node.tracer.enabled:
                for message in run:
                    self._replay_span(message, "tap", session.peer.name)
            self.node.links.send(
                session.peer,
                CatchUpBatch(session.subscription_id, tuple(run), history=False),
            )

    def _session_matches(self, session: _CatchUpSession, envelope) -> bool:
        if (
            session.event_class is not None
            and envelope.event_class is not None
            and envelope.event_class != session.event_class
        ):
            return False
        return session.filter.matches(envelope.metadata)

    # ------------------------------------------------------------------
    # The pump
    # ------------------------------------------------------------------

    def kick(self) -> None:
        """Credits arrived (or state changed): pump again promptly."""
        if self._tick_handle is None and self.active:
            self._tick_handle = self.node.call_soon(self._tick)

    def _ensure_tick(self) -> None:
        if self._tick_handle is None and self.active:
            self._tick_handle = self.node.call_later(
                self._interval(), self._tick
            )

    def _interval(self) -> float:
        return self.config.replay_batch / self.config.replay_rate

    def _tick(self) -> None:
        self._tick_handle = None
        for session in list(self._recovery.values()):
            self._pump_recovery(session)
        for session in list(self._catchup.values()):
            self._pump_catch_up(session)
        self._check_switchovers()
        self._ensure_tick()

    def _pump(self, session: _Session, wanted, wrap) -> None:
        """Send the next ``replay_batch`` records of the session that
        ``wanted(envelope)`` accepts, as one ``wrap(publishes, epoch=)`` on
        the reliable link — under flow control one credit each from the
        credited link toward the peer, stopping where they run out (the
        peer's grants, which echo the epoch, ``kick`` the pump again)."""
        log = self.node.log
        link = self.node.link_to(session.peer)
        budget = self.config.replay_batch
        run: List[Publish] = []
        while budget > 0 and session.cursor < session.fence:
            if session.cursor < log.start_offset:
                session.cursor = log.start_offset
                continue
            record = log.record_at(session.cursor)
            if record is None or not wanted(record.envelope):
                session.cursor += 1
                continue
            if link is not None and not link.take():
                self.node.counters.credit_stalls += 1
                break
            session.cursor += 1
            budget -= 1
            run.append(Publish(record.envelope, record.offset))
        if run:
            session.replayed += len(run)
            self.node.counters.replay_events_sent += len(run)
            if self.node.tracer.enabled:
                for message in run:
                    self._replay_span(message, session.mode, session.peer.name)
            epoch = link.epoch if link is not None else 0
            self.node.links.send(session.peer, wrap(tuple(run), epoch=epoch))

    def _pump_catch_up(self, session: _CatchUpSession) -> None:
        if session.cursor < session.fence:
            self._pump(
                session,
                lambda envelope: self._session_matches(session, envelope),
                partial(CatchUpBatch, session.subscription_id),
            )
        if session.cursor >= session.fence:
            self._finish_history(session)

    def _finish_history(self, session: _CatchUpSession) -> None:
        if session.done_sent:
            return
        session.done_sent = True
        self._session_span(
            "catch-up-done",
            peer=session.peer.name,
            sid=session.subscription_id,
            replayed=session.replayed,
        )
        self.node.links.send(
            session.peer, CatchUpDone(session.subscription_id, session.replayed)
        )

    def _check_switchovers(self) -> None:
        for key, session in list(self._catchup.items()):
            if not session.done_sent or not self._path_live(session):
                continue
            del self._catchup[key]
            self._session_span(
                "catch-up-live",
                peer=session.peer.name,
                sid=session.subscription_id,
                replayed=session.replayed,
                taps=session.taps,
            )
            self.node.links.send(session.peer, CatchUpLive(session.subscription_id))

    def _path_live(self, session: _CatchUpSession) -> bool:
        """True when the normal overlay path covers the subscription at
        every hop from the root down to the subscriber — at that point
        live delivery needs no tap and the session can hand over."""
        root = self.node
        home = session.home
        advertisement = root.advertisements.get(session.event_class)
        if advertisement is None or home is None:
            return False
        association = advertisement.association
        node = home
        if getattr(node, "crashed", False):
            return False
        # The home must route the subscription to the subscriber itself.
        form = weaken_filter(session.filter, association, node.stage)
        if not self._routes(node, form, session.peer):
            return False
        # Every broker above must route its stage's weakening downward.
        while node is not root:
            parent = node.parent
            if parent is None or parent.crashed:
                return False
            form = weaken_filter(session.filter, association, parent.stage)
            if not self._routes(parent, form, node):
                return False
            node = parent
        return True

    @staticmethod
    def _routes(node, form, destination) -> bool:
        for stored, ids in node.table.entries():
            if any(d is destination for d in ids) and stored.covers(form):
                return True
        return False

    def _pump_recovery(self, session: _RecoverySession) -> None:
        routed = [
            stored
            for stored, ids in self.node.table.entries()
            if any(d is session.gate for d in ids)
        ]
        self._pump(
            session,
            lambda envelope: any(s.matches(envelope.metadata) for s in routed),
            ReplayBatch,
        )
        if session.cursor >= session.fence:
            del self._recovery[session.peer.name]
            self._session_span(
                "recovery-done", peer=session.peer.name, replayed=session.replayed
            )

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def _replay_span(self, message: Publish, mode: str, peer: str) -> None:
        # Replay spans share the original (publisher, seq) trace id, so
        # reconstruct_paths stitches a replayed delivery onto the
        # event's original publish/hop history.
        self._session_span(
            "replay",
            message.envelope.event_id,
            peer=peer,
            mode=mode,
            offset=message.offset,
        )

    def _session_span(
        self, kind: str, trace_id: Optional[Tuple] = None, **details
    ) -> None:
        node = self.node
        node.tracer.span(
            node.sim.now, kind, node.name, node.stage, trace_id, tuple(details.items())
        )

    def __repr__(self) -> str:
        return (
            f"Replayer({self.node.name}, catchup={len(self._catchup)}, "
            f"recovery={len(self._recovery)})"
        )

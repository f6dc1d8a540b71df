"""Stage 0 as it stood before the one ``_deliver``, kept as the oracle.

These are ``SubscriberRuntime._on_publish`` (live copies from a home
node) and ``SubscriberRuntime._deliver_catch_up`` (history and tap
copies on a catch-up session's stream) exactly as they were when they
were two loops, hung on a subclass whose ``_deliver`` only picks the
loop.  ``test_stage0_differential.py`` requires the production runtime
to make the same handler calls in the same order, book the same
counters and emit the same spans on every generated input.
"""

from typing import Optional, Sequence

from repro.events.serialization import Envelope, unmarshal
from repro.filters.engine import MatchEngine
from repro.obs.tracing import SUBSCRIBER_STAGE
from repro.overlay.subscriber import (
    SubscriberRuntime,
    _CatchUpSession,
    _SubscriptionState,
)
from repro.sim.kernel import Process


class ReferenceSubscriberRuntime(SubscriberRuntime):
    def _deliver(
        self,
        envelope: Envelope,
        sender: Process,
        states: Sequence[_SubscriptionState],
        engine: Optional[MatchEngine] = None,
        session: Optional[_CatchUpSession] = None,
        history: Optional[bool] = None,
    ) -> None:
        if session is None:
            self._on_publish(envelope, sender)
        else:
            state = self._states.get(session.subscription_id)
            self._deliver_catch_up(session, state, envelope, sender, history)

    def _deliver_catch_up(
        self,
        session: _CatchUpSession,
        state: Optional[_SubscriptionState],
        envelope: Envelope,
        sender: Process,
        history: bool,
    ) -> None:
        """Deliver one replayed (or tapped) event with session dedup.

        Stage-0 semantics are identical to live delivery — exact filter,
        disjunction-group dedup, residual closure, unmarshal-once —
        except that replayed events never enter the delivery-latency
        series (a historical event's publish-to-now span measures the
        subscriber's lateness, not the system's delivery latency).
        """
        matched = (
            state is not None
            and state.active
            and state.subscription.filter.matches(envelope.metadata)
        )
        self.counters.bytes_received += len(envelope)
        self.counters.on_event(matched=matched, forwarded_to=0, evaluations=1)
        tracing = self.tracer.enabled
        delivered_before = self.counters.events_delivered if tracing else 0
        if matched:
            if envelope.event_id is not None and not session.remember(
                envelope.event_id
            ):
                session.dupes += 1
                self.counters.replay_dupes_discarded += 1
            else:
                subscription = state.subscription
                event = unmarshal(envelope)
                deliver = True
                if subscription.group is not None and envelope.event_id is not None:
                    key = (subscription.group, envelope.event_id)
                    if key in self._delivered_groups:
                        deliver = False
                    else:
                        self._delivered_groups[key] = None
                        if len(self._delivered_groups) > self._delivered_groups_limit:
                            self._delivered_groups.popitem(last=False)
                closure = subscription.closure
                if deliver and closure is not None and closure.residual is not None:
                    if not closure.residual(event):
                        deliver = False
                if deliver:
                    if history:
                        session.history_delivered += 1
                    else:
                        session.tap_delivered += 1
                    self.counters.events_delivered += 1
                    self.counters.catchup_delivered += 1
                    if state.handler is not None:
                        state.handler(event, envelope.metadata, subscription)
        if tracing:
            self.tracer.span(
                self.sim.now,
                "deliver",
                self.name,
                SUBSCRIBER_STAGE,
                trace_id=envelope.event_id,
                details=(
                    ("src", sender.name),
                    ("matched", matched),
                    (
                        "delivered",
                        self.counters.events_delivered - delivered_before,
                    ),
                    ("latency", None),
                    ("replay", "history" if history else "tap"),
                ),
            )

    def _on_publish(self, envelope: Envelope, sender: Process) -> None:
        # Subscriptions homed at different nodes each receive their own
        # copy stream; a copy from node N serves exactly the subscriptions
        # homed at N.  This keeps per-subscription delivery exactly-once
        # even when one subscriber attaches at several points of the tree.
        self.counters.bytes_received += len(envelope)
        # Regrouped from ``_states`` per envelope, as ``_grouped()`` once
        # did per change: the oracle shares no bookkeeping with the
        # incrementally kept ``_by_home`` it checks.
        states = [
            state
            for state in self._states.values()
            if state.active and state.home is sender
        ]
        matched_states = []
        for state in states:
            if state.subscription.filter.matches(envelope.metadata):
                matched_states.append(state)
        self.counters.on_event(
            matched=bool(matched_states),
            forwarded_to=0,
            evaluations=len(states),
        )
        tracing = self.tracer.enabled
        delivered_before = self.counters.events_delivered if tracing else 0
        if matched_states:
            if envelope.published_at is not None:
                self.delivery_latencies.append(self.sim.now - envelope.published_at)
            # Event safety: the payload is opened exactly once, at the edge.
            event = unmarshal(envelope)
            for state in matched_states:
                subscription = state.subscription
                session = self._catch_up.get(subscription.subscription_id)
                if session is not None and envelope.event_id is not None:
                    # Around the catch-up handover the same event can
                    # also arrive via the replay stream; first copy in
                    # wins, later ones are discarded (exactly-once).
                    if not session.remember(envelope.event_id):
                        session.dupes += 1
                        self.counters.replay_dupes_discarded += 1
                        continue
                if subscription.group is not None and envelope.event_id is not None:
                    key = (subscription.group, envelope.event_id)
                    if key in self._delivered_groups:
                        continue  # another branch already delivered this event
                    self._delivered_groups[key] = None
                    if len(self._delivered_groups) > self._delivered_groups_limit:
                        self._delivered_groups.popitem(last=False)
                closure = subscription.closure
                if closure is not None and closure.residual is not None:
                    if not closure.residual(event):
                        continue
                self.counters.events_delivered += 1
                if state.handler is not None:
                    state.handler(event, envelope.metadata, subscription)
        if tracing:
            latency = (
                self.sim.now - envelope.published_at
                if envelope.published_at is not None
                else None
            )
            self.tracer.span(
                self.sim.now,
                "deliver",
                self.name,
                SUBSCRIBER_STAGE,
                trace_id=envelope.event_id,
                details=(
                    ("src", sender.name),
                    ("matched", bool(matched_states)),
                    (
                        "delivered",
                        self.counters.events_delivered - delivered_before,
                    ),
                    ("latency", latency),
                ),
            )

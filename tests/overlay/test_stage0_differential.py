"""Stage 0: the one ``_deliver`` against the two loops it replaced.

A production :class:`SubscriberRuntime` and the reference of
``stage0_reference.py`` are given the same generated subscription set —
one to three homes holding up to ``STAGE0_SCAN_MAX + 8`` states between
them, so a home lands on either side of ``STAGE0_SCAN_MAX`` (scan or
engine); filters the engine indexes and filters it keeps as residuals
(``!=``, prefix, a two-constraint interval), the same filter on several
states of a home; disjunction groups, pure/stateless/stateful residual
closures, handler-less states — and the same interleaving of live
copies, history and tap batches (event ids overlapping across streams),
catch-up starts, unsubscriptions, rejoins, accepted-At messages that
move a state to another home (a home crosses the break-even up and down
mid-run) and clock ticks.  They must make the same handler calls in the same order,
call each residual the same number of times, book the same counters
(``filter_evaluations`` among them: ``len(states)`` per live envelope,
whichever way it was matched) and latency samples, put the same frames
on the wire and dump the same spans.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.subscription import Subscription
from repro.events.closures import FilterClosure
from repro.events.serialization import marshal
from repro.filters.parser import parse_filter
from repro.flow import FlowConfig
from repro.obs.tracing import EventTracer
from repro.overlay.messages import (
    AcceptedAt,
    CatchUpBatch,
    Publish,
    PublishBatch,
    Sequenced,
)
from repro.overlay.subscriber import STAGE0_SCAN_MAX, SubscriberRuntime
from repro.sim.kernel import Process, Simulator

from tests.overlay.stage0_reference import ReferenceSubscriberRuntime

HOMES = 3
FILTERS = (
    'n >= 0',
    'n < 3',
    'kind = "a"',
    'kind = "b" and n < 4',
    # What the compiled engine runs as residuals, on survivors only:
    'kind != "a"',
    'kind prefix "b"',
    'n >= 1 and n <= 3',
    'kind = "a" and n != 2',
)


class Tick:
    def __init__(self, kind, n):
        self._kind, self._n = kind, n

    def get_kind(self):
        return self._kind

    def get_n(self):
        return self._n


class _Net:
    def __init__(self):
        self.sent = []

    def send(self, src, dst, message):
        self.sent.append((src.name, dst.name, message))


def _residual(kind, calls):
    """``calls`` counts invocations: the stateful residual accepts every
    other one, so a skipped or extra call changes what is delivered."""
    if kind is None:
        return None

    def residual(event):
        calls.append(event.get_n())
        if kind == "even":
            return event.get_n() % 2 == 0
        return len(calls) % 2 == 1

    return residual


class _Side:
    """One runtime with everything the comparison reads off it."""

    def __init__(self, runtime_class, specs, flow, homes=HOMES):
        self.sim = Simulator()
        self.net = _Net()
        self.tracer = EventTracer(enabled=True)
        self.root = Process(self.sim, "root")
        # Home indices are drawn over all of HOMES and folded onto the
        # ``homes`` a run uses: with one home, every state shares it.
        self.homes = [Process(self.sim, f"h{i}") for i in range(homes)] * HOMES
        self.runtime = runtime_class(
            self.sim,
            self.net,
            "sub",
            self.root,
            tracer=self.tracer,
            flow=FlowConfig() if flow else None,
        )
        self.calls = []
        self.residual_calls = []
        self.frames = 0
        for sid, (home, text, group, residual, handled) in enumerate(specs, start=1):
            filter_ = parse_filter(text)
            subscription = Subscription(
                filter_,
                "Tick",
                FilterClosure(filter_, _residual(residual, self.residual_calls)),
                subscription_id=sid,
                group=group,
            )
            self.runtime.subscribe(
                subscription, self._handler if handled else None, self.homes[home]
            )
            self.runtime.receive(
                AcceptedAt(self.homes[home], sid, filter_), self.homes[home]
            )

    def _handler(self, event, metadata, subscription):
        self.calls.append(
            (subscription.subscription_id, event.get_kind(), event.get_n(), metadata)
        )

    def _publish(self, event):
        kind, n, seq, stamped = event
        return Publish(
            marshal(
                Tick(kind, n),
                class_name="Tick",
                published_at=0.25 if stamped else None,
                event_id=("feed", seq) if seq is not None else None,
            )
        )

    def step(self, step):
        kind = step[0]
        runtime = self.runtime
        if kind == "accept":
            # accepted-At again, possibly elsewhere: the state moves.
            state = runtime._states.get(step[1])
            if state is not None:
                home = self.homes[step[2]]
                runtime.receive(
                    AcceptedAt(home, step[1], state.subscription.filter), home
                )
        elif kind == "rejoin":
            state = runtime._states.get(step[1])
            if state is not None and state.active:
                runtime.rejoin(step[1])
        elif kind == "live":
            publishes = tuple(self._publish(event) for event in step[2])
            message = publishes[0] if len(publishes) == 1 else PublishBatch(publishes)
            runtime.receive(message, self.homes[step[1]])
        elif kind == "replay":
            batch = CatchUpBatch(
                step[1], tuple(self._publish(event) for event in step[3]), step[2]
            )
            runtime.receive(Sequenced(0, self.frames, batch), self.root)
            self.frames += 1
        elif kind == "catch_up":
            state = runtime._states.get(step[1])
            if state is not None and state.active and state.joined:
                runtime.catch_up(step[1])
        elif kind == "unsubscribe":
            runtime.unsubscribe(step[1])
        else:
            self.sim.run(until=self.sim.now + step[1])

    def observed(self, subscriptions):
        runtime = self.runtime
        return {
            "calls": self.calls,
            "residual calls": self.residual_calls,
            "counters": runtime.counters.snapshot(),
            "latencies": runtime.delivery_latencies,
            "sessions": [runtime.catch_up_stats(sid) for sid in subscriptions],
            # Messages name the runtime that sent them: compare as text.
            "wire": [(src, dst, repr(message)) for src, dst, message in self.net.sent],
            "spans": self.tracer.dump(),
        }


_event = st.tuples(
    st.sampled_from("ab"),
    st.integers(0, 5),
    st.one_of(st.none(), st.integers(0, 4)),  # few ids: streams overlap
    st.booleans(),
)
_events = st.lists(_event, min_size=1, max_size=4)
_spec = st.tuples(
    st.integers(0, HOMES - 1),
    st.sampled_from(FILTERS),
    st.one_of(st.none(), st.integers(1, 2)),
    st.sampled_from((None, None, "even", "stateful")),
    st.booleans(),
)
#: Enough states for one home to pass the break-even by a few.
MAX_SPECS = STAGE0_SCAN_MAX + 8
_sid = st.integers(1, MAX_SPECS + 1)  # the last is never a subscription: stale streams
_home = st.integers(0, HOMES - 1)
_step = st.one_of(
    st.tuples(st.just("live"), _home, _events),
    st.tuples(st.just("live"), _home, _events),
    st.tuples(st.just("live"), _home, _events),
    st.tuples(st.just("replay"), _sid, st.booleans(), _events),
    st.tuples(st.just("replay"), _sid, st.booleans(), _events),
    st.tuples(st.just("catch_up"), _sid),
    st.tuples(st.just("unsubscribe"), _sid),
    st.tuples(st.just("unsubscribe"), _sid),
    st.tuples(st.just("accept"), _sid, _home),
    st.tuples(st.just("rejoin"), _sid),
    st.tuples(st.just("tick"), st.sampled_from((0.01, 0.5))),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, HOMES),
    st.one_of(  # half the runs have more states than one home scans
        st.lists(_spec, min_size=1, max_size=STAGE0_SCAN_MAX),
        st.lists(_spec, min_size=STAGE0_SCAN_MAX + 1, max_size=MAX_SPECS),
    ),
    st.lists(_step, max_size=30),
    st.booleans(),
)
def test_stage0_one_deliver_equals_the_two_loops(homes, specs, steps, flow):
    new = _Side(SubscriberRuntime, specs, flow, homes)
    old = _Side(ReferenceSubscriberRuntime, specs, flow, homes)
    subscriptions = range(1, len(specs) + 1)
    for step in steps:
        new.step(step)
        old.step(step)
        _check_homes(new.runtime)
    assert new.observed(subscriptions) == old.observed(subscriptions)


def _check_homes(runtime):
    """``_by_home`` is the regrouping of ``_states`` it replaced, and a
    home keeps an engine exactly while it is past the break-even."""
    regrouped = {}
    for state in runtime._states.values():
        if state.active and state.joined:
            regrouped.setdefault(state.home, []).append(state)
    assert {home: entry.states for home, entry in runtime._by_home.items()} == regrouped
    assert runtime._homes() == list(regrouped)
    for entry in runtime._by_home.values():
        if len(entry.states) <= STAGE0_SCAN_MAX:
            assert entry.engine is None
        else:
            held = sorted(sid for _, ids in entry.engine.entries() for sid in ids)
            assert held == sorted(
                state.subscription.subscription_id for state in entry.states
            )
    assert runtime.counters.filters_held == len(runtime.subscriptions())


def test_an_unsubscription_between_two_envelopes_of_a_batch_is_seen_by_the_second():
    """One ``PublishBatch``, two envelopes: the first one's handler
    unsubscribes two siblings — and with them takes the home from two
    states past the break-even (engine) to the break-even (scan) — so the
    second envelope is checked against ``STAGE0_SCAN_MAX`` filters and
    the siblings hear only the first."""
    full, left = STAGE0_SCAN_MAX + 2, STAGE0_SCAN_MAX
    specs = [(0, 'n >= 0', None, None, True)] * full
    sides = [
        _Side(runtime_class, specs, flow=False)
        for runtime_class in (SubscriberRuntime, ReferenceSubscriberRuntime)
    ]
    for side in sides:
        runtime = side.runtime

        def handler(event, metadata, subscription, side=side, runtime=runtime):
            side._handler(event, metadata, subscription)
            for sid in range(left + 1, full + 1):
                runtime.unsubscribe(sid)

        runtime._states[1].handler = handler
    new, old = sides
    assert new.runtime._by_home[new.homes[0]].engine is not None
    for side in sides:
        side.step(("live", 0, [("a", 1, 0, True), ("a", 2, 1, True)]))
    assert new.observed(range(1, full + 1)) == old.observed(range(1, full + 1))
    assert [(sid, n) for sid, _, n, _ in new.calls] == (
        [(sid, 1) for sid in range(1, full + 1)] + [(sid, 2) for sid in range(1, left + 1)]
    )
    assert new.runtime.counters.filter_evaluations == full + left
    assert new.runtime._by_home[new.homes[0]].engine is None


def test_stage0_opens_the_payload_only_for_a_copy_someone_looks_at(monkeypatch):
    """``unmarshal`` runs at most once per envelope, never for a fully
    deduplicated copy, never when no surviving state has a handler or a
    residual."""
    from repro.overlay import subscriber as module

    opened = []
    unmarshal = module.unmarshal
    monkeypatch.setattr(
        module, "unmarshal", lambda envelope: opened.append(1) or unmarshal(envelope)
    )
    specs = [
        (0, 'n >= 0', 1, None, True),
        (0, 'n >= 0', None, "even", True),
        (1, 'n >= 0', 1, None, False),  # a branch of group 1, no handler
    ]
    side = _Side(SubscriberRuntime, specs, flow=False)
    event, other = ("a", 2, 0, True), ("a", 2, 1, True)
    side.step(("live", 0, [event]))
    assert opened == [1] and len(side.calls) == 2  # two readers, one open
    side.step(("live", 1, [event]))
    assert opened == [1]  # the group already delivered it: nothing to open
    side.step(("live", 1, [other]))
    assert opened == [1]  # delivered, but to a state that reads meta-data only
    assert side.runtime.counters.events_delivered == 3
    side.step(("catch_up", 2))
    side.step(("replay", 2, True, [event]))
    assert opened == [1, 1]  # the residual needs the object
    side.step(("replay", 2, False, [event]))
    assert opened == [1, 1]  # the session had it: discarded unopened
    assert side.runtime.counters.replay_dupes_discarded == 1

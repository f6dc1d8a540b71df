"""Stage 0 chooses its matcher from ``len(states)``: a scan of
``Filter.matches`` at a home of at most ``STAGE0_SCAN_MAX`` states, one
``engine.match`` above it — sub-linearity as a count, not a timing —
and keeping the choice current costs O(1) per subscription operation.
"""

import pytest

from repro.core.subscription import Subscription
from repro.filters import engine as engine_module
from repro.filters.compiled import CompiledMatchEngine
from repro.filters.filter import Filter
from repro.filters.parser import parse_filter
from repro.overlay.messages import AcceptedAt
from repro.overlay.subscriber import STAGE0_SCAN_MAX, SubscriberRuntime
from repro.sim.kernel import Process, Simulator

from tests.overlay.stage0_reference import ReferenceSubscriberRuntime
from tests.overlay.test_stage0_differential import FILTERS, _Net, _Side

EVENTS = [(kind, n, seq, True) for seq, (kind, n) in enumerate(
    (kind, n) for kind in "ab" for n in range(6)
)]


def _count_filter_matches(monkeypatch):
    calls = []
    matches = Filter.matches
    monkeypatch.setattr(
        Filter, "matches", lambda self, event: calls.append(1) or matches(self, event)
    )
    return calls


@pytest.mark.parametrize("states", [1, 3, 4, 5, 8, 9, 50, 500])
def test_filter_matches_calls_per_live_envelope(monkeypatch, states):
    """Nothing but ``_deliver`` runs between the counter's installation
    and its reading (no broker, no replay), and the engine's residuals
    are ``AttributeConstraint.matches``: every counted call is a scan."""
    assert STAGE0_SCAN_MAX == 4
    specs = [(0, FILTERS[i % len(FILTERS)], None, None, True) for i in range(states)]
    new = _Side(SubscriberRuntime, specs, flow=False)
    old = _Side(ReferenceSubscriberRuntime, specs, flow=False)
    home = new.runtime._by_home[new.homes[0]]
    assert (home.engine is None) == (states <= STAGE0_SCAN_MAX)

    calls = _count_filter_matches(monkeypatch)
    for event in EVENTS:
        new.step(("live", 0, [event]))
    new.step(("live", 0, EVENTS))  # and once more as one PublishBatch
    envelopes = 2 * len(EVENTS)
    assert len(calls) == (states * envelopes if states <= STAGE0_SCAN_MAX else 0)
    monkeypatch.undo()

    for event in EVENTS:
        old.step(("live", 0, [event]))
    old.step(("live", 0, EVENTS))
    subscriptions = range(1, states + 1)
    assert new.observed(subscriptions) == old.observed(subscriptions)
    assert new.calls  # identical and not vacuous
    # What an envelope books is the filters it was checked against.
    assert new.runtime.counters.filter_evaluations == states * envelopes


def _bare_runtime():
    sim = Simulator()
    runtime = SubscriberRuntime(sim, _Net(), "sub", Process(sim, "root"))
    return runtime, Process(sim, "home")


def test_joining_and_leaving_n_filters_is_linear(monkeypatch):
    """8 000 subscribes, accepted-Ats and unsubscribes on one runtime:
    no pass over every state per operation (``subscribe``/``unsubscribe``
    used to take ``len(self._active_states())``: 4x per doubling), one
    engine ``insert``/``remove`` per operation and one engine built —
    never a rebuild of the home's table."""
    n = 8000
    passes, built, inserts, removes = [], [], [], []
    active_states = SubscriberRuntime._active_states
    monkeypatch.setattr(
        SubscriberRuntime,
        "_active_states",
        lambda self: passes.append(1) or active_states(self),
    )
    make_engine = engine_module.make_engine
    monkeypatch.setattr(
        "repro.overlay.subscriber.make_engine",
        lambda name: built.append(name) or make_engine(name),
    )
    insert, remove = CompiledMatchEngine.insert, CompiledMatchEngine.remove
    monkeypatch.setattr(
        CompiledMatchEngine,
        "insert",
        lambda self, filter_, destination: inserts.append(1)
        or insert(self, filter_, destination),
    )
    monkeypatch.setattr(
        CompiledMatchEngine,
        "remove",
        lambda self, filter_, destination: removes.append(1)
        or remove(self, filter_, destination),
    )

    runtime, home = _bare_runtime()
    filters = [parse_filter(f"n = {i % 100}") for i in range(n)]
    for sid, filter_ in enumerate(filters, start=1):
        runtime.subscribe(Subscription(filter_, "Tick", subscription_id=sid))
    assert runtime.counters.filters_held == n
    for sid, filter_ in enumerate(filters, start=1):
        runtime.receive(AcceptedAt(home, sid, filter_), home)
    assert len(runtime._by_home[home].states) == n
    assert (len(built), len(inserts), len(removes)) == (1, n, 0)
    for sid in range(1, n + 1):
        runtime.unsubscribe(sid)
    assert runtime.counters.filters_held == 0
    assert (runtime.counters.max_filters_held, runtime._by_home) == (n, {})
    # One remove each while the home stays past the break-even; the
    # engine is dropped, not emptied, when it falls back.
    assert (len(built), len(inserts), len(removes)) == (1, n, n - STAGE0_SCAN_MAX - 1)
    assert passes == []


def test_subscribing_again_under_an_id_replaces_the_state():
    runtime, home = _bare_runtime()
    first = Subscription(parse_filter("n = 1"), "Tick", subscription_id=1)
    second = Subscription(parse_filter("n = 2"), "Tick", subscription_id=2)
    again = Subscription(parse_filter("n = 3"), "Tick", subscription_id=1)
    for subscription in (first, second):
        runtime.subscribe(subscription)
        runtime.receive(
            AcceptedAt(home, subscription.subscription_id, subscription.filter), home
        )
    runtime.subscribe(again)
    assert runtime.counters.filters_held == 2
    assert [state.subscription for state in runtime._by_home[home].states] == [second]
    runtime.receive(AcceptedAt(home, 1, again.filter), home)
    # It kept the place the id had in ``_states``: handlers run in that order.
    assert [state.subscription for state in runtime._by_home[home].states] == [
        again,
        second,
    ]
    assert runtime.subscriptions() == [again, second]

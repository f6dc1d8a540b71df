"""A subscription that matches nothing is refused at the edge, and a
request for one that reaches a broker anyway is dropped, not raised.

Before, ``system.subscribe(sub, "false", ...)`` sent a
``SubscriptionRequest`` carrying ``fF`` and the stage-1 node's
``table.insert`` raised ``ValueError: cannot index fF`` out of
``BrokerNode.receive``: ``drain()`` aborted on ``sim``, a broker's
dispatch died on the socket runtimes — from one client's input.  (Under
a schema carrying ``class``, ``Advertisement.standardize`` rebuilt the
filter without its ``matches_nothing`` flag instead, and ``"false"``
subscribed to every event of the class.)
"""

import pytest

from repro.core.advertisement import Advertisement
from repro.core.engine import MultiStageEventSystem
from repro.core.stages import AttributeStageAssociation
from repro.core.subscription import Subscription
from repro.filters.disjunction import Disjunction
from repro.filters.filter import Filter
from repro.overlay.messages import SubscriptionRequest

RUNTIMES = ("sim", "asyncio")


class Quote:
    def __init__(self, symbol, price):
        self._symbol, self._price = symbol, price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


def make_system(runtime, schema=("symbol", "price"), **kwargs):
    system = MultiStageEventSystem(
        stage_sizes=(2, 1), seed=7, runtime=runtime, **kwargs
    )
    system.advertise("Quote", schema=schema)
    system.drain()
    return system


def _round_trip(system, subscriber):
    """The brokers are still running: a subscription joins and an event
    published after it is delivered."""
    got = []
    system.subscribe(
        subscriber,
        'symbol = "A"',
        event_class="Quote",
        handler=lambda event, meta, sub: got.append(event.get_price()),
    )
    assert system.run_until(subscriber.all_joined, timeout=10.0)
    system.create_publisher().publish(Quote("A", 3.0), event_class="Quote")
    assert system.run_until(lambda: got, timeout=10.0)
    assert got == [3.0]


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("schema", [("symbol", "price"), ("class", "symbol", "price")])
@pytest.mark.parametrize(
    "filter_",
    ["false", Filter.bottom(), Disjunction([Filter.bottom(), Filter.bottom()])],
    ids=["text", "bottom", "disjunction"],
)
def test_subscribing_to_nothing_raises_at_the_call(runtime, schema, filter_):
    with make_system(runtime, schema) as system:
        subscriber = system.create_subscriber()
        sent = system.network.stats.total_messages
        with pytest.raises(ValueError, match="matches nothing"):
            system.subscribe(subscriber, filter_, event_class="Quote")
        assert subscriber.subscriptions() == []  # no state was created
        assert subscriber.counters.filters_held == 0
        assert system.network.stats.total_messages == sent  # nothing was sent
        _round_trip(system, subscriber)


def test_the_runtime_refuses_it_without_the_facade():
    with make_system("sim") as system:
        subscriber = system.create_subscriber()
        with pytest.raises(ValueError, match="matches nothing"):
            subscriber.subscribe(Subscription(Filter.bottom(), "Quote"))
        assert subscriber.subscriptions() == []
        system.drain()
        assert all(
            node.counters.control_messages == 1  # the advertisement
            for node in system.hierarchy.nodes()
        )


def test_standard_form_of_nothing_is_still_nothing():
    association = AttributeStageAssociation.uniform(("class", "symbol"), 3)
    advertisement = Advertisement("Quote", association)
    assert advertisement.standardize(Filter.bottom()).matches_nothing


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("target", ["root", "leaf"])
def test_a_request_for_nothing_that_arrives_anyway_is_dropped(runtime, target):
    """Sent raw, past both guards: the broker counts it and carries on —
    no table change, no accepted-At, no redirect."""
    with make_system(runtime, tracing=True) as system:
        subscriber = system.create_subscriber()
        nodes = system.hierarchy.nodes()
        stage = system.root.stage if target == "root" else 1
        node = next(n for n in nodes if n.stage == stage)
        tables = [len(n.table) for n in nodes]
        request = SubscriptionRequest(Filter.bottom(), "Quote", subscriber, 99)
        system.network.send(subscriber, node, request)
        assert system.run_until(
            lambda: node.counters.subscriptions_refused == 1, timeout=10.0
        )
        system.drain()
        assert [len(n.table) for n in nodes] == tables
        assert subscriber.counters.control_messages == 0  # no JoinAt, no AcceptedAt
        assert sum(n.counters.subscriptions_refused for n in nodes) == 1
        refused = system.tracer.kinds("subscription-refused")
        assert [(span.node, span.details) for span in refused] == [
            (node.name, (("subscriber", subscriber.name),))
        ]
        assert not getattr(system.network, "errors", [])
        _round_trip(system, subscriber)

"""Unit tests for the subscriber runtime (Figure 5a + stage-0 filtering)."""

import pytest

from repro.core.engine import MultiStageEventSystem

SCHEMA = ("class", "symbol", "price")


class Quote:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


def make_system(**kwargs):
    defaults = dict(stage_sizes=(4, 2, 1), seed=5, ttl=10.0)
    defaults.update(kwargs)
    system = MultiStageEventSystem(**defaults)
    system.advertise("Quote", schema=SCHEMA)
    return system


def test_all_joined_tracks_pending_state():
    system = make_system()
    subscriber = system.create_subscriber()
    assert subscriber.all_joined()  # vacuously
    system.subscribe(subscriber, 'class = "Quote" and symbol = "A"')
    assert not subscriber.all_joined()
    system.drain()
    assert subscriber.all_joined()


def test_multiple_subscriptions_may_have_different_homes():
    system = make_system()
    subscriber = system.create_subscriber()
    a = system.subscribe(subscriber, 'class = "Quote" and symbol = "A" and price < 1')[0]
    system.drain()
    b = system.subscribe(subscriber, 'class = "Quote" and symbol = "B" and price < 1')[0]
    system.drain()
    assert subscriber.home_of(a.subscription_id) is not None
    assert subscriber.home_of(b.subscription_id) is not None
    assert len(subscriber.subscriptions()) == 2


def test_stage0_perfect_filtering_rejects_weakly_matched_events():
    """Stage-1 filters drop the price bound; the subscriber's exact
    filter restores it — perfect end-to-end filtering."""
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    delivered = []
    system.subscribe(
        subscriber, 'class = "Quote" and symbol = "A" and price < 10',
        handler=lambda e, m, s: delivered.append(m["price"]),
    )
    system.drain()
    publisher.publish(Quote("A", 5.0), event_class="Quote")
    publisher.publish(Quote("A", 15.0), event_class="Quote")  # reaches, rejected
    system.drain()
    assert delivered == [5.0]
    assert subscriber.counters.events_received == 2
    assert subscriber.counters.events_matched == 1
    assert subscriber.counters.events_delivered == 1


def test_handler_receives_typed_object_metadata_and_subscription():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    captured = {}

    def handler(event, metadata, subscription):
        captured["event"] = event
        captured["metadata"] = metadata
        captured["subscription"] = subscription

    sub = system.subscribe(
        subscriber, 'class = "Quote" and symbol = "A"', handler=handler
    )[0]
    system.drain()
    publisher.publish(Quote("A", 1.0), event_class="Quote")
    system.drain()
    assert isinstance(captured["event"], Quote)
    assert captured["event"].get_price() == 1.0
    assert captured["metadata"]["symbol"] == "A"
    assert captured["subscription"] is sub


def test_one_delivery_per_matching_subscription():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    hits = []
    system.subscribe(
        subscriber, 'class = "Quote" and price < 10',
        handler=lambda e, m, s: hits.append("broad"),
    )
    system.subscribe(
        subscriber, 'class = "Quote" and symbol = "A"',
        handler=lambda e, m, s: hits.append("narrow"),
    )
    system.drain()
    publisher.publish(Quote("A", 5.0), event_class="Quote")
    system.drain()
    assert sorted(hits) == ["broad", "narrow"]
    # The two subscriptions are homed at different nodes (the broad one is
    # a wildcard subscription living higher up), so the subscriber gets
    # one copy per home — and exactly one delivery per subscription.
    assert subscriber.counters.events_received == 2
    assert subscriber.counters.events_delivered == 2


def test_residual_failure_blocks_delivery_but_counts_match():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    delivered = []
    system.subscribe(
        subscriber, 'class = "Quote" and symbol = "A"',
        residual=lambda q: False,
        handler=lambda e, m, s: delivered.append(e),
    )
    system.drain()
    publisher.publish(Quote("A", 1.0), event_class="Quote")
    system.drain()
    assert delivered == []
    assert subscriber.counters.events_matched == 1
    assert subscriber.counters.events_delivered == 0


def test_unsubscribed_subscription_stops_matching_locally():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    delivered = []
    sub = system.subscribe(
        subscriber, 'class = "Quote" and symbol = "A"',
        handler=lambda e, m, s: delivered.append(e),
    )[0]
    system.drain()
    subscriber.unsubscribe(sub.subscription_id, explicit=False)
    # Filter still installed upstream, so the event arrives...
    publisher.publish(Quote("A", 1.0), event_class="Quote")
    system.drain()
    # ...but the inactive subscription neither matches nor delivers.
    assert delivered == []
    assert subscriber.counters.events_delivered == 0


def test_stage0_grouping_follows_subscribe_unsubscribe_and_rejoin():
    """The per-home grouping of active states is rebuilt after every
    change of ``active`` or ``home``, in subscription order."""
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    delivered = []

    def subscribe(bound):
        return system.subscribe(
            subscriber, f'class = "Quote" and symbol = "A" and price < {bound}',
            handler=lambda e, m, s: delivered.append(bound),
        )[0]

    def evaluations_for_one_event():
        before = subscriber.counters.filter_evaluations
        del delivered[:]
        publisher.publish(Quote("A", 1.0), event_class="Quote")
        system.drain()
        return subscriber.counters.filter_evaluations - before

    first = subscribe(10)
    system.drain()
    assert evaluations_for_one_event() == 1  # the grouping exists from here on
    second = subscribe(20)
    system.drain()
    home = subscriber.home_of(first.subscription_id)
    assert subscriber.home_of(second.subscription_id) is home
    assert evaluations_for_one_event() == 2
    assert delivered == [10, 20]
    subscriber.unsubscribe(first.subscription_id, explicit=False)
    assert evaluations_for_one_event() == 1
    assert delivered == [20]
    subscriber.rejoin(second.subscription_id)
    assert home not in subscriber._by_home  # until accepted-At
    system.drain()
    assert evaluations_for_one_event() == 1
    assert delivered == [20]


def test_unsubscribe_twice_is_harmless():
    system = make_system()
    subscriber = system.create_subscriber()
    sub = system.subscribe(subscriber, 'class = "Quote" and symbol = "A"')[0]
    system.drain()
    subscriber.unsubscribe(sub.subscription_id)
    subscriber.unsubscribe(sub.subscription_id)
    subscriber.unsubscribe(999999)  # unknown id: no-op
    system.drain()


def test_renewal_task_renews_all_homes():
    system = make_system(ttl=10.0)
    subscriber = system.create_subscriber()
    system.subscribe(subscriber, 'class = "Quote" and symbol = "A" and price < 1')
    system.drain()
    system.subscribe(subscriber, 'class = "Quote" and symbol = "B" and price < 1')
    system.drain()
    system.start_maintenance()
    system.run_for(65)
    # Both subscriptions survive well past 3xTTL.
    total_filters = sum(len(n.table) for n in system.hierarchy.nodes(1))
    assert total_filters == 2
    system.stop_maintenance()


def test_unexpected_message_raises():
    system = make_system()
    subscriber = system.create_subscriber()
    with pytest.raises(TypeError):
        subscriber.receive(42, subscriber)


def test_counters_gauge_counts_active_subscriptions():
    system = make_system()
    subscriber = system.create_subscriber()
    sub = system.subscribe(subscriber, 'class = "Quote" and symbol = "A"')[0]
    assert subscriber.counters.filters_held == 1
    subscriber.unsubscribe(sub.subscription_id, explicit=False)
    assert subscriber.counters.filters_held == 0


def test_repr():
    system = make_system()
    subscriber = system.create_subscriber("bob")
    assert "bob" in repr(subscriber)

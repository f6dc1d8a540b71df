"""Unit tests for the MultiStageEventSystem facade."""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.filters.engine import engine_classes
from repro.filters.parser import parse_filter

STOCK_SCHEMA = ("class", "symbol", "price")


class Stock:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


class TechStock(Stock):
    def get_sector(self):
        return "tech"


def make_system(**kwargs):
    defaults = dict(stage_sizes=(4, 2, 1), seed=1)
    defaults.update(kwargs)
    system = MultiStageEventSystem(**defaults)
    system.register_type(Stock)
    system.advertise("Stock", schema=STOCK_SCHEMA)
    return system


def test_invalid_engine_rejected():
    with pytest.raises(ValueError):
        MultiStageEventSystem(engine="magic")


def test_publish_subscribe_round_trip():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    got = []
    system.subscribe(
        subscriber, 'class = "Stock" and price < 10.0',
        handler=lambda e, m, s: got.append(e.get_price()),
    )
    system.drain()
    publisher.publish(Stock("Foo", 9.0))
    publisher.publish(Stock("Foo", 11.0))
    system.drain()
    assert got == [9.0]


def test_a_subscriber_made_after_start_maintenance_renews():
    """Maintenance started before a subscriber exists covers it too: its
    subscription outlives three TTLs instead of decaying unrenewed."""
    system = make_system(ttl=2.0)
    system.start_maintenance()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    assert subscriber.armed_tasks() == ("renew",)
    got = []
    system.subscribe(
        subscriber, 'class = "Stock" and price < 10.0',
        handler=lambda e, m, s: got.append(e.get_price()),
    )
    system.run_for(11.0)
    publisher.publish(Stock("Foo", 9.0))
    system.run_for(1.0)
    assert got == [9.0]


def test_table_engine_behaves_identically():
    for engine in engine_classes():
        system = make_system(engine=engine)
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        got = []
        system.subscribe(
            subscriber, 'class = "Stock" and symbol = "A"',
            handler=lambda e, m, s: got.append(e.get_symbol()),
        )
        system.drain()
        publisher.publish(Stock("A", 1.0))
        publisher.publish(Stock("B", 1.0))
        system.drain()
        assert got == ["A"], engine


def test_filter_objects_and_none_filters():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    got = []
    system.subscribe(
        subscriber, parse_filter('class = "Stock"'),
        handler=lambda e, m, s: got.append("f"),
    )
    system.subscribe(
        subscriber, None, event_class="Stock",
        handler=lambda e, m, s: got.append("n"),
    )
    system.drain()
    publisher.publish(Stock("X", 1.0))
    system.drain()
    assert sorted(got) == ["f", "n"]


def test_event_class_inferred_from_class_constraint():
    system = make_system()
    subs = system.subscribe(
        system.create_subscriber(), 'class = "Stock" and price < 5'
    )
    assert subs[0].event_class == "Stock"


def test_event_class_required_without_class_constraint():
    system = make_system()
    with pytest.raises(ValueError):
        system.subscribe(system.create_subscriber(), "price < 5")


def test_subscribing_to_unadvertised_class_raises():
    system = make_system()
    with pytest.raises(KeyError):
        system.subscribe(system.create_subscriber(), None, event_class="Ghost")


def test_residual_predicate_applied_at_edge():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    got = []
    system.subscribe(
        subscriber, 'class = "Stock" and price < 10',
        residual=lambda stock: stock.get_symbol() != "Skip",
        handler=lambda e, m, s: got.append(e.get_symbol()),
    )
    system.drain()
    publisher.publish(Stock("Keep", 5.0))
    publisher.publish(Stock("Skip", 5.0))
    system.drain()
    assert got == ["Keep"]


class TestTypeBasedSubscription:
    def test_expands_over_existing_conformers(self):
        system = make_system()
        system.register_type(TechStock)
        system.advertise("TechStock", schema=STOCK_SCHEMA)
        subscriber = system.create_subscriber()
        subs = system.subscribe(subscriber, event_class=Stock)
        assert {s.event_class for s in subs} == {"Stock", "TechStock"}

    def test_future_subtypes_auto_subscribe(self):
        system = make_system()
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        got = []
        system.subscribe(
            subscriber, event_class=Stock,
            handler=lambda e, m, s: got.append(m["class"]),
        )
        system.drain()
        # The publisher extends the hierarchy afterwards.
        system.register_type(TechStock)
        system.advertise("TechStock", schema=STOCK_SCHEMA)
        system.drain()
        publisher.publish(TechStock("NVDA", 100.0))
        system.drain()
        assert got == ["TechStock"]

    def test_unrelated_advertisements_do_not_expand(self):
        system = make_system()

        class Auction:
            def get_item(self):
                return "x"

        system.register_type(Auction)
        subscriber = system.create_subscriber()
        subs = system.subscribe(subscriber, event_class=Stock)
        before = len(subscriber.subscriptions())
        system.advertise("Auction", schema=("class", "item"))
        assert len(subscriber.subscriptions()) == before
        assert len(subs) == 1

    def test_filter_applies_to_all_conformers(self):
        system = make_system()
        system.register_type(TechStock)
        system.advertise("TechStock", schema=STOCK_SCHEMA)
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        got = []
        system.subscribe(
            subscriber, "price < 10", event_class=Stock,
            handler=lambda e, m, s: got.append((m["class"], m["price"])),
        )
        system.drain()
        publisher.publish(Stock("A", 5.0))
        publisher.publish(TechStock("B", 5.0))
        publisher.publish(TechStock("C", 50.0))
        system.drain()
        assert sorted(got) == [("Stock", 5.0), ("TechStock", 5.0)]


def test_counters_by_stage_has_all_stages():
    system = make_system()
    counters = system.counters_by_stage()
    assert sorted(counters) == [0, 1, 2, 3]
    assert len(counters[1]) == 4
    assert len(counters[3]) == 1


def test_totals():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    system.subscribe(subscriber, None, event_class="Stock")
    system.drain()
    publisher.publish(Stock("X", 1.0))
    system.drain()
    assert system.total_events_published() == 1
    assert system.total_subscriptions() == 1


def test_run_for_advances_time():
    system = make_system()
    start = system.sim.now
    system.run_for(5.0)
    assert system.sim.now == start + 5.0


def test_repr():
    assert "publishers" in repr(make_system())

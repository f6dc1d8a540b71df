"""Unit tests for the centralized baseline (§2.1)."""

import pytest

from repro.baselines.centralized import CentralizedSystem
from repro.core.advertisement import Advertisement
from repro.core.stages import AttributeStageAssociation
from repro.events.base import PropertyEvent
from repro.filters.engine import DEFAULT_ENGINE, engine_classes

ADV = Advertisement(
    "Stock",
    AttributeStageAssociation.from_prefixes(("class", "symbol", "price"), [3, 2, 1]),
)


class Quote:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


def build():
    system = CentralizedSystem(seed=0)
    system.advertise(ADV)
    return system


def test_delivery_through_the_server():
    system = build()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    got = []
    system.subscribe(
        subscriber, 'symbol = "A" and price < 10', event_class="Stock",
        handler=lambda e, m, s: got.append(m["price"]),
    )
    publisher.publish(Quote("A", 5.0), event_class="Stock")
    publisher.publish(Quote("A", 15.0), event_class="Stock")
    publisher.publish(Quote("B", 5.0), event_class="Stock")
    system.drain()
    assert got == [5.0]


def test_server_filters_so_edges_see_only_matches():
    system = build()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    system.subscribe(subscriber, 'symbol = "A"', event_class="Stock")
    publisher.publish(Quote("A", 1.0), event_class="Stock")
    publisher.publish(Quote("B", 1.0), event_class="Stock")
    system.drain()
    assert subscriber.counters.events_received == 1
    assert subscriber.counters.events_matched == 1  # edge MR = 1


def test_server_rlc_is_exactly_one():
    system = build()
    publisher = system.create_publisher()
    for i in range(5):
        subscriber = system.create_subscriber()
        system.subscribe(subscriber, f'symbol = "S{i}"', event_class="Stock")
    for i in range(20):
        publisher.publish(Quote(f"S{i % 7}", float(i)), event_class="Stock")
    system.drain()
    assert system.server_rlc() == 1.0


def test_rlc_is_one_even_with_duplicate_filters():
    """Identical subscriptions still count individually at the server."""
    system = build()
    publisher = system.create_publisher()
    for _ in range(4):
        subscriber = system.create_subscriber()
        system.subscribe(subscriber, 'symbol = "A"', event_class="Stock")
    publisher.publish(Quote("A", 1.0), event_class="Stock")
    system.drain()
    assert system.server_rlc() == 1.0


def test_residual_at_edge():
    system = build()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    got = []
    system.subscribe(
        subscriber, 'symbol = "A"', event_class="Stock",
        residual=lambda q: q.get_price() > 3,
        handler=lambda e, m, s: got.append(m["price"]),
    )
    publisher.publish(Quote("A", 5.0), event_class="Stock")
    publisher.publish(Quote("A", 1.0), event_class="Stock")
    system.drain()
    assert got == [5.0]


def test_unadvertised_class_subscribes_without_standardization():
    system = CentralizedSystem()
    subscriber = system.create_subscriber()
    subscription = system.subscribe(subscriber, "x = 1", event_class="Raw")
    assert subscription.filter.matches(PropertyEvent(x=1))


def test_the_server_builds_the_engine_it_is_asked_for():
    """``engine="compiled"`` — and any typo — used to get the naive
    table silently: the comparison experiment would have run the
    baseline on the slowest engine beside a multi-stage system on the
    fastest."""
    for name, cls in engine_classes().items():
        assert type(CentralizedSystem(engine=name).server.table) is cls
    assert type(CentralizedSystem().server.table) is engine_classes()[DEFAULT_ENGINE]
    with pytest.raises(ValueError, match="engine must be one of"):
        CentralizedSystem(engine="indx")


def test_table_engine_variant():
    system = CentralizedSystem(engine="table")
    system.advertise(ADV)
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    got = []
    system.subscribe(
        subscriber, 'symbol = "A"', event_class="Stock",
        handler=lambda e, m, s: got.append(1),
    )
    publisher.publish(Quote("A", 1.0), event_class="Stock")
    system.drain()
    assert got == [1]

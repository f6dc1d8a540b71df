"""Covering-based uplink aggregation: suppression, demotion, uncover.

The protocol under test (§4, Definition 2 / Proposition 1): a broker
propagates only the *maximal* weakened forms of its stored filters.  A
new form covered by a propagated one is suppressed; a new form covering
propagated ones demotes them (withdrawn only after the replacement
``req-Insert``); the death of a cover re-propagates its still-live
covered forms *before* the withdraw, so the parent's table covers the
union of the child's filters at every instant.  The differential tests
assert the observable consequence: per-subscriber delivery traces are
identical with aggregation on and off — including across a lease expiry
of the covering subscription.
"""

from repro.core.engine import MultiStageEventSystem
from repro.core.subscription import RENEW_FRACTION
from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import LT

SCHEMA = ("class", "price", "symbol")
#: Stage 1 keeps the full schema, stage 2 keeps (class, price), the root
#: keeps class only — so price bounds survive to the stage-2 forms and
#: covering between them is non-trivial.
PREFIXES = (3, 3, 2, 1)

BROAD = 'class = "Quote" and price < 20'
NARROW = 'class = "Quote" and price < 10 and symbol = "DEF"'


class Quote:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


def make_system(**kwargs):
    defaults = dict(stage_sizes=(2, 2, 1), seed=5, ttl=10.0)
    defaults.update(kwargs)
    system = MultiStageEventSystem(**defaults)
    system.advertise("Quote", schema=SCHEMA, stage_prefixes=PREFIXES)
    system.drain()
    return system


def pinned_subscribe(system, name, text, traces=None):
    """Subscribe at the first stage-1 node, recording deliveries."""
    subscriber = system.create_subscriber(name)
    handler = None
    if traces is not None:
        log = traces.setdefault(name, [])

        def handler(event, metadata, subscription):
            properties = getattr(metadata, "properties", metadata)
            log.append((properties["symbol"], properties["price"]))

    home = system.hierarchy.stage1_nodes()[0]
    subscription = system.subscribe(
        subscriber, text, event_class="Quote", handler=handler, at_node=home
    )[0]
    system.drain()
    return subscriber, subscription, home


def stage2_filters_from(home):
    """Filters the home's parent routes to this home."""
    return [
        f
        for f, ids in home.parent.table.entries()
        if any(d is home for d in ids)
    ]


def test_covered_propagation_is_suppressed():
    system = make_system()
    _, _, home = pinned_subscribe(system, "broad", BROAD)
    pinned_subscribe(system, "narrow", NARROW)

    up = stage2_filters_from(home)
    assert [str(f) for f in up] == ["(class, 'Quote', =) (price, 20, <)"]
    assert home.counters.propagations_suppressed == 1
    assert home.counters.propagated_filters == 1
    assert len(home.table) == 2  # both stored locally, exact at stage 1


def test_new_cover_demotes_propagated_forms():
    system = make_system()
    # Narrow first: its form is propagated, then the broad cover arrives.
    _, _, home = pinned_subscribe(system, "narrow", NARROW)
    assert len(stage2_filters_from(home)) == 1
    pinned_subscribe(system, "broad", BROAD)

    up = stage2_filters_from(home)
    assert [str(f) for f in up] == ["(class, 'Quote', =) (price, 20, <)"]
    assert home.counters.withdrawals_sent == 1
    assert home.counters.propagated_filters == 1


def test_uncover_repropagation_on_unsubscribe():
    system = make_system()
    traces = {}
    broad_sub, broad, home = pinned_subscribe(system, "broad", BROAD, traces)
    pinned_subscribe(system, "narrow", NARROW, traces)

    broad_sub.unsubscribe(broad.subscription_id)
    system.drain()

    # The cover is gone; the covered form must have been re-propagated.
    up = stage2_filters_from(home)
    assert [str(f) for f in up] == ["(class, 'Quote', =) (price, 10, <)"]
    assert home.counters.uncover_repropagations == 1

    # Events still reach the surviving narrow subscriber.
    publisher = system.create_publisher()
    publisher.publish(Quote("DEF", 5.0), event_class="Quote")
    publisher.publish(Quote("DEF", 15.0), event_class="Quote")
    system.drain()
    assert traces["narrow"] == [("DEF", 5.0)]
    assert traces["broad"] == []


def run_expiry_scenario(aggregate):
    """A cover's lease expires while the covered filter stays live."""
    system = make_system(aggregate=aggregate)
    traces = {}
    broad_sub, _, home = pinned_subscribe(system, "broad", BROAD, traces)
    pinned_subscribe(system, "narrow", NARROW, traces)

    publisher = system.create_publisher()

    def publish_round(tag):
        # The DEF price stays under narrow's ``price < 10`` bound in
        # every round, so deliveries after the expiry are observable.
        for symbol, price in (
            ("DEF", 5.0 + 0.5 * tag),
            ("DEF", 15.0 + tag),
            ("XYZ", 5.0 + tag),
        ):
            publisher.publish(Quote(symbol, price), event_class="Quote")

    system.start_maintenance()
    publish_round(0)
    system.run_for(6.0)
    # The broad subscriber silently dies: no more renewals, so its lease
    # at the home lapses at 3x TTL while the narrow one keeps renewing.
    broad_sub.stop_maintenance()
    for round_index in range(1, 7):
        publish_round(round_index)
        system.run_for(10.0)
    system.stop_maintenance()
    system.drain()
    return system, home, traces


def test_lease_expiry_of_cover_keeps_traces_identical():
    system_on, home_on, traces_on = run_expiry_scenario(aggregate=True)
    system_off, home_off, traces_off = run_expiry_scenario(aggregate=False)

    # The expiry really happened, and uncover re-propagation ran.
    assert all(
        "price, 20" not in str(f) for f in home_on.table.filters()
    ), "the broad filter must have been purged from the home"
    assert home_on.counters.uncover_repropagations == 1
    up = stage2_filters_from(home_on)
    assert [str(f) for f in up] == ["(class, 'Quote', =) (price, 10, <)"]

    # Byte-identical per-subscriber delivery traces across the expiry.
    assert traces_on == traces_off
    assert traces_on["narrow"], "narrow must keep receiving events"
    # Narrow outlives the cover: deliveries from rounds after the expiry.
    last_round_price = 5.0 + 0.5 * 6
    assert ("DEF", last_round_price) in traces_on["narrow"]


def test_aggregation_off_propagates_everything():
    system = make_system(aggregate=False)
    _, _, home = pinned_subscribe(system, "broad", BROAD)
    pinned_subscribe(system, "narrow", NARROW)

    assert len(stage2_filters_from(home)) == 2
    assert home.counters.propagations_suppressed == 0
    assert home.counters.withdrawals_sent == 0


def test_renewals_piggyback_only_propagated_forms():
    system = make_system()
    _, _, home = pinned_subscribe(system, "broad", BROAD)
    pinned_subscribe(system, "narrow", NARROW)

    sent = []
    original_send = home.network.send

    def spy(sender, receiver, message, **kwargs):
        if sender is home and receiver is home.parent:
            sent.append(message)
        return original_send(sender, receiver, message, **kwargs)

    home.network.send = spy
    try:
        home.start_maintenance()  # the first renewal is due at half-TTL
        system.run_for(home.ttl * RENEW_FRACTION)
    finally:
        home.network.send = original_send
        home.stop_maintenance()

    # Renewals ride the reliable channel: unwrap the Sequenced frames.
    payloads = [getattr(m, "payload", m) for m in sent]
    renewals = [m for m in payloads if hasattr(m, "items")]
    assert len(renewals) == 1
    items = renewals[0].items
    assert [str(f) for f, _ in items] == ["(class, 'Quote', =) (price, 20, <)"]


def test_a_nan_bound_leaves_every_broker_running():
    """One client's ``price < nan`` used to strand a handle in the home's
    uplink covering index: the unsubscription of a neighbouring bound
    bisected past it, and the next subscription's ``KeyError`` escaped
    ``BrokerNode.receive`` and aborted ``drain()``."""

    def below(bound):
        return Filter([AttributeConstraint("price", LT, bound)])

    system = MultiStageEventSystem(stage_sizes=(1, 1), seed=3)
    system.advertise("Quote", schema=["price", "sym"])
    system.drain()
    subscriber = system.create_subscriber()
    first = [
        system.subscribe(subscriber, below(bound), event_class="Quote")[0]
        for bound in (2.0, float("nan"), 3.0, 1.0)
    ][0]
    system.drain()
    subscriber.unsubscribe(first.subscription_id)
    system.drain()

    got = []
    system.subscribe(
        subscriber,
        below(0.5),
        event_class="Quote",
        handler=lambda event, metadata, subscription: got.append(event.get_price()),
    )
    system.drain()
    assert subscriber.all_joined()
    assert not any(node.crashed for node in system.hierarchy.nodes())
    system.create_publisher().publish(Quote("A", 0.25), event_class="Quote")
    system.drain()
    assert got == [0.25]

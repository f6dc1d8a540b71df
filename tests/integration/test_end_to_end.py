"""End-to-end integration tests across the whole stack.

The headline invariant: whatever the overlay shape, weakening depth, or
placement, subscribers receive exactly the events their original filters
select — pre-filtering is sound (Propositions 1 and 2) and complete for
the workloads tested (no event that should arrive is lost).
"""

from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from repro.baselines.centralized import CentralizedSystem
from repro.core.engine import MultiStageEventSystem
from repro.filters.constraints import AttributeConstraint
from repro.filters.engine import DEFAULT_ENGINE, engine_classes
from repro.filters.filter import Filter
from repro.filters.operators import EQ, LT
from repro.overlay.subscriber import STAGE0_SCAN_MAX
from repro.sim.rng import RngRegistry
from repro.workloads.bibliographic import BIB_EVENT_CLASS, BibliographicWorkload


def run_multistage(workload, filters, records, stage_sizes=(6, 3, 1), seed=0,
                   engine=DEFAULT_ENGINE, wildcard_routing=True):
    system = MultiStageEventSystem(
        stage_sizes=stage_sizes, seed=seed, engine=engine,
        wildcard_routing=wildcard_routing,
    )
    system.advertise(
        BIB_EVENT_CLASS, schema=workload.schema,
        association=workload.association(system.hierarchy.top_stage + 1),
    )
    system.drain()
    deliveries = Counter()
    for index, filter_ in enumerate(filters):
        subscriber = system.create_subscriber(f"sub-{index}")
        system.subscribe(
            subscriber, filter_, event_class=BIB_EVENT_CLASS,
            handler=(
                lambda e, m, s, _i=index: deliveries.__setitem__(
                    (_i, m["title"]), deliveries[(_i, m["title"])] + 1
                )
            ),
        )
        system.drain()
    publisher = system.create_publisher()
    for record in records:
        publisher.publish(record)
    system.drain()
    return system, deliveries


def oracle_deliveries(filters, records):
    """Ground truth computed directly from the original filters."""
    expected = Counter()
    for index, filter_ in enumerate(filters):
        for record in records:
            if filter_.matches(record.to_property_event()):
                expected[(index, record.get_title())] += 1
    return expected


def make_workload(seed, wildcard_rate=0.0, n=40, events=80):
    rngs = RngRegistry(seed)
    workload = BibliographicWorkload(
        rngs.stream("records"), n_years=6, n_conferences=8,
        n_authors=60, n_records=120,
    )
    rng = rngs.stream("subs")
    filters = [
        workload.sample_subscription(rng, wildcard_rate=wildcard_rate,
                                     wildcard_attribute="author")
        for _ in range(n)
    ]
    records = [workload.sample_record(rngs.stream("events")) for _ in range(events)]
    return workload, filters, records


class TestDeliveryEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_multistage_matches_the_oracle(self, seed):
        workload, filters, records = make_workload(seed)
        _, deliveries = run_multistage(workload, filters, records, seed=seed)
        assert deliveries == oracle_deliveries(filters, records)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_with_wildcard_subscriptions(self, seed):
        workload, filters, records = make_workload(seed, wildcard_rate=0.4)
        _, deliveries = run_multistage(workload, filters, records, seed=seed)
        assert deliveries == oracle_deliveries(filters, records)

    def test_wildcards_without_special_routing(self):
        workload, filters, records = make_workload(6, wildcard_rate=0.4)
        _, deliveries = run_multistage(
            workload, filters, records, wildcard_routing=False
        )
        assert deliveries == oracle_deliveries(filters, records)

    def test_table_engine_equivalent_to_index(self):
        workload, filters, records = make_workload(7)
        _, with_index = run_multistage(workload, filters, records, engine="index")
        _, with_table = run_multistage(workload, filters, records, engine="table")
        _, by_default = run_multistage(workload, filters, records)
        assert with_index == with_table == by_default

    @pytest.mark.parametrize("stage_sizes", [(1,), (5, 1), (8, 4, 2, 1)])
    def test_any_hierarchy_depth(self, stage_sizes):
        workload, filters, records = make_workload(8)
        _, deliveries = run_multistage(
            workload, filters, records, stage_sizes=stage_sizes
        )
        assert deliveries == oracle_deliveries(filters, records)

    def test_agrees_with_centralized_baseline(self):
        workload, filters, records = make_workload(9)
        _, multistage = run_multistage(workload, filters, records)

        central = CentralizedSystem()
        central.advertise(workload.advertisement())
        central_deliveries = Counter()
        for index, filter_ in enumerate(filters):
            subscriber = central.create_subscriber()
            central.subscribe(
                subscriber, filter_, event_class=BIB_EVENT_CLASS,
                handler=(
                    lambda e, m, s, _i=index: central_deliveries.__setitem__(
                        (_i, m["title"]), central_deliveries[(_i, m["title"])] + 1
                    )
                ),
            )
        publisher = central.create_publisher()
        for record in records:
            publisher.publish(record)
        central.drain()
        assert multistage == central_deliveries


class TestOrdering:
    def test_per_subscription_delivery_preserves_publish_order(self):
        workload, _, _ = make_workload(10)
        system = MultiStageEventSystem(stage_sizes=(4, 2, 1), seed=10)
        system.advertise(
            BIB_EVENT_CLASS, schema=workload.schema,
            association=workload.association(4),
        )
        subscriber = system.create_subscriber()
        seen = []
        record = workload.records[0]
        system.subscribe(
            subscriber, workload.subscription_for(record),
            event_class=BIB_EVENT_CLASS,
            handler=lambda e, m, s: seen.append(m["sequence"]),
        )
        system.drain()
        publisher = system.create_publisher()
        for sequence in range(20):
            event = record.to_property_event().with_properties(sequence=sequence)
            publisher.publish(event)
        system.drain()
        assert seen == sorted(seen)
        assert len(seen) == 20


class TestFailureInjection:
    def test_partition_decays_then_heals(self):
        """§4.3: a partitioned branch's filters decay at the parent; after
        the partition heals, renewals restore them and delivery resumes."""
        ttl = 10.0
        system = MultiStageEventSystem(stage_sizes=(2, 1), seed=11, ttl=ttl)
        system.advertise("Note", schema=("class", "topic"))
        system.drain()
        subscriber = system.create_subscriber()
        delivered = []
        system.subscribe(
            subscriber, 'class = "Note" and topic = "x"',
            handler=lambda e, m, s: delivered.append(system.sim.now),
        )
        system.drain()
        home = subscriber.home_of(subscriber.subscriptions()[0].subscription_id)
        root = system.root
        publisher = system.create_publisher()
        system.start_maintenance()

        from repro.events.base import PropertyEvent

        def probe():
            publisher.publish(PropertyEvent({"class": "Note", "topic": "x"}))

        probe()
        system.run_for(1.0)
        assert len(delivered) == 1

        # Partition the home node from the root for > 3xTTL.
        system.network.partition(home, root)
        system.run_for(ttl * 4)
        assert len(root.table) == 0  # the branch's filter decayed
        probe()
        system.run_for(1.0)
        assert len(delivered) == 1  # no path, no delivery

        # Heal: the next renewal restores the filter at the root.
        system.network.heal(home, root)
        system.run_for(ttl)
        assert len(root.table) == 1
        probe()
        system.run_for(1.0)
        assert len(delivered) == 2
        system.stop_maintenance()

    def test_crashed_subscribers_decay_without_affecting_others(self):
        ttl = 10.0
        workload, filters, records = make_workload(12, n=20, events=0)
        system = MultiStageEventSystem(stage_sizes=(4, 2, 1), seed=12, ttl=ttl)
        system.advertise(
            BIB_EVENT_CLASS, schema=workload.schema,
            association=workload.association(4),
        )
        system.drain()
        subscribers = []
        for index, filter_ in enumerate(filters):
            subscriber = system.create_subscriber(f"sub-{index}")
            system.subscribe(subscriber, filter_, event_class=BIB_EVENT_CLASS)
            system.drain()
            subscribers.append(subscriber)
        system.start_maintenance()
        crashed = subscribers[::2]
        for subscriber in crashed:
            subscriber.stop_maintenance()
        system.run_for(ttl * 12)
        # Crashed subscribers' filters are gone from stage 1...
        stage1 = system.hierarchy.nodes(1)
        crashed_set = set(map(id, crashed))
        for node in stage1:
            for _, ids in node.table.entries():
                assert not (set(map(id, ids)) & crashed_set)
        # ...while every survivor's filter is still installed.
        survivors = [s for s in subscribers if s not in crashed]
        for subscriber in survivors:
            home = subscriber.home_of(
                subscriber.subscriptions()[0].subscription_id
            )
            assert any(
                subscriber in ids for _, ids in home.table.entries()
            )
        system.stop_maintenance()


class Quote:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


class TestNanOperand:
    """One subscriber's ``price < nan`` used to silence another's
    ``price < 5.0``: the NaN sat in the broker's sorted ``<`` operands
    and moved the bisect boundary of every probe (tests/filters/
    test_nan.py has the engine-level table)."""

    @pytest.mark.parametrize("engine", sorted(engine_classes()))
    def test_a_nan_bound_does_not_silence_other_subscribers(self, engine):
        system = MultiStageEventSystem(stage_sizes=(1,), engine=engine)
        # The price bound stays in the broker's weakened filters.
        system.advertise(
            "Quote", schema=("class", "symbol", "price"), stage_prefixes=(3, 3)
        )

        def bound(symbol, price):
            return Filter([
                AttributeConstraint("symbol", EQ, symbol),
                AttributeConstraint("price", LT, price),
            ])

        got = {"a": [], "b": []}
        for name, filter_ in (
            ("a", bound("x", 5.0)),
            ("b", bound("y", float("nan"))),
        ):
            system.subscribe(
                system.create_subscriber(name), filter_, event_class="Quote",
                handler=lambda e, m, s, _n=name: got[_n].append(m["price"]),
            )
            system.drain()
        publisher = system.create_publisher()
        publisher.publish(Quote("x", 3.0), event_class="Quote")
        publisher.publish(Quote("y", 3.0), event_class="Quote")
        publisher.publish(Quote("x", float("nan")), event_class="Quote")
        system.drain()
        assert got == {"a": [3.0], "b": []}


class Q:
    def __init__(self, sym, x):
        self._sym = sym
        self._x = x

    def get_sym(self):
        return self._sym

    def get_x(self):
        return self._x


class TestEqualityAcrossTypes:
    """``x = 1`` does not hold for ``Decimal(1)``, ``Fraction(1)`` or
    ``complex(1, 0)``: ``=`` reaches across types only inside a
    comparable family (``1 = 1.0``).  Stage 0 scans ``Filter.matches`` at a
    home of up to ``STAGE0_SCAN_MAX`` subscriptions and matches with the
    default engine above it; the engine used to say such a value was
    equal to 1, so a subscriber holding five subscriptions received the
    event and one holding a single subscription did not."""

    @pytest.mark.parametrize("subscriptions", [1, STAGE0_SCAN_MAX + 1])
    @pytest.mark.parametrize(
        "value", [Decimal(1), Fraction(1), complex(1, 0)], ids=repr
    )
    def test_delivery_does_not_depend_on_the_size_of_the_home(
        self, subscriptions, value
    ):
        system = MultiStageEventSystem(stage_sizes=(2, 1), seed=0)
        system.register_type(Q)
        system.advertise("Q", schema=("class", "sym", "x"))
        subscriber = system.create_subscriber("s")
        got = []
        for _ in range(subscriptions):
            system.subscribe(
                subscriber, 'class = "Q" and x = 1',
                handler=lambda e, m, s: got.append(e.get_x()),
            )
        system.drain()
        publisher = system.create_publisher("p")
        publisher.publish(Q("a", value))
        publisher.publish(Q("a", 1))
        system.drain()
        assert got == [1] * subscriptions


class Alpha:
    def get_x(self):
        return 1


class Beta:
    def get_y(self):
        return 2


class TestMultiClass:
    def test_two_classes_share_one_overlay(self):
        system = MultiStageEventSystem(stage_sizes=(4, 2, 1), seed=13)
        system.register_type(Alpha)
        system.register_type(Beta)
        system.advertise("Alpha", schema=("class", "x"))
        system.advertise("Beta", schema=("class", "y"))
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        got = []
        system.subscribe(
            subscriber, None, event_class="Alpha",
            handler=lambda e, m, s: got.append(m["class"]),
        )
        system.drain()
        publisher.publish(Alpha())
        publisher.publish(Beta())
        system.drain()
        assert got == ["Alpha"]
        # The root discriminates on class alone (i1/i2-style filters).
        root_filters = {str(f) for f in system.root.table.filters()}
        assert root_filters == {"(class, 'Alpha', =)"}


class TestGcDepthMismatch:
    def test_hierarchy_deeper_than_association_degrades_gracefully(self):
        """A 4-broker-stage tree with a 3-stage Gc: stages beyond the
        association reuse the top attribute set, deliveries stay exact."""
        workload, filters, records = make_workload(20)
        system = MultiStageEventSystem(stage_sizes=(6, 4, 2, 1), seed=20)
        system.advertise(
            BIB_EVENT_CLASS, schema=workload.schema,
            association=workload.association(stages=3),  # shallower Gc
        )
        system.drain()
        deliveries = Counter()
        for index, filter_ in enumerate(filters):
            subscriber = system.create_subscriber(f"sub-{index}")
            system.subscribe(
                subscriber, filter_, event_class=BIB_EVENT_CLASS,
                handler=(
                    lambda e, m, s, _i=index: deliveries.update(
                        [(_i, m["title"])]
                    )
                ),
            )
            system.drain()
        publisher = system.create_publisher()
        for record in records:
            publisher.publish(record)
        system.drain()
        assert deliveries == oracle_deliveries(filters, records)

    def test_association_deeper_than_hierarchy_is_fine_too(self):
        workload, filters, records = make_workload(21)
        system = MultiStageEventSystem(stage_sizes=(4, 1), seed=21)
        system.advertise(
            BIB_EVENT_CLASS, schema=workload.schema,
            association=workload.association(stages=4),  # deeper Gc
        )
        system.drain()
        deliveries = Counter()
        for index, filter_ in enumerate(filters):
            subscriber = system.create_subscriber(f"sub-{index}")
            system.subscribe(
                subscriber, filter_, event_class=BIB_EVENT_CLASS,
                handler=(
                    lambda e, m, s, _i=index: deliveries.update(
                        [(_i, m["title"])]
                    )
                ),
            )
            system.drain()
        publisher = system.create_publisher()
        for record in records:
            publisher.publish(record)
        system.drain()
        assert deliveries == oracle_deliveries(filters, records)


class TestBrokerCrash:
    def test_dead_branch_decays_and_rest_survives(self):
        """§4.3 applied to a *node* failure: when a stage-1 broker stops
        (partitioned from everything), its filters expire at the parent
        within 3xTTL, while subscribers homed elsewhere stay live."""
        ttl = 10.0
        system = MultiStageEventSystem(stage_sizes=(2, 1), seed=44, ttl=ttl)
        system.advertise("Note", schema=("class", "topic"))
        system.drain()

        from repro.events.base import PropertyEvent

        inbox = {"a": 0, "b": 0}
        subscribers = {}
        stage1 = system.hierarchy.stage1_nodes()
        # Pin each subscriber to its own stage-1 node so the crash hits
        # exactly one branch (deterministic regardless of seed).
        for (name, topic), node in zip((("a", "x"), ("b", "y")), stage1):
            subscriber = system.create_subscriber(name)
            subscribers[name] = subscriber
            system.subscribe(
                subscriber, f'class = "Note" and topic = "{topic}"',
                handler=lambda e, m, s, _n=name: inbox.__setitem__(
                    _n, inbox[_n] + 1
                ),
                at_node=node,
            )
            system.drain()

        home_a = subscribers["a"].home_of(
            subscribers["a"].subscriptions()[0].subscription_id
        )
        home_b = subscribers["b"].home_of(
            subscribers["b"].subscriptions()[0].subscription_id
        )
        assert home_a is not home_b

        publisher = system.create_publisher()
        system.start_maintenance()

        # Crash home_a: cut it off from parent and subscriber, stop tasks.
        home_a.stop_maintenance()
        system.network.partition(home_a, system.root)
        system.network.partition(home_a, subscribers["a"])
        system.run_for(ttl * 4)

        # The dead node's filter expired at the root...
        root_destinations = {
            destination
            for _, ids in system.root.table.entries()
            for destination in ids
        }
        assert home_a not in root_destinations
        assert home_b in root_destinations

        # ...and the surviving branch still delivers.
        publisher.publish(PropertyEvent({"class": "Note", "topic": "y"}))
        publisher.publish(PropertyEvent({"class": "Note", "topic": "x"}))
        system.run_for(1.0)
        assert inbox["b"] == 1
        assert inbox["a"] == 0
        system.stop_maintenance()

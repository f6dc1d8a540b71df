"""Protocol tests for BrokerNode: Figure 5(b) routing, Figure 6 forwarding,
TTL maintenance, and wildcard handling."""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.events.base import PropertyEvent
from repro.flow import FlowConfig
from repro.overlay.invariants import (
    covering_violations,
    placement_violations,
    soft_state_violations,
)
from repro.overlay.messages import Ack, Renewal, Unsubscribe
from repro.sim.network import FaultPlan

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
    defaults = dict(stage_sizes=(4, 2, 1), seed=3, ttl=10.0)
    defaults.update(kwargs)
    system = MultiStageEventSystem(**defaults)
    system.advertise("Quote", schema=SCHEMA)
    return system


def subscribe(system, subscriber, text, **kwargs):
    subs = system.subscribe(subscriber, text, event_class="Quote", **kwargs)
    system.drain()
    return subs[0]


class TestAdvertisementFlooding:
    def test_every_node_learns_the_advertisement(self):
        system = make_system()
        system.drain()
        for node in system.hierarchy.nodes():
            assert node.advertisements.get("Quote") is not None

    def test_readvertising_is_not_reflooded(self):
        system = make_system()
        system.drain()
        before = system.network.stats.total_messages
        system.advertise("Quote", schema=SCHEMA)
        system.drain()
        after = system.network.stats.total_messages
        # One message to the root, which stops the flood (no change).
        assert after - before == 1


class TestFilterInstallation:
    def test_subscription_installs_weakened_filters_up_the_path(self):
        system = make_system()
        subscriber = system.create_subscriber("alice")
        subscribe(system, subscriber, 'class = "Quote" and symbol = "A" and price < 5')
        home = subscriber.home_of(subscriber.subscriptions()[0].subscription_id)
        assert home.stage == 1
        # Stage 1 stores class+symbol (uniform Gc drops price).
        stage1_filter = next(iter(home.table.filters()))
        assert stage1_filter.attributes() == ["class", "symbol"]
        # The parent stores class only, the root class only.
        parent_filter = next(iter(home.parent.table.filters()))
        assert parent_filter.attributes() == ["class"]
        root_filters = list(system.root.table.filters())
        assert [f.attributes() for f in root_filters] == [["class"]]

    def test_identical_upper_filters_collapse(self):
        system = make_system()
        for i in range(6):
            subscriber = system.create_subscriber(f"s{i}")
            subscribe(
                system, subscriber,
                f'class = "Quote" and symbol = "SYM{i}" and price < 5',
            )
        assert len(system.root.table) == 1  # all collapse to (class=Quote)

    def test_filters_held_gauge_tracks_table(self):
        system = make_system()
        subscriber = system.create_subscriber()
        subscribe(system, subscriber, 'class = "Quote" and symbol = "A"')
        home = subscriber.home_of(subscriber.subscriptions()[0].subscription_id)
        assert home.counters.filters_held == len(home.table) == 1


class TestSimilarityPlacement:
    def test_similar_subscriptions_cluster_on_one_node(self):
        system = make_system()
        homes = []
        for i in range(4):
            subscriber = system.create_subscriber(f"s{i}")
            sub = subscribe(
                system, subscriber,
                f'class = "Quote" and symbol = "HOT" and price < {5 + i}',
            )
            homes.append(subscriber.home_of(sub.subscription_id))
        assert len({h.name for h in homes}) == 1

    def test_join_redirects_descend_and_terminate(self):
        system = make_system()
        subscriber = system.create_subscriber()
        sub = subscribe(system, subscriber, 'class = "Quote" and symbol = "X"')
        state = subscriber._states[sub.subscription_id]
        # Root (stage 3) -> stage 2 -> stage 1: exactly two redirects.
        assert state.join_hops == 2
        assert state.joined


class TestWildcardRouting:
    def test_symbol_wildcard_attaches_above_stage_one(self):
        system = make_system()
        subscriber = system.create_subscriber("wild")
        # symbol unspecified -> wildcard on symbol and price.  symbol is
        # used up to stage 1 (uniform Gc on 3 attrs / 4 stages), so the
        # subscription attaches at stage 2.
        sub = subscribe(system, subscriber, 'class = "Quote"')
        home = subscriber.home_of(sub.subscription_id)
        assert home.stage == 2

    def test_class_only_gc_clamps_to_root(self):
        system = MultiStageEventSystem(stage_sizes=(4, 2, 1), seed=3)
        # symbol used at every broker stage: a symbol wildcard targets a
        # stage above the root and must clamp there.
        system.advertise("Quote", schema=SCHEMA, stage_prefixes=[3, 3, 3, 3])
        subscriber = system.create_subscriber()
        sub = subscribe(system, subscriber, 'class = "Quote"')
        assert subscriber.home_of(sub.subscription_id) is system.root

    def test_naive_mode_sends_wildcards_to_stage_one(self):
        system = make_system(wildcard_routing=False)
        subscriber = system.create_subscriber()
        sub = subscribe(system, subscriber, 'class = "Quote"')
        assert subscriber.home_of(sub.subscription_id).stage == 1

    def test_wildcard_subscriber_receives_everything_of_the_class(self):
        system = make_system()
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        got = []
        system.subscribe(
            subscriber, 'class = "Quote"', event_class="Quote",
            handler=lambda e, m, s: got.append(m["symbol"]),
        )
        system.drain()
        for symbol in ("A", "B", "C"):
            publisher.publish(Quote(symbol, 1.0), event_class="Quote")
        system.drain()
        assert got == ["A", "B", "C"]

    def test_second_similar_wildcard_clusters_at_same_node(self):
        system = make_system()
        homes = []
        for i in range(2):
            subscriber = system.create_subscriber(f"w{i}")
            sub = subscribe(system, subscriber, 'class = "Quote" and price < 9')
            homes.append(subscriber.home_of(sub.subscription_id))
        assert homes[0] is homes[1]


class TestForwarding:
    def test_event_forwarded_once_per_destination(self):
        system = make_system()
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        # Two subscriptions on the same subscriber -> two filters at its
        # home, both pointing at the same destination.
        subscribe(system, subscriber, 'class = "Quote" and symbol = "A" and price < 5')
        subscribe(system, subscriber, 'class = "Quote" and symbol = "A" and price < 9')
        publisher.publish(Quote("A", 1.0), event_class="Quote")
        system.drain()
        assert subscriber.counters.events_received == 1

    def test_non_matching_event_discarded_at_root(self):
        system = make_system()
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        subscribe(system, subscriber, 'class = "Quote" and symbol = "A"')
        publisher.publish(PropertyEvent({"class": "Other", "symbol": "A"}))
        system.drain()
        root = system.root
        assert root.counters.events_received == 1
        assert root.counters.events_matched == 0
        assert subscriber.counters.events_received == 0

    def test_match_counters(self):
        system = make_system()
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        subscribe(system, subscriber, 'class = "Quote" and symbol = "A"')
        publisher.publish(Quote("A", 1.0), event_class="Quote")
        publisher.publish(Quote("B", 1.0), event_class="Quote")
        system.drain()
        root = system.root
        assert root.counters.events_received == 2
        assert root.counters.events_matched == 2  # class filter matches both
        home = subscriber.home_of(subscriber.subscriptions()[0].subscription_id)
        assert home.counters.events_matched == 1  # symbol filter rejects B


class TestMaintenance:
    def test_purge_removes_silent_subscriber(self):
        system = make_system(ttl=10.0)
        subscriber = system.create_subscriber()
        subscribe(system, subscriber, 'class = "Quote" and symbol = "A"')
        system.start_maintenance()
        subscriber.stop_maintenance()  # the subscriber "crashes"
        # Decay cascades one stage at a time (a node only stops renewing a
        # filter after purging it), so allow ~3xTTL per broker stage.
        system.run_for(10 * 12)
        assert sum(len(n.table) for n in system.hierarchy.nodes()) == 0
        system.stop_maintenance()

    def test_renewing_subscriber_survives(self):
        system = make_system(ttl=10.0)
        subscriber = system.create_subscriber()
        subscribe(system, subscriber, 'class = "Quote" and symbol = "A"')
        system.start_maintenance()
        system.run_for(10 * 6)
        home = subscriber.home_of(subscriber.subscriptions()[0].subscription_id)
        assert len(home.table) == 1
        assert len(system.root.table) == 1
        system.stop_maintenance()

    def test_renewal_restores_purged_filter(self):
        """Refresh-or-restore: a parent that purged a live child's filter
        gets it back on the next renewal."""
        system = make_system(ttl=10.0)
        subscriber = system.create_subscriber()
        sub = subscribe(system, subscriber, 'class = "Quote" and symbol = "A"')
        home = subscriber.home_of(sub.subscription_id)
        stored = subscriber._states[sub.subscription_id].stored_filter
        # Simulate an erroneous purge at the home node.
        home.table.remove(stored, subscriber)
        home.leases.forget(stored, subscriber)
        assert len(home.table) == 0
        system.network.send(
            subscriber, home, Renewal(((stored, "Quote"),))
        )
        system.drain()
        assert len(home.table) == 1

    def test_unexpected_message_raises(self):
        system = make_system()
        system.drain()
        with pytest.raises(TypeError):
            system.root.receive("garbage", system.root)


class TestUnsubscribe:
    def test_explicit_unsubscribe_removes_at_home(self):
        system = make_system()
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        sub = subscribe(system, subscriber, 'class = "Quote" and symbol = "A"')
        home = subscriber.home_of(sub.subscription_id)
        subscriber.unsubscribe(sub.subscription_id)
        system.drain()
        assert len(home.table) == 0
        publisher.publish(Quote("A", 1.0), event_class="Quote")
        system.drain()
        assert subscriber.counters.events_delivered == 0

    def test_implicit_unsubscribe_keeps_table_until_expiry(self):
        system = make_system()
        subscriber = system.create_subscriber()
        sub = subscribe(system, subscriber, 'class = "Quote" and symbol = "A"')
        home = subscriber.home_of(sub.subscription_id)
        subscriber.unsubscribe(sub.subscription_id, explicit=False)
        system.drain()
        assert len(home.table) == 1  # decays only via TTL


class TestFlushBeforeControl:
    """The one thing a managed broker's queue does differently: a control
    message does not serve it first (see ``BrokerNode._flush_inbound``)."""

    def _publish_unsubscribe_publish(self, **options):
        """At one instant the subscriber's home receives an event, the
        subscriber's Unsubscribe, and a second event; returns how many of
        the two the home matched."""
        system = make_system(**options)
        publisher = system.create_publisher()
        subscriber = system.create_subscriber()
        sub = subscribe(system, subscriber, 'class = "Quote" and symbol = "A"')
        home = subscriber.home_of(sub.subscription_id)
        (stored,) = home.table.filters()
        first = publisher._marshal(Quote("A", 1.0), "Quote")
        second = publisher._marshal(Quote("A", 2.0), "Quote")
        home.receive(first, home.parent)
        assert home.queue_depth() == 1
        home.receive(Unsubscribe(stored, subscriber), subscriber)
        home.receive(second, home.parent)
        system.drain()
        assert home.queue_depth() == 0
        assert home.counters.events_received == 2
        return home.counters.events_matched

    def test_unmanaged_broker_serves_queued_events_first(self):
        assert self._publish_unsubscribe_publish() == 1

    @pytest.mark.parametrize(
        "options", [dict(service_rate=1000.0), dict(flow=FlowConfig())]
    )
    def test_managed_broker_leaves_them_to_the_service_loop(self, options):
        assert self._publish_unsubscribe_publish(**options) == 0


class TestCrashLifecycle:
    """A crash loses the soft state once, whoever asks how often, and the
    restart picks up what was *meant* to run (DESIGN §8)."""

    TTL = 2.0

    def maintained(self, **options):
        system = make_system(stage_sizes=(2, 1), ttl=self.TTL, **options)
        alice = system.create_subscriber("alice")
        got = []
        sub = subscribe(
            system,
            alice,
            'class = "Quote" and symbol = "A"',
            handler=lambda event, metadata, subscription: got.append(event),
        )
        system.start_maintenance()
        system.run_for(self.TTL / 4)
        return system, alice.home_of(sub.subscription_id), got

    def still_delivers(self, system, got):
        """A subscription below the broker outlives 4×TTL of its lease."""
        system.run_for(4 * self.TTL)
        system.create_publisher().publish(Quote("A", 1), event_class="Quote")
        system.run_for(self.TTL / 4)
        return len(got) == 1

    def test_a_broker_killed_twice_comes_back_maintained(self):
        """Regression: the second ``crash()`` recomputed "was maintained"
        from handles the first had already emptied, so the restarted
        broker never renewed or purged again and its subtree went silent
        after 3×TTL."""
        system, home, got = self.maintained()
        epochs = lambda: [s.epoch for s in home.links._senders.values()]

        system.kill(home)
        downed = epochs()
        system.kill(home)
        assert epochs() == downed  # nothing wiped a second time
        system.restore(home)

        assert home.armed_tasks() == ("renew", "purge")
        assert self.still_delivers(system, got)

    def test_of_two_overlapping_crash_windows_the_first_restart_wins(self):
        system, home, got = self.maintained()
        now = system.sim.now
        plan = FaultPlan(seed=1)
        plan.add_crash(home, at=now + 0.1, duration=0.3)
        plan.add_crash(home, at=now + 0.2, duration=0.4)
        system.network.install_faults(plan)
        system.run_for(0.35)
        assert home.crashed and soft_state_violations(home) == []
        system.run_for(0.1)  # first restart...
        incarnation = home.incarnation
        assert not home.crashed
        system.run_for(0.3)  # ...the second one finds a live broker
        assert home.incarnation == incarnation
        assert home.armed_tasks() == ("renew", "purge")
        assert self.still_delivers(system, got)

    def test_maintenance_stopped_while_down_stays_stopped(self):
        system, home, _ = self.maintained()
        system.kill(home)
        home.stop_maintenance()
        system.restore(home)
        assert home.armed_tasks() == () and not home.maintaining

    @pytest.mark.parametrize("options", [dict(), dict(compact=True)], ids=["plain", "compact"])
    def test_filters_held_does_not_survive_the_table_it_counts(self, options):
        """Regression: ``crash()`` swapped in an empty table without
        touching the gauge LC/RLC read, which kept the pre-crash count
        until the next insert."""
        system, home, _ = self.maintained(**options)
        system.create_publisher().publish(Quote("A", 1), event_class="Quote")
        system.run_for(0.1)  # compaction sizes the gauge on a match
        assert home.counters.filters_held == 1

        system.kill(home)

        assert len(home.table) == 0 and home.counters.filters_held == 0
        assert home.counters.max_filters_held == 1
        assert soft_state_violations(home) == []


class TestAckRouting:
    def test_an_ack_only_reaches_the_channel_of_the_peer_that_sent_it(self):
        """Regression: an ``Ack`` from any non-parent peer without a
        channel of its own was applied to the uplink sender — a stray
        ``Ack(0, 5)`` from a subscriber cleared a ``ReqInsert`` the
        parent never got and ended its retransmission."""
        system = make_system()
        system.drain()
        leaf = system.hierarchy.stage1_nodes()[0]
        now = system.sim.now
        plan = FaultPlan(seed=1)
        plan.add_window(now, now + 0.5, loss=1.0, links=[(leaf, leaf.parent)])
        system.network.install_faults(plan)
        alice = system.create_subscriber("alice")
        system.subscribe(
            alice, 'class = "Quote" and symbol = "A"', event_class="Quote", at_node=leaf
        )
        system.run_for(0.01)  # the leaf's ReqInsert died on the uplink
        assert len(leaf.table) == 1 and not leaf.uplink_idle

        leaf.receive(Ack(0, 5), alice)

        assert not leaf.uplink_idle  # still un-acked...
        system.drain()  # ...and retransmitted until the window lifts
        assert leaf.counters.control_retransmits > 0
        assert leaf.uplink_idle
        assert covering_violations(system.hierarchy, system.sim.now) == []
        assert placement_violations(system.hierarchy) == []

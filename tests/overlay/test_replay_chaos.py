"""Chaos-replay: crash a broker mid-run, restart it, replay from the
last acked offset, and audit exactly-once end to end.

Every run closes with :func:`verify_exactly_once` diffing the root
log against the delivery trace: zero gaps and zero duplicates outside
the fault windows, across seeds (the ISSUE's satellite 4).  The test
names carry ``chaos`` so CI's fault-path smoke job picks them up.
"""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.flow import FlowConfig
from repro.log import AuditSubscription, LogConfig, verify_exactly_once
from repro.overlay.invariants import credit_violations, soft_state_violations
from repro.sim.network import FaultPlan

SCHEMA = ("class", "symbol", "price")
SEEDS = [7, 11, 23]


class Quote:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


def make_system(seed, **kwargs):
    defaults = dict(
        stage_sizes=(4, 2, 1),
        seed=seed,
        ttl=30.0,
        tracing=True,
        flow=FlowConfig(),
        log=LogConfig(),
    )
    defaults.update(kwargs)
    system = MultiStageEventSystem(**defaults)
    system.advertise("Quote", schema=SCHEMA)
    system.drain()
    return system


def pinned_subscriber(system, name):
    subscriber = system.create_subscriber(name)
    got = []
    home = system.hierarchy.stage1_nodes()[0]
    subscriptions = system.subscribe(
        subscriber,
        'symbol = "Foo"',
        event_class="Quote",
        handler=lambda e, m, s: got.append(m["price"]),
        at_node=home,
    )
    system.drain()
    return subscriber, subscriptions[0], got


def publish_range(system, publisher, start, stop, dt=0.01):
    for i in range(start, stop):
        publisher.publish(Quote("Foo", float(i)), event_class="Quote")
        system.run_for(dt)


def run_crash_recovery(seed, loss_during_crash=0.0):
    """Crash the subscriber's stage-2 ancestor mid-run; restart;
    auto-recovery replays from its last acked offset."""
    system = make_system(seed)
    publisher = system.create_publisher("quotes")
    subscriber, subscription, got = pinned_subscriber(system, f"alice-{seed}")
    mid = system.hierarchy.stage1_nodes()[0].parent

    publish_range(system, publisher, 0, 15)
    system.drain()
    assert len(got) == 15

    crash_at = system.sim.now
    mid.crash()
    if loss_during_crash:
        plan = FaultPlan(seed)
        plan.add_window(
            crash_at, crash_at + 2.0, loss=loss_during_crash
        )
        system.network.install_faults(plan)
    publish_range(system, publisher, 15, 30)
    system.run_for(1.0)
    # Nothing reached the subscriber through the dead broker, or it.
    assert len(got) == 15
    assert soft_state_violations(mid) == []

    mid.restart()
    system.run_for(8.0)
    recovered_at = system.sim.now
    # Recovery replay spent credits like live traffic: all are home.
    assert credit_violations(system, quiescent=not loss_during_crash) == []
    return system, subscriber, subscription, got, mid, (crash_at, recovered_at)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_crash_recovery_replays_missed_events(seed):
    system, subscriber, subscription, got, mid, window = run_crash_recovery(seed)

    # The replay closed the hole: every event delivered exactly once.
    assert sorted(got) == [float(i) for i in range(30)]
    assert len(got) == 30
    # Recovery really was a replay (the root re-sent logged events, the
    # restarted broker deduped the ones it had already processed).
    assert system.root.counters.replay_events_sent > 0
    assert mid.log.next_offset == 30

    report = verify_exactly_once(
        system.root.log,
        system.tracer,
        [AuditSubscription(subscriber.name, subscription.filter)],
        fault_windows=[window],
    )
    assert report.clean, report.render()
    assert report.expected == 30
    assert report.delivered == 30
    assert report.findings == []


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_crash_recovery_with_lossy_wire_audits_clean(seed):
    """Wire loss overlapping the crash: deliveries may legitimately gap
    inside the fault window, but the audit stays clean outside it."""
    system, subscriber, subscription, got, mid, window = run_crash_recovery(
        seed, loss_during_crash=0.15
    )
    report = verify_exactly_once(
        system.root.log,
        system.tracer,
        [AuditSubscription(subscriber.name, subscription.filter)],
        fault_windows=[window],
    )
    assert report.clean, report.render()
    # And no duplicates anywhere — loss never excuses a double delivery
    # here because replay dedup is content-addressed, not fault-masked.
    assert report.duplicates == []


def test_chaos_recovery_resumes_from_last_acked_offset():
    """With a small rewind the restarted broker asks only for the tail
    after its last acked (root-assigned) offset, not the whole log."""
    system = make_system(7, log=LogConfig(recovery_rewind=4))
    publisher = system.create_publisher("quotes")
    subscriber, subscription, got = pinned_subscriber(system, "alice")
    mid = system.hierarchy.stage1_nodes()[0].parent

    publish_range(system, publisher, 0, 20)
    system.drain()
    acked = mid.log.max_source_offset
    assert acked == 19

    mid.crash()
    assert soft_state_violations(mid) == []
    publish_range(system, publisher, 20, 30)
    system.run_for(1.0)
    mid.restart()
    system.run_for(8.0)

    assert sorted(got) == [float(i) for i in range(30)]
    # last acked (19) - rewind (4) -> replay starts at offset 16: the
    # root re-sent the 14 records from 16..29, nowhere near all 30.
    assert system.root.counters.replay_events_sent == 14
    assert credit_violations(system, quiescent=True) == []
    # The rewound overlap (16..19) was already logged: deduped, not
    # re-delivered.
    assert mid.counters.replay_dupes_discarded == 4


def test_chaos_scheduled_crash_via_fault_plan():
    """Same invariant with the crash injected by the fault plan rather
    than called by hand (plan-driven chaos is what the bench gate runs)."""
    system = make_system(11)
    publisher = system.create_publisher("quotes")
    subscriber, subscription, got = pinned_subscriber(system, "alice")
    mid = system.hierarchy.stage1_nodes()[0].parent

    plan = FaultPlan(11)
    plan.add_crash(mid, at=0.2, duration=0.5)
    system.network.install_faults(plan)

    publish_range(system, publisher, 0, 20, dt=0.02)
    assert mid.crashed and soft_state_violations(mid) == []
    publish_range(system, publisher, 20, 40, dt=0.02)
    system.run_for(8.0)

    assert sorted(got) == [float(i) for i in range(40)]
    assert credit_violations(system, quiescent=True) == []
    report = verify_exactly_once(
        system.root.log,
        system.tracer,
        [AuditSubscription(subscriber.name, subscription.filter)],
        fault_windows=[(0.2, 0.7)],
    )
    assert report.clean, report.render()

"""Chaos-replay: crash a broker mid-run, restart it, replay from the
last acked offset, and check exactly-once end to end.

Every run is a schedule of :mod:`repro.experiments.scenario` steps and
closes with the harness's :func:`check`: every event published outside
the crash delivered exactly once, against the oracle — across seeds.
The test names carry ``chaos`` so CI's fault-path smoke job picks them
up.
"""

import pytest

from repro.experiments.scenario import Scenario, check
from repro.flow import FlowConfig
from repro.log import LogConfig
from repro.overlay.invariants import credit_violations, soft_state_violations

SEEDS = [7, 11, 23]
TEXT = 'symbol = "Foo"'


def make_scenario(seed, **system):
    """A system with §4.3 maintenance on: a ``ChannelReset`` lost to a
    lossy wire is made good by the next renewal."""
    scenario = Scenario(
        **{
            "stage_sizes": (4, 2, 1),
            "seed": seed,
            "ttl": 30.0,
            "flow": FlowConfig(),
            "log": LogConfig(),
            **system,
        }
    )
    scenario.start()
    return scenario


def pinned_subscriber(scenario, name):
    """Subscribe ``name`` at the first stage-1 broker and give the join
    time; returns that broker's parent, the broker the runs crash."""
    home = scenario.system.hierarchy.stage1_nodes()[0]
    scenario.apply([("subscribe", name, TEXT, home.name), ("run", 0.5)])
    return home.parent


def quotes(start, stop, dt=0.01):
    return [
        step
        for price in range(start, stop)
        for step in (("publish", [{"symbol": "Foo", "price": float(price)}], "quotes"), ("run", dt))
    ]


def got(scenario):
    """The prices the one subscription received, in arrival order."""
    return [scenario.events[uid].metadata["price"] for _, uid in scenario.log]


def run_crash_recovery(seed, loss_during_crash=0.0):
    """Crash the subscriber's stage-2 ancestor mid-run; restart;
    auto-recovery replays from its last acked offset."""
    scenario = make_scenario(seed)
    mid = pinned_subscriber(scenario, f"alice-{seed}")

    scenario.apply(quotes(0, 15) + [("run", 1.0)])
    assert len(got(scenario)) == 15

    scenario.kill(mid.name)
    if loss_during_crash:
        scenario.window(2.0, loss=loss_during_crash)
    scenario.apply(quotes(15, 30) + [("run", 1.0)])
    # Nothing reached the subscriber through the dead broker, or it.
    assert len(got(scenario)) == 15
    assert soft_state_violations(mid) == []

    scenario.apply([("restore", mid.name), ("run", 8.0)])
    # Recovery replay spent credits like live traffic: all are home.
    assert credit_violations(scenario.system, quiescent=not loss_during_crash) == []
    return scenario, mid


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_crash_recovery_replays_missed_events(seed):
    scenario, mid = run_crash_recovery(seed)

    # The replay closed the hole: every event delivered exactly once.
    assert sorted(got(scenario)) == [float(i) for i in range(30)]
    assert len(got(scenario)) == 30
    # Recovery really was a replay (the root re-sent logged events, the
    # restarted broker deduped the ones it had already processed).
    assert scenario.system.root.counters.replay_events_sent > 0
    assert mid.log.next_offset == 30

    assert check(scenario) == []
    assert sum(len(event.expected) for event in scenario.events) == 30
    assert scenario.score(range(30)) == (1.0, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_crash_recovery_with_lossy_wire_audits_clean(seed):
    """Wire loss overlapping the crash: deliveries may legitimately gap
    inside the fault window, but the check stays clean outside it."""
    scenario, _ = run_crash_recovery(seed, loss_during_crash=0.15)
    assert check(scenario) == []
    # And no duplicates anywhere — loss never excuses a double delivery
    # here because replay dedup is content-addressed, not fault-masked.
    assert scenario.score(range(len(scenario.events)))[1] <= 1


def test_chaos_recovery_resumes_from_last_acked_offset():
    """With a small rewind the restarted broker asks only for the tail
    after its last acked (root-assigned) offset, not the whole log."""
    scenario = make_scenario(7, log=LogConfig(recovery_rewind=4))
    mid = pinned_subscriber(scenario, "alice")

    scenario.apply(quotes(0, 20) + [("run", 1.0)])
    acked = mid.log.max_source_offset
    assert acked == 19

    scenario.kill(mid.name)
    assert soft_state_violations(mid) == []
    scenario.apply(quotes(20, 30) + [("run", 1.0), ("restore", mid.name), ("run", 8.0)])

    assert sorted(got(scenario)) == [float(i) for i in range(30)]
    # last acked (19) - rewind (4) -> replay starts at offset 16: the
    # root re-sent the 14 records from 16..29, nowhere near all 30.
    assert scenario.system.root.counters.replay_events_sent == 14
    assert credit_violations(scenario.system, quiescent=True) == []
    # The rewound overlap (16..19) was already logged: deduped, not
    # re-delivered.
    assert mid.counters.replay_dupes_discarded == 4


def test_chaos_scheduled_crash_via_fault_plan():
    """Same invariant with the crash a step of the schedule whose
    restart the kernel runs by itself (``kill`` with a duration), as in
    the chaos and replay sweeps the bench gates run."""
    scenario = make_scenario(11)
    mid = pinned_subscriber(scenario, "alice")

    scenario.apply(quotes(0, 10, dt=0.02) + [("kill", mid.name, 0.5)] + quotes(10, 20, dt=0.02))
    assert mid.crashed and soft_state_violations(mid) == []
    scenario.apply(quotes(20, 40, dt=0.02) + [("run", 8.0)])

    assert sorted(got(scenario)) == [float(i) for i in range(40)]
    assert credit_violations(scenario.system, quiescent=True) == []
    assert check(scenario) == []

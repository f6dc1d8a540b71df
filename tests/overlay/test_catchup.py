"""Catch-up subscribers: late joiners drain history, then go live.

The headline differential: a subscriber that joins *late* and catches
up from offset 0 must, after switchover, show a post-switchover
delivery trace byte-identical to a subscriber that was there from the
start — across seeds, with and without wire faults during the history
it replays.  Plus targeted tests for replay origins (offset, ISO
timestamp), flow-credit pacing of history, handover dedup, and the
harness's exactly-once check over a whole catch-up run.  Every run is a
schedule of :mod:`repro.experiments.scenario` steps.
"""

import pytest

from repro.experiments.scenario import Scenario, check
from repro.flow import FlowConfig
from repro.log import LogConfig, format_point

TEXT = 'symbol = "Foo"'
#: The stage-1 broker every subscription here is pinned to.
HOME = "N1.1"


def make_scenario(seed, **system):
    return Scenario(
        **{
            "stage_sizes": (4, 2, 1),
            "seed": seed,
            "ttl": 30.0,
            "flow": FlowConfig(),
            "log": LogConfig(),
            **system,
        }
    )


def join(name):
    """Subscribe ``name`` at :data:`HOME`, and give the join time."""
    return [("subscribe", name, TEXT, HOME), ("run", 0.5)]


def quotes(start, stop, dt=0.01):
    return [
        step
        for price in range(start, stop)
        for step in (("publish", [{"symbol": "Foo", "price": float(price)}], "quotes"), ("run", dt))
    ]


def got(scenario, key):
    """The ``key``-th subscription's deliveries, in arrival order."""
    sid = scenario.keys[key][1]
    return [
        (scenario.events[uid].metadata["symbol"], scenario.events[uid].metadata["price"])
        for delivered, uid in scenario.log
        if delivered == sid
    ]


def prices(scenario, key):
    return [price for _, price in got(scenario, key)]


def drain_catch_up(scenario, key, budget=30.0):
    """Run until the catch-up session has switched to live."""
    subscriber, sid = scenario.keys[key]
    elapsed = 0.0
    while not subscriber.catch_up_live(sid) and elapsed < budget:
        scenario.run(0.25)
        elapsed += 0.25
    assert subscriber.catch_up_live(sid), "catch-up never reached live"


def late_catch_up(scenario, name, **origin):
    """A late joiner asks for history from ``origin``; returns its key."""
    scenario.apply(join(name))
    key = len(scenario.keys) - 1
    scenario.catch_up(key, **origin)
    return key


# ----------------------------------------------------------------------
# The differential: catch-up == from-the-start, post-switchover
# ----------------------------------------------------------------------


def run_differential(seed, faults):
    scenario = make_scenario(seed)
    scenario.apply(join(f"veteran-{seed}"))
    if faults:
        # Loss and duplication across the event's whole downstream path
        # while the history the late joiner will replay is published.
        scenario.window(0.1, loss=0.2, duplicate=0.2, start=0.05)
    # Retransmissions settle; the fault window is long over.
    scenario.apply(quotes(0, 20) + [("run", 1.0)])

    late = late_catch_up(scenario, f"late-{seed}", from_offset=0)
    drain_catch_up(scenario, late)
    switchover_len = len(got(scenario, late))

    scenario.apply(quotes(20, 40) + [("run", 1.0)])
    return scenario, late, switchover_len


@pytest.mark.parametrize("seed", [7, 11, 23])
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulty"])
def test_catch_up_differential_post_switchover_traces_identical(seed, faults):
    scenario, late, switchover_len = run_differential(seed, faults)
    veteran_got, late_got = got(scenario, 0), got(scenario, late)

    # Post-switchover: both subscribers saw the live phase byte-for-byte
    # identically (same events, same order, no gap, no duplicate).
    live_phase = [d for d in veteran_got if d[1] >= 20.0]
    late_live = late_got[switchover_len:]
    assert repr(late_live).encode() == repr(live_phase).encode()
    assert [d[1] for d in late_live] == [float(i) for i in range(20, 40)]

    # And history made the late joiner whole: it holds every logged
    # phase-1 event exactly once, in log order.
    fence = 20 if not faults else None
    history = late_got[:switchover_len]
    logged = [
        r.envelope.metadata["price"]
        for r in scenario.system.root.log.read_from(0)
        if r.envelope.metadata["price"] < 20.0
    ]
    assert [d[1] for d in history] == logged
    if fence is not None:
        assert len(history) == fence


@pytest.mark.parametrize("seed", [7, 11, 23])
def test_catch_up_run_audits_exactly_once(seed):
    scenario, _, _ = run_differential(seed, faults=False)
    assert check(scenario) == []
    # 40 events x 2 subscribers owed, every one delivered exactly once.
    assert sum(len(event.expected) for event in scenario.events) == 80
    assert scenario.score(range(len(scenario.events))) == (1.0, 1)


# ----------------------------------------------------------------------
# Replay origins
# ----------------------------------------------------------------------


def test_catch_up_from_mid_offset_gets_only_the_suffix():
    scenario = make_scenario(5)
    scenario.apply(quotes(0, 12) + [("run", 1.0)])

    late = late_catch_up(scenario, "late", from_offset=7)
    drain_catch_up(scenario, late)
    assert prices(scenario, late) == [float(i) for i in range(7, 12)]
    subscriber, sid = scenario.keys[late]
    stats = subscriber.catch_up_stats(sid)
    assert stats["history_delivered"] == 5


def test_catch_up_from_iso_timestamp():
    scenario = make_scenario(5)
    scenario.apply(quotes(0, 6, dt=1.0) + [("run", 1.0)])  # one event per second

    cut = scenario.system.root.log.record_at(3).time
    late = late_catch_up(scenario, "late", from_time=format_point(cut))
    drain_catch_up(scenario, late)
    assert prices(scenario, late) == [3.0, 4.0, 5.0]


def test_catch_up_with_empty_history_goes_live_immediately():
    scenario = make_scenario(5)
    late = late_catch_up(scenario, "late", from_offset=0)
    drain_catch_up(scenario, late)
    subscriber, sid = scenario.keys[late]
    assert subscriber.catch_up_stats(sid)["history_delivered"] == 0
    scenario.apply(quotes(0, 5) + [("run", 0.5)])
    assert prices(scenario, late) == [float(i) for i in range(5)]


# ----------------------------------------------------------------------
# Flow composition: history is credit-paced
# ----------------------------------------------------------------------


def test_history_replay_respects_replay_rate():
    scenario = make_scenario(5, log=LogConfig(replay_rate=50.0, replay_batch=5))
    scenario.apply(quotes(0, 60, dt=0.001) + [("run", 1.0)])

    scenario.apply(join("late"))
    start = scenario.system.sim.now
    scenario.catch_up(0, from_offset=0)
    drain_catch_up(scenario, 0)
    elapsed = scenario.system.sim.now - start
    assert len(got(scenario, 0)) == 60
    # 60 records at 50/s cannot complete faster than ~1.1s of simulated
    # time (first batch fires after one inter-batch interval).
    assert elapsed >= 1.0


def test_history_replay_is_bounded_by_link_credits():
    """With a tiny downlink window and a huge nominal rate, pacing is
    credit-driven: the replayer can never have more than ``link_window``
    unacknowledged history events outstanding."""
    scenario = make_scenario(
        5,
        flow=FlowConfig(link_window=4),
        log=LogConfig(replay_rate=1e6, replay_batch=64),
    )
    scenario.apply(quotes(0, 40, dt=0.001) + [("run", 1.0)])

    late = late_catch_up(scenario, "late", from_offset=0)
    drain_catch_up(scenario, late)
    assert len(got(scenario, late)) == 40
    # The 64-wide batches had to be squeezed through a 4-credit window:
    # the root recorded stalls while pumping history.
    assert scenario.system.root.counters.credit_stalls > 0

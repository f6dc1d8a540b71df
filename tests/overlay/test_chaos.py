"""Control-plane reliability under faults: channel semantics, retransmission,
crash recovery, and the partition -> publish -> heal differential.

All test names carry the ``chaos`` marker-by-name so CI can run
``pytest -k chaos`` as a fast fault-path smoke job.
"""

import pytest

from repro.experiments.chaos import ChaosConfig, run_chaos
from repro.experiments.scenario import Scenario, check
from repro.flow import FlowConfig
from repro.overlay.channel import (
    DEFAULT_RTO,
    PeerLinks,
    ReliableReceiver,
    ReliableSender,
)
from repro.overlay.invariants import (
    covering_violations,
    placement_violations,
    soft_state_violations,
)
from repro.overlay.messages import Ack, ChannelReset, Sequenced
from repro.sim.kernel import Process, Simulator
from repro.sim.network import FaultPlan
from repro.workloads.telemetry import (
    TELEMETRY_EVENT_CLASS,
    TELEMETRY_SCHEMA,
    TelemetryWorkload,
)


SCHEMA = ("class", "price", "symbol")
#: Stage 1 keeps the full schema, stage 2 keeps (class, price), the root
#: keeps class only (same layout as the aggregation tests).
PREFIXES = (3, 3, 2, 1)


def make_scenario(**kwargs):
    """The harness over a (4, 2, 1) tree; its system is ``.system``."""
    return Scenario(
        SCHEMA, PREFIXES, **{"stage_sizes": (4, 2, 1), "seed": 5, "ttl": 10.0, **kwargs}
    )


def pinned(scenario, name, text, drain=True):
    """``name`` subscribes at the first stage-1 node, which is returned."""
    home = scenario.system.hierarchy.stage1_nodes()[0]
    scenario.subscribe(name, text, home.name)
    if drain:
        scenario.system.drain()
    return scenario.process(name), home


def traces(scenario):
    """(symbol, price) of every delivery, by subscriber, in order."""
    names = {sid: subscriber.name for subscriber, sid in scenario.keys}
    found = {}
    for sid, uid in scenario.log:
        metadata = scenario.events[uid].metadata
        found.setdefault(names[sid], []).append((metadata["symbol"], metadata["price"]))
    return found


# ----------------------------------------------------------------------
# Reliable channel unit semantics
# ----------------------------------------------------------------------


class _Wire:
    def __init__(self):
        self.frames = []
        self.retransmits = 0

    def send(self, frame):
        self.frames.append(frame)

    def on_retransmit(self, count):
        self.retransmits += count


def test_chaos_channel_delivers_reordered_frames_in_order():
    receiver = ReliableReceiver()
    delivered = []
    f0 = Sequenced(0, 0, "a")
    f1 = Sequenced(0, 1, "b")
    f2 = Sequenced(0, 2, "c")
    ack = receiver.on_frame(f0, delivered.append)
    assert ack == Ack(0, 0)
    # seq 2 arrives before seq 1: buffered, not delivered.
    ack = receiver.on_frame(f2, delivered.append)
    assert ack == Ack(0, 0)
    assert delivered == ["a"]
    # seq 1 releases both.
    ack = receiver.on_frame(f1, delivered.append)
    assert ack == Ack(0, 2)
    assert delivered == ["a", "b", "c"]


def test_chaos_channel_discards_duplicates_and_reacks():
    receiver = ReliableReceiver()
    delivered = []
    receiver.on_frame(Sequenced(0, 0, "a"), delivered.append)
    ack = receiver.on_frame(Sequenced(0, 0, "a"), delivered.append)
    assert delivered == ["a"]
    assert receiver.dups_discarded == 1
    assert ack == Ack(0, 0)  # duplicate still re-acked (ack was lost)


def test_chaos_channel_new_epoch_resets_numbering():
    receiver = ReliableReceiver()
    delivered = []
    receiver.on_frame(Sequenced(0, 0, "old"), delivered.append)
    # Sender restarted: epoch 1 starts over at seq 0.
    ack = receiver.on_frame(Sequenced(1, 0, "new"), delivered.append)
    assert delivered == ["old", "new"]
    assert ack == Ack(1, 0)
    # Stragglers from the dead epoch are dropped, not delivered.
    ack = receiver.on_frame(Sequenced(0, 1, "stale"), delivered.append)
    assert delivered == ["old", "new"]
    assert ack.epoch == 1


def test_chaos_channel_fresh_receiver_adopts_midstream():
    # A receiver that lost its state (restart) sees seq 7 first: it adopts
    # the position instead of waiting forever for seq 0.
    receiver = ReliableReceiver()
    delivered = []
    ack = receiver.on_frame(Sequenced(3, 7, "x"), delivered.append)
    assert delivered == ["x"]
    assert ack == Ack(3, 7)


def test_chaos_sender_retransmits_until_acked():
    sim = Simulator()
    wire = _Wire()
    sender = ReliableSender(sim, wire.send, wire.on_retransmit)
    sender.send("payload")
    assert len(wire.frames) == 1
    # No ack: the frame goes out again after each (doubling) timeout.
    sim.run(until=DEFAULT_RTO * 3.5)
    assert len(wire.frames) == 3
    assert wire.retransmits == 2
    assert not sender.idle
    sender.on_ack(Ack(0, 0))
    assert sender.idle
    sim.run()
    assert len(wire.frames) == 3  # ack disarmed the timer


def test_chaos_stale_timer_from_dead_epoch_is_inert():
    """Regression: a retransmit timer armed in epoch N must do nothing
    when it fires after a reset bumped the channel to epoch N+1 — and
    must not null out the live epoch's timer reference, which would let
    the live channel arm a second timer and run two concurrent
    retransmit loops."""
    sim = Simulator()
    wire = _Wire()
    sender = ReliableSender(sim, wire.send, wire.on_retransmit)
    sender.send("old")  # arms the epoch-0 timer
    sender.reset()  # epoch 1: cancels the timer...
    sender.send("new")  # live epoch-1 frame + fresh timer
    live_timer = sender._timer
    frames_before = len(wire.frames)
    # ...but simulate the race where the stale callback still runs (it
    # escaped cancellation in the same instant as the reset).
    sender._on_timeout(0)
    assert len(wire.frames) == frames_before  # no dead-epoch retransmit
    assert wire.retransmits == 0
    assert sender._timer is live_timer  # live timer reference untouched
    # The live channel still retransmits normally afterwards.
    sim.run(until=DEFAULT_RTO * 1.5)
    assert wire.retransmits == 1
    assert wire.frames[-1].epoch == 1


def test_chaos_peer_channel_state_keyed_by_stable_name():
    """Regression: the restart history and the receivers used to key by
    ``id(sender)``; after the old peer object was garbage-collected a
    recycled id could inherit its incarnation and silently discard the
    new peer's legitimate ChannelReset.  Channel history must follow the
    stable process *name* (unique per network), not the object.  Each
    reset arrives as the wire carries it: the first frame of the
    restarted peer's channel, at epoch ``incarnation << 32``."""
    scenario = make_scenario()
    system = scenario.system
    pinned(scenario, "alice", 'class = "Quote" and price < 10')
    home = system.hierarchy.stage1_nodes()[0]
    parent = home.parent
    # The reliable control traffic above left receiver state at the
    # parent, keyed by the child's name.
    assert home.name in parent.links._receivers
    # A reset from the child is recorded under its name and moves the
    # channel to the new incarnation.
    parent.receive(Sequenced(1 << 32, 0, ChannelReset(1)), home)
    assert parent.links._incarnations[home.name] == 1
    assert parent.links._receivers[home.name].epoch == 1 << 32
    # The same identity re-announcing through a *different* object (the
    # restarted process, old object gone): a duplicate of incarnation 1
    # is recognized and ignored, and so is a dead incarnation's frame...
    system.network.forget(home)
    reborn = Process(system.sim, home.name)
    dups = parent.counters.control_dups_discarded
    parent.receive(Sequenced(1 << 32, 0, ChannelReset(1)), reborn)
    assert parent.counters.control_dups_discarded == dups + 1
    parent.receive(Sequenced(0, 7, ChannelReset(0)), reborn)
    assert parent.links._incarnations[home.name] == 1
    # ...while a newer incarnation from it applies.
    parent.receive(Sequenced(2 << 32, 0, ChannelReset(2)), reborn)
    assert parent.links._incarnations[home.name] == 2
    assert parent.links._receivers[home.name].epoch == 2 << 32


def test_chaos_sender_reset_opens_new_epoch():
    sim = Simulator()
    wire = _Wire()
    sender = ReliableSender(sim, wire.send, wire.on_retransmit)
    sender.send("a")
    sender.reset()
    sender.send("b")
    assert wire.frames[-1].epoch == 1
    assert wire.frames[-1].seq == 0
    # Acks for the dead epoch are ignored.
    sender.on_ack(Ack(0, 5))
    assert not sender.idle
    sender.on_ack(Ack(1, 0))
    assert sender.idle
    sim.run()


# ----------------------------------------------------------------------
# Overlay under injected faults
# ----------------------------------------------------------------------


def test_chaos_lost_reqinsert_is_retransmitted():
    """Total loss on the uplink during the join: the reliable channel
    must deliver the req-Insert once the window closes."""
    scenario = make_scenario()
    system = scenario.system
    home = system.hierarchy.stage1_nodes()[0]
    plan = FaultPlan(seed=1)
    plan.add_window(0.0, 0.5, loss=1.0, links=[(home, home.parent)])
    system.network.install_faults(plan)

    pinned(scenario, "alice", 'class = "Quote" and price < 10')

    assert home.counters.control_retransmits > 0
    assert covering_violations(system.hierarchy, system.sim.now) == []
    assert placement_violations(system.hierarchy) == []
    # And the filter actually routes: a matching event arrives.
    pinned(scenario, "bob", 'class = "Quote" and price < 10')
    scenario.publish([{"symbol": "X", "price": 5}])
    system.drain()
    assert traces(scenario)["bob"] == [("X", 5)]


def _assert_quiet_after_crash(system):
    """A crashed process owns no live timer: the run ends.  (Bounded
    first — the retransmit chain this guards against never ended.)"""
    system.sim.run(max_events=2000)
    assert system.sim.pending_events == 0
    system.drain()


def test_chaos_crashed_subscriber_stops_retransmitting():
    """Regression: only ``BrokerNode.crash()`` reset its senders.  A
    subscriber that died with an un-acked control frame kept
    retransmitting it into its own crash gate, backing off to one frame
    every 2 s, forever — ``drain()`` never returned."""
    scenario = make_scenario()
    system = scenario.system
    alice, home = pinned(scenario, "alice", 'class = "Quote" and price < 10')
    alice.unsubscribe(alice.subscriptions()[0].subscription_id)
    assert not alice.control_idle  # one frame on the wire, un-acked...
    alice.crash()  # ...when the process dies
    _assert_quiet_after_crash(system)
    assert alice.counters.control_retransmits == 0
    assert alice.control_idle

    # The next incarnation's first control send opens its epochs at
    # ``1 << 32``, which the home — still holding the old epoch's
    # position — accepts as the restart it is.
    alice.restart()
    (subscription,) = system.subscribe(
        alice, 'class = "Quote" and price < 20', event_class="Quote", at_node=home
    )
    system.drain()
    assert any(alice in ids for _, ids in home.table.entries())
    alice.unsubscribe(subscription.subscription_id)
    system.drain()
    assert home.links._receivers[alice.name].epoch == 1 << 32
    assert not any(alice in ids for _, ids in home.table.entries())
    assert alice.control_idle
    assert alice.counters.control_retransmits == 0


def test_chaos_crashed_registrar_stops_retransmitting():
    """Regression: the same endless chain from a ``FlowRegistrar`` that
    died with an un-acked ``FlowInstall``."""
    scenario = make_scenario()
    system = scenario.system
    workload = TelemetryWorkload(
        system.rngs.stream("telemetry"), n_regions=2, sensors_per_region=2
    )
    system.advertise(TELEMETRY_EVENT_CLASS, schema=TELEMETRY_SCHEMA)
    system.drain()
    spec = workload.rollup_flow()
    registrar = system.install_flows([spec])  # on the wire, un-acked...
    registrar.crash()  # ...when the process dies
    _assert_quiet_after_crash(system)
    assert registrar.control_retransmits == 0
    assert system.root.flows() == (spec.name,)  # the copy in flight arrived

    registrar.restart()
    registrar.remove(system.root, spec.name)
    system.drain()
    assert system.root.links._receivers[registrar.name].epoch == 1 << 32
    assert system.root.flows() == ()
    assert registrar.links.idle
    assert registrar.control_retransmits == 0


@pytest.mark.parametrize("flow", [None, FlowConfig()], ids=["plain", "flow"])
def test_chaos_a_reset_lost_with_maintenance_off_is_retried(flow):
    """A restarted stage-2 broker's ``ChannelReset`` is lost to a 10 ms
    window of total loss, and with maintenance off no renewal would ever
    come: it rides the reliable channel, so it is retransmitted until
    the child hears it and renews, and the next event is delivered.
    Sent fire-and-forget, the overlay never converged."""
    scenario = make_scenario(**({} if flow is None else {"flow": flow}))
    scenario.apply(
        [
            ("subscribe", "alice", 'class = "Quote" and price < 10', "N1.1"),
            ("run", 1.0),
            ("kill", "N2.1"),
            ("window", 0.01, 1.0),
            ("restore", "N2.1"),
            ("run", 0.5),
            ("publish", [{"symbol": "X", "price": 5}]),
            ("run", 1.0),
        ]
    )
    assert check(scenario) == []
    assert traces(scenario) == {"alice": [("X", 5)]}
    assert scenario.brokers["N2.1"].state == "serving"


@pytest.mark.parametrize("kind", ["subscriber", "publisher", "registrar"])
def test_chaos_a_second_crash_of_a_dead_edge_process_wipes_nothing_new(monkeypatch, kind):
    """``crash()`` on a process that is already down is a no-op for every
    process kind: its links are reset once (a second reset would move
    every sender one more epoch on), nothing is cancelled twice, and the
    restart resumes what the first crash interrupted."""
    scenario = make_scenario()
    system = scenario.system
    if kind == "subscriber":
        process, _ = pinned(scenario, "alice", 'class = "Quote" and price < 10')
    elif kind == "publisher":
        process = system.create_publisher("feed")
    else:
        system.advertise(TELEMETRY_EVENT_CLASS, schema=TELEMETRY_SCHEMA)
        workload = TelemetryWorkload(
            system.rngs.stream("telemetry"), n_regions=2, sensors_per_region=2
        )
        process = system.install_flows([workload.rollup_flow()])
        system.drain()
    if kind != "publisher":
        process.start_maintenance()
    resets, reset = [], PeerLinks.reset
    monkeypatch.setattr(
        PeerLinks, "reset", lambda links: (resets.append(links.owner), reset(links))
    )

    process.crash()
    cancelled = system.sim.cancelled_pending
    process.crash()
    assert resets == [process]
    assert system.sim.cancelled_pending == cancelled

    process.restart()
    incarnation = process.incarnation
    process.restart()  # and a second restart finds a live process
    assert process.incarnation == incarnation
    if kind != "publisher":
        assert process.armed_tasks() == ("renew",)  # maintenance resumed
        process.stop_maintenance()
    system.drain()


def test_chaos_duplicated_control_frames_apply_once():
    """100% duplication on the uplink: duplicate frames are discarded and
    the routing state is exactly what a clean run produces."""
    scenario = make_scenario()
    system = scenario.system
    home = system.hierarchy.stage1_nodes()[0]
    plan = FaultPlan(seed=2)
    plan.add_window(0.0, 5.0, duplicate=1.0, links=[(home, home.parent)])
    system.network.install_faults(plan)

    pinned(scenario, "alice", 'class = "Quote" and price < 10')

    assert home.parent.counters.control_dups_discarded > 0
    routed = [
        f
        for f, ids in home.parent.table.entries()
        if any(d is home for d in ids)
    ]
    assert len(routed) == 1  # applied once, not once per copy
    assert covering_violations(system.hierarchy, system.sim.now) == []
    assert placement_violations(system.hierarchy) == []


def test_chaos_broker_crash_recovery_rebuilds_tables():
    """A crashed stage-2 broker loses all soft state; children's
    refresh-or-restore renewals (kicked by ChannelReset) rebuild it."""
    scenario = make_scenario()
    system = scenario.system
    _, home = pinned(scenario, "alice", 'class = "Quote" and price < 10')
    victim = home.parent
    assert victim.stage == 2
    scenario.start()
    scenario.run(1.0)

    victim.crash()
    assert len(victim.table) == 0 and soft_state_violations(victim) == []
    scenario.run(2.0)
    assert soft_state_violations(victim) == []  # nothing reaches it while down
    victim.restart()
    # ChannelReset -> children renew immediately: recovery well inside a
    # renewal period, not 3xTTL.
    scenario.run(1.0)

    assert len(victim.table) > 0
    assert covering_violations(system.hierarchy, system.sim.now) == []
    assert placement_violations(system.hierarchy) == []
    scenario.publish([{"symbol": "X", "price": 5}])
    scenario.run(1.0)
    assert traces(scenario)["alice"] == [("X", 5)]
    system.stop_maintenance()


def test_chaos_partition_publish_heal_differential():
    """Satellite gate: partition -> publish -> heal under aggregate=True.

    The partition outlives the 3xTTL purge, so the parent really drops
    the home's filters and the heal-side recovery is refresh-or-restore,
    not just lease refresh.  Post-heal delivery traces must match a
    fault-free run event for event, and the parent's covering invariant
    is re-checked against the child's live lease table.
    """
    events = [("HOT", 3), ("HOT", 15), ("COLD", 4), ("HOT", 7), ("COLD", 9)]
    subscriptions = [
        ("alice", 'class = "Quote" and price < 10'),
        ("bob", 'class = "Quote" and price < 5 and symbol = "HOT"'),
    ]

    def run(partitioned):
        scenario = make_scenario(aggregate=True)
        system = scenario.system
        home = None
        for name, text in subscriptions:
            _, home = pinned(scenario, name, text)
        scenario.start()
        scenario.run(1.0)

        def publish_all():
            for symbol, price in events:
                scenario.apply([("publish", [{"symbol": symbol, "price": price}]), ("run", 0.1)])

        publish_all()  # pre phase, both runs identical
        if partitioned:
            scenario.partition(home.name, home.parent.name)
        publish_all()  # during phase, lost in the partitioned run
        scenario.run(35.0)  # > 3xTTL: the parent purges the home's forms
        if partitioned:
            assert covering_violations(system.hierarchy, system.sim.now) != []
            scenario.heal(home.name, home.parent.name)
        scenario.run(30.0)  # renewals restore + re-propagate
        marks = {name: len(t) for name, t in traces(scenario).items()}
        publish_all()  # post phase, both runs identical again
        scenario.run(1.0)
        system.stop_maintenance()
        delivered = traces(scenario)
        post = {name: tuple(t[marks[name]:]) for name, t in delivered.items()}
        return system, home, delivered, post

    _, _, _, clean_post = run(partitioned=False)
    system, home, _, healed_post = run(partitioned=True)

    # Post-heal delivery traces match the fault-free run exactly.
    assert healed_post == clean_post
    assert all(len(t) > 0 for t in clean_post.values())
    # The parent's table covers the home's live leases again.
    assert covering_violations(system.hierarchy, system.sim.now) == []
    assert placement_violations(system.hierarchy) == []
    live_forms = [
        f
        for f, ids in home.parent.table.entries()
        if any(d is home for d in ids)
    ]
    assert live_forms  # refresh-or-restore actually reinstalled them


def test_chaos_experiment_gate_smoke():
    """One tiny end-to-end chaos run must satisfy the acceptance gate."""
    result = run_chaos(
        ChaosConfig(n_subscribers=8, events_per_phase=10, seed=13)
    )
    assert result.pre_ratio == 1.0
    assert result.post_ratio == 1.0
    assert result.exactly_once
    assert result.converged
    assert result.soft_state_violations == []  # seen down, and empty
    assert result.dropped_messages > 0


def test_chaos_zero_delivery_run_fails_loudly():
    """Satellite gate: a chaos run that delivers nothing must raise, not
    sail through the ratio gates on an all-zero latency summary."""
    with pytest.raises(RuntimeError, match="zero events"):
        run_chaos(ChaosConfig(n_subscribers=0, events_per_phase=5))


@pytest.mark.parametrize("seed", [3, 9])
def test_chaos_runs_are_deterministic(seed):
    """Two chaos runs with one seed produce byte-identical measurements —
    including the causal trace dump and the sampled stage series."""

    def measure():
        r = run_chaos(
            ChaosConfig(
                n_subscribers=6, events_per_phase=8, seed=seed, tracing=True
            )
        )
        return (
            r.pre_ratio,
            r.during_ratio,
            r.post_ratio,
            r.convergence_time,
            r.control_retransmits,
            r.dropped_messages,
            r.duplicated_messages,
            r.tracer.dump(),
            tuple(r.sampler.times),
            tuple(
                (name, tuple(series))
                for name, series in r.sampler.node_series("events_per_s")
            ),
        )

    assert measure() == measure()

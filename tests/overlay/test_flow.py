"""Integration tests for credit flow control, backpressure, and
shedding across the overlay (see repro.flow and DESIGN.md §10).

Covers the windowed reliable channel, hop-by-hop backpressure from a
finite-speed broker back to publishers, credit-loop recovery under wire
faults and broker crashes, observable shedding from durable offline
buffers, and the name-keyed durable state regression."""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.flow import FlowConfig
from repro.overlay.channel import ReliableReceiver, ReliableSender
from repro.overlay.invariants import credit_violations
from repro.overlay.messages import (
    Ack,
    Disconnect,
    Publish,
    Reconnect,
    Sequenced,
)
from repro.sim.kernel import Process, Simulator
from repro.sim.network import FaultPlan


class Alert:
    def __init__(self, topic, level):
        self._topic = topic
        self._level = level

    def get_topic(self):
        return self._topic

    def get_level(self):
        return self._level


def make_system(**kwargs):
    defaults = dict(stage_sizes=(4, 2, 1), seed=21, ttl=10.0)
    defaults.update(kwargs)
    system = MultiStageEventSystem(**defaults)
    system.advertise("Alert", schema=("class", "topic", "level"))
    return system


def setup_subscriber(system, text='class = "Alert" and topic = "db"'):
    subscriber = system.create_subscriber()
    got = []
    system.subscribe(
        subscriber, text, handler=lambda e, m, s: got.append(m["level"])
    )
    system.drain()
    return subscriber, got


# ----------------------------------------------------------------------
# Windowed reliable channel
# ----------------------------------------------------------------------


class _Wire:
    def __init__(self):
        self.frames = []
        self.retransmits = 0

    def send(self, frame):
        self.frames.append(frame)

    def on_retransmit(self, count):
        self.retransmits += count


def test_flow_window_bounds_outstanding_frames():
    sim = Simulator()
    wire = _Wire()
    sender = ReliableSender(sim, wire.send, wire.on_retransmit, window=2)
    for payload in ("a", "b", "c", "d"):
        sender.send(payload)
    assert len(wire.frames) == 2
    assert sender.outstanding == 2
    assert len(sender.pending) == 2
    # Acking the first frame opens one slot: "c" goes out, in order.
    sender.on_ack(Ack(0, 0))
    assert [f.payload for f in wire.frames] == ["a", "b", "c"]
    sender.on_ack(Ack(0, 2))
    assert [f.payload for f in wire.frames] == ["a", "b", "c", "d"]
    sender.on_ack(Ack(0, 3))
    assert sender.idle
    sim.run()  # fully acked: the retransmit timer is disarmed


def test_flow_peer_credits_cap_effective_window():
    sim = Simulator()
    wire = _Wire()
    sender = ReliableSender(sim, wire.send, wire.on_retransmit, window=8)
    sender.send("a")
    # The receiver advertises a single buffer slot: even with a window of
    # 8, only one frame may be outstanding.
    sender.on_ack(Ack(0, 0, credits=1))
    sender.send("b")
    sender.send("c")
    assert len(wire.frames) == 2
    assert len(sender.pending) == 1
    # A wider advertisement releases the queued frame.
    sender.on_ack(Ack(0, 1, credits=4))
    assert [f.payload for f in wire.frames] == ["a", "b", "c"]


def test_flow_no_progress_ack_still_updates_credits():
    """A duplicate ack carrying a fresh credit advertisement must open
    the window even though it acknowledges nothing new."""
    sim = Simulator()
    wire = _Wire()
    sender = ReliableSender(sim, wire.send, wire.on_retransmit, window=8)
    sender.send("a")
    sender.on_ack(Ack(0, 0, credits=0))  # receiver full
    sender.send("b")
    assert len(wire.frames) == 1
    sender.on_ack(Ack(0, 0, credits=2))  # same seq, space opened
    assert [f.payload for f in wire.frames] == ["a", "b"]


def test_flow_receiver_capacity_advertises_free_space():
    receiver = ReliableReceiver(capacity=3)
    delivered = []
    ack = receiver.on_frame(Sequenced(0, 0, "a"), delivered.append)
    assert ack.credits == 3  # delivered immediately, buffer empty
    # An out-of-order frame occupies the reorder buffer.
    ack = receiver.on_frame(Sequenced(0, 2, "c"), delivered.append)
    assert ack.credits == 2
    ack = receiver.on_frame(Sequenced(0, 1, "b"), delivered.append)
    assert ack.credits == 3
    assert delivered == ["a", "b", "c"]


def test_flow_reset_clears_window_state():
    sim = Simulator()
    wire = _Wire()
    sender = ReliableSender(sim, wire.send, wire.on_retransmit, window=1)
    sender.send("a")
    sender.send("b")
    sender.on_ack(Ack(0, -1, credits=0))
    assert sender.pending
    sender.reset()
    assert sender.idle
    assert sender.peer_credits is None
    sender.send("c")
    assert wire.frames[-1].epoch == 1 and wire.frames[-1].seq == 0


def test_flow_window_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ReliableSender(sim, lambda f: None, window=0)
    with pytest.raises(ValueError):
        ReliableReceiver(capacity=0)


# ----------------------------------------------------------------------
# End-to-end backpressure
# ----------------------------------------------------------------------


def _firehose(system, publisher, count, interval):
    accepted = 0
    sent = 0

    def blast():
        nonlocal accepted, sent
        if sent >= count:
            return
        sent += 1
        if publisher.publish(Alert("db", sent), event_class="Alert"):
            accepted += 1

    feed = system.sim.every(interval, blast)
    system.run_for(count * interval + interval)
    feed.cancel()
    return lambda: accepted


def test_flow_backpressure_propagates_to_publisher():
    """A finite-speed overlay with flow control throttles the publisher
    to roughly its service capacity; queues stay bounded and everything
    accepted is delivered once the source stops."""
    flow = FlowConfig(queue_capacity=32, link_window=8,
                      publisher_queue_capacity=16, outbound_capacity=16)
    system = make_system(flow=flow, service_rate=100.0, service_batch=4)
    publisher = system.create_publisher("firehose")
    _, got = setup_subscriber(system)

    # Offer 500 events/s against 100/s of service for one second.
    accepted_fn = _firehose(system, publisher, count=500, interval=0.002)
    peak = system.total_queue_depth()
    assert credit_violations(system) == []  # mid-stall: parked => no credits
    system.run_for(3.0)  # drain tail
    accepted = accepted_fn()

    assert accepted < 500, "backpressure never engaged"
    assert publisher.counters.events_shed > 0
    assert publisher.counters.sheds_by_reason["publisher-overflow"] > 0
    budget = (
        7 * flow.queue_capacity
        + 6 * flow.outbound_capacity
        + flow.publisher_queue_capacity
    )
    assert peak <= budget
    # No broker shed anything: with compliant credit senders the bounded
    # broker queues never overflow below overload mode.
    assert all(
        node.counters.events_shed == 0 for node in system.hierarchy.nodes()
    )
    # Everything admitted was eventually delivered — the loop drained.
    assert len(got) == accepted
    assert system.total_queue_depth() == 0
    # ... and every credit is home again.
    assert credit_violations(system, quiescent=True) == []


def test_flow_off_below_capacity_is_transparent():
    """At offered loads the overlay can absorb, flow control must not
    change what gets delivered."""
    results = {}
    for flow in (None, FlowConfig()):
        system = make_system(flow=flow, service_rate=1000.0)
        publisher = system.create_publisher("feed")
        _, got = setup_subscriber(system)
        for level in range(20):
            assert publisher.publish(Alert("db", level), event_class="Alert")
            system.run_for(0.05)
        system.run_for(1.0)
        results["on" if flow else "off"] = got
        assert system.total_events_shed() == 0
        assert credit_violations(system, quiescent=True) == []
    assert results["on"] == results["off"] == list(range(20))


def test_flow_grants_ride_reliable_channels_through_loss():
    """A *bounded* lossy fault window must not deadlock the credit loop:
    grants travel on reliable channels (retransmitted until acked), and
    after heal the publisher's window keeps turning over.

    Lost DATA frames do leak their credit (documented limitation, DESIGN
    §10), so the expected loss count must stay below ``link_window`` —
    here ~15 lost frames per link against a window of 32."""
    flow = FlowConfig()  # link_window=32 absorbs the bounded leak
    system = make_system(flow=flow, service_rate=200.0, service_batch=4)
    publisher = system.create_publisher("feed")
    _, got = setup_subscriber(system)

    plan = FaultPlan(seed=9)
    plan.add_window(0.5, 2.5, loss=0.15)
    system.network.install_faults(plan)

    sent = 0

    def blast():
        nonlocal sent
        sent += 1
        publisher.publish(Alert("db", sent), event_class="Alert")

    feed = system.sim.every(0.02, blast)
    system.run_for(5.0)  # through the window and past heal
    feed.cancel()
    system.run_for(3.0)

    delivered_before = len(got)
    assert delivered_before > 0
    # The loop still turns over after heal: fresh publishes are accepted
    # and delivered (a leaked/deadlocked window would refuse or strand
    # them).
    for level in range(1000, 1010):
        publisher.publish(Alert("db", level), event_class="Alert")
        system.run_for(0.05)
    system.run_for(2.0)
    assert got[-10:] == list(range(1000, 1010))
    assert system.total_queue_depth() == 0
    assert credit_violations(system) == []


def test_flow_broker_crash_resets_credit_windows():
    """Crash/restart of a mid-tree broker resets the credit windows on
    its links (reset-to-full on the new incarnation) instead of leaking
    the credits that died with it."""
    flow = FlowConfig(queue_capacity=32, link_window=8)
    system = make_system(flow=flow, service_rate=200.0, service_batch=4)
    publisher = system.create_publisher("feed")
    subscriber, got = setup_subscriber(system)
    home = subscriber.home_of(subscriber.subscriptions()[0].subscription_id)
    victim = home.parent
    assert victim.stage == 2
    system.start_maintenance()
    system.run_for(1.0)

    def blast():
        publisher.publish(Alert("db", 1), event_class="Alert")

    feed = system.sim.every(0.01, blast)
    system.run_for(1.0)
    victim.crash()
    system.run_for(1.0)
    victim.restart()
    system.run_for(2.0)
    feed.cancel()
    system.run_for(3.0)

    delivered_before = len(got)
    assert delivered_before > 0
    # Post-recovery the full path works and nothing is wedged.
    for level in range(2000, 2005):
        publisher.publish(Alert("db", level), event_class="Alert")
        system.run_for(0.05)
    system.run_for(2.0)
    assert got[-5:] == list(range(2000, 2005))
    assert victim.queue_depth() == 0
    system.stop_maintenance()
    system.drain()
    assert credit_violations(system, quiescent=True) == []


def test_flow_sheds_are_traced_deterministically():
    """Shed events leave spans carrying the event's trace id and the
    reason, and two same-seed runs shed identically."""

    def run():
        flow = FlowConfig(queue_capacity=16, link_window=4,
                          publisher_queue_capacity=8)
        system = make_system(flow=flow, service_rate=50.0, service_batch=2,
                             tracing=True)
        publisher = system.create_publisher("feed")
        setup_subscriber(system)
        for level in range(200):
            publisher.publish(Alert("db", level), event_class="Alert")
            system.run_for(0.002)
        system.run_for(3.0)
        return system

    first, second = run(), run()
    sheds = first.tracer.kinds("shed")
    assert sheds, "an oversubscribed run must shed"
    assert all(s.detail("reason") == "publisher-overflow" for s in sheds)
    assert all(s.trace_id is not None for s in sheds)
    kinds = ("shed", "credit-grant", "overload")
    assert first.tracer.dump(kinds=kinds) == second.tracer.dump(kinds=kinds)
    assert first.total_events_shed() == second.total_events_shed()


def test_flow_overload_detector_engages_shedding_mode():
    """Sustained deep queues flip the detector to OVERLOADED (observed on
    the sampler tick), shrinking the effective inbound capacity."""
    flow = FlowConfig(queue_capacity=8, link_window=64,
                      publisher_queue_capacity=64, overload_high=0.5,
                      overload_low=0.1, ewma_alpha=1.0)
    system = make_system(stage_sizes=(1,), flow=flow, service_rate=20.0,
                         service_batch=1)
    root = system.root
    publisher = system.create_publisher("feed")
    setup_subscriber(system)
    system.start_sampling(interval=0.1)

    def blast():
        publisher.publish(Alert("db", 1), event_class="Alert")

    feed = system.sim.every(0.005, blast)  # 200/s against 20/s service
    system.run_for(3.0)
    feed.cancel()
    system.run_for(3.0)
    system.stop_sampling()

    assert root.overload_detector is not None
    assert root.counters.overload_transitions > 0
    # While overloaded the effective capacity shrank below the configured
    # bound, so queue-overflow shedding engaged at the broker.
    assert root.counters.sheds_by_reason.get("queue-overflow", 0) > 0


# ----------------------------------------------------------------------
# Durable offline buffers: observable shedding + name-keyed state
# ----------------------------------------------------------------------


def test_flow_offline_buffer_overflow_is_observable():
    """The durable buffer's drop-oldest overflow keeps its semantics
    (newest events survive) and is now counted per subscriber and traced."""
    system = MultiStageEventSystem(stage_sizes=(2, 1), seed=3, ttl=10.0,
                                   tracing=True)
    system.advertise("Alert", schema=("class", "topic", "level"))
    for node in system.hierarchy.nodes():
        node.offline_buffer_limit = 3
    publisher = system.create_publisher()
    subscriber, got = setup_subscriber(system)
    home = subscriber.home_of(subscriber.subscriptions()[0].subscription_id)

    subscriber.disconnect(durable=True)
    system.drain()
    for level in range(10):
        publisher.publish(Alert("db", level), event_class="Alert")
    system.drain()
    subscriber.reconnect()
    system.drain()

    assert got == [7, 8, 9]  # unchanged drop-oldest semantics
    assert home.counters.offline_drops == {subscriber.name: 7}
    assert home.counters.sheds_by_reason == {"offline-buffer": 7}
    assert home.counters.events_shed == 7
    spans = [
        s for s in system.tracer.kinds("shed")
        if s.detail("reason") == "offline-buffer"
    ]
    assert len(spans) == 7
    assert all(s.node == home.name for s in spans)
    assert all(s.detail("peer") == subscriber.name for s in spans)


class _RebornClient(Process):
    """A restarted subscriber process: same stable name, new object."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, message, sender):
        self.received.append(message)


def test_flow_durable_buffer_keyed_by_stable_name():
    """Regression: ``_offline``/``_buffers`` used to key by ``id()`` of
    the subscriber object; a recycled id could hand a dead subscriber's
    offline flag and durable buffer to an unrelated process, or strand
    the buffer when the same client reconnected through a new object.
    Durable state must follow the stable process *name*."""
    system = make_system()
    publisher = system.create_publisher()
    subscriber, got = setup_subscriber(system)
    home = subscriber.home_of(subscriber.subscriptions()[0].subscription_id)

    subscriber.disconnect(durable=True)
    system.drain()
    for level in (1, 2, 3):
        publisher.publish(Alert("db", level), event_class="Alert")
    system.drain()

    # Offline flag and buffer live under the subscriber's name.
    assert subscriber.name in home._offline
    assert [p.envelope.metadata["level"] for p in home._buffers[subscriber.name]] \
        == [1, 2, 3]

    # The client restarts: the same identity reconnects through a brand
    # new object (the old one is gone, its id free for recycling).  The
    # buffer must replay to the new object purely on the name.
    system.network.forget(subscriber)
    reborn = _RebornClient(system.sim, subscriber.name)
    home.receive(Reconnect(), reborn)
    system.drain()
    replayed = [m for m in reborn.received if isinstance(m, Publish)]
    assert [p.envelope.metadata["level"] for p in replayed] == [1, 2, 3]
    assert subscriber.name not in home._offline
    assert subscriber.name not in home._buffers

    # And an unrelated process going offline durably gets its own empty
    # buffer — never an old identity's leftovers.
    stranger = _RebornClient(system.sim, "total-stranger")
    home.receive(Disconnect(durable=True), stranger)
    assert len(home._buffers["total-stranger"]) == 0

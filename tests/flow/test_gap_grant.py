"""Regression test for the DESIGN §10 credit leak (gap-grant fix).

Credits are granted back as the receiver *processes* events, so an
event lost on the wire used to strand its credit forever: the data
plane is deliberately best-effort (no retransmit), and nothing on the
receiving side ever learned the event existed.  Under sustained loss
the sender's window ratcheted towards zero and the link starved.

The fix numbers credit-backed events with per-link data-frame
sequence numbers (:class:`~repro.overlay.messages.DataFrame`); a
receiver seeing frame N+k after N knows k events died on the wire and
grants their credits back immediately.
"""

from repro.core.engine import MultiStageEventSystem
from repro.flow import FlowConfig
from repro.sim.network import FaultPlan

LINK_WINDOW = 8


class Alert:
    def __init__(self, topic, level):
        self._topic = topic
        self._level = level

    def get_topic(self):
        return self._topic

    def get_level(self):
        return self._level


def run_lossy(seed=11, publishes=300, loss=0.1):
    """Publish through a 10%-lossy publisher->root link; return
    (system, publisher, delivered levels)."""
    flow = FlowConfig(link_window=LINK_WINDOW)
    system = MultiStageEventSystem(
        stage_sizes=(4, 2, 1), seed=seed, ttl=30.0, flow=flow, tracing=True
    )
    system.advertise("Alert", schema=("class", "topic", "level"))
    system.drain()
    publisher = system.create_publisher("source")
    subscriber = system.create_subscriber("sink")
    got = []
    system.subscribe(
        subscriber,
        'class = "Alert" and topic = "db"',
        handler=lambda e, m, s: got.append(m["level"]),
    )
    system.drain()

    plan = FaultPlan(seed)
    plan.add_window(
        0.0, 1e9, loss=loss, links=[(publisher, system.root)]
    )
    system.network.install_faults(plan)

    for level in range(publishes):
        publisher.publish(Alert("db", level), event_class="Alert")
        system.run_for(0.01)
    system.run_for(5.0)
    return system, publisher, got


def test_gap_grant_recovers_credits_lost_to_the_wire():
    system, publisher, got = run_lossy()
    root = system.root

    # The wire really did eat data frames...
    assert root.counters.credit_gap_grants > 0
    # ...yet every lost event's credit came back: once the dust settles
    # the publisher's window is full again and nothing is stuck locally.
    assert publisher._window.available == LINK_WINDOW
    assert publisher.pending_count == 0
    # Lost events are genuinely lost (data plane is best-effort), but the
    # link kept flowing: the surviving ~90% reached the subscriber.
    assert len(got) > 200


def test_gap_grant_is_idle_on_a_clean_wire():
    flow = FlowConfig(link_window=LINK_WINDOW)
    system = MultiStageEventSystem(
        stage_sizes=(4, 2, 1), seed=3, ttl=30.0, flow=flow
    )
    system.advertise("Alert", schema=("class", "topic", "level"))
    system.drain()
    publisher = system.create_publisher("source")
    subscriber = system.create_subscriber("sink")
    got = []
    system.subscribe(
        subscriber,
        'class = "Alert" and topic = "db"',
        handler=lambda e, m, s: got.append(m["level"]),
    )
    system.drain()
    for level in range(100):
        publisher.publish(Alert("db", level), event_class="Alert")
        system.run_for(0.01)
    system.run_for(2.0)

    assert system.root.counters.credit_gap_grants == 0
    assert got == list(range(100))
    assert publisher._window.available == LINK_WINDOW

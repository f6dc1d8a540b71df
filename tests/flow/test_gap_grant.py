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

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.events.serialization import marshal
from repro.flow import FlowConfig
from repro.log.config import LogConfig
from repro.overlay.invariants import credit_violations
from repro.overlay.messages import (
    ChannelReset,
    CreditGrant,
    DataFrame,
    Publish,
    ReplayRequest,
    Sequenced,
)
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
    assert publisher.link.window.available == LINK_WINDOW
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
    assert publisher.link.window.available == LINK_WINDOW
    assert credit_violations(system, quiescent=True) == []


def publishes(count, start=0):
    return tuple(
        Publish(marshal(Alert("db", n), "Alert", 0.0, ("injected", n)))
        for n in range(start, start + count)
    )


#: The epoch a broker's first restarted incarnation opens its links at.
REBORN = 1 << 32


def learn_of_restart(broker, peer, path):
    if path == "channel-reset":
        # As the wire carries it: the first frame of the new incarnation.
        broker.receive(Sequenced(REBORN, 0, ChannelReset(1)), peer)
    elif path == "epoch":
        # The reset is late: the first the broker hears of the new
        # incarnation is a later reliable frame of its channel.
        broker.receive(Sequenced(REBORN, 1, CreditGrant(0, 0)), peer)
    else:
        # ...or the new incarnation's first data frame.
        broker.receive(DataFrame(REBORN, 0, publishes(2, start=20)), peer)


@pytest.mark.parametrize("path", ["channel-reset", "epoch", "data-epoch"])
def test_a_peer_restart_is_one_path_however_it_is_learned(path):
    """DESIGN §10 *Recovery*: one restart edge.

    A broker learns that a peer restarted from its ``ChannelReset`` or,
    when that was lost, from a frame of a higher epoch — a reliable one
    or a data frame.  Every way reaches ``BrokerNode._peer_restarted``
    once: the link toward the peer comes back full under one new epoch,
    the dead incarnation's replay session ends, and the new
    incarnation's data frames are numbered from 0, with no gap granted
    and no second restart heard.  On a tree no peer both sends data
    frames to a broker and receives them from it; by direct injection
    here the peer does both.
    """
    system = MultiStageEventSystem(
        stage_sizes=(2, 1), seed=5, flow=FlowConfig(link_window=2), log=LogConfig()
    )
    system.advertise("Alert", schema=("class", "topic", "level"))
    system.drain()
    root = system.root
    peer = root.broker_children[0]
    # Both ends of the credited links with the peer hold something: two
    # events parked toward it, three admitted from it, a replay session.
    root.receive(Sequenced(0, 0, ReplayRequest(peer, -1)), peer)
    link = root.link_to(peer)
    link.offer(publishes(4))
    root.receive(DataFrame(0, 0, publishes(3, start=10)), peer)
    assert (link.window.available, len(link.queue), link.next_seq) == (0, 2, 2)
    assert root._receiver.expected[peer.name] == (0, 3)
    assert root._replayer.active

    learn_of_restart(root, peer, path)
    if path != "data-epoch":
        root.receive(DataFrame(REBORN, 0, publishes(2, start=20)), peer)
    root.receive(DataFrame(REBORN, 2, publishes(1, start=30)), peer)
    # A late frame of the dead incarnation is dropped, ungranted.
    root.receive(DataFrame(0, 3, publishes(1, start=40)), peer)

    # The new incarnation is numbered from 0...
    assert root.counters.credit_gap_grants == 0
    assert root._receiver.expected[peer.name] == (REBORN, 3)
    # ...and the link state is the same, field by field, on every path.
    assert (link.window.available, len(link.queue), link.next_seq) == (2, 0, 0)
    assert link.epoch == 1 and link.window.surplus == 0
    assert root.counters.sheds_by_reason == {"peer-reset": 2}
    assert not root._replayer.active and not root._drain_paused
    assert credit_violations(system) == []


def test_a_replay_request_that_opens_the_new_epoch_keeps_its_session():
    """The restart is learned *before* the frame that reveals it is
    delivered: a ``ReplayRequest`` that is itself the first frame of the
    new epoch (a recovering broker below stage 2, which tells the root of
    its restart only by this frame) ends the dead incarnation's session and then
    starts its own — not the other way round."""
    system = MultiStageEventSystem(
        stage_sizes=(2, 1), seed=5, flow=FlowConfig(link_window=2), log=LogConfig()
    )
    root = system.root
    peer = root.broker_children[0]
    root.receive(Sequenced(0, 0, ReplayRequest(peer, -1)), peer)
    first = root._replayer._recovery[peer.name]
    root.receive(Sequenced(REBORN, 0, ReplayRequest(peer, -1)), peer)
    assert root._replayer._recovery[peer.name] is not first

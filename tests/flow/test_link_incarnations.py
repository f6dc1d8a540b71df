"""A credited link across a restart of either end (DESIGN §10 *Recovery*).

Every frame carries its link's epoch and every grant echoes it, so each
end tells the live incarnation's frames and grants from a dead one's by
the rule the reliable channel already follows
(:func:`repro.flow.link.incarnation`).  Each scenario below lost credits
for good while the data link had no epoch: frames are injected by hand
where the schedule needs one to land late, as in ``test_gap_grant``.
"""

from repro.core.engine import MultiStageEventSystem
from repro.events.serialization import marshal
from repro.flow import FlowConfig
from repro.log.config import LogConfig
from repro.overlay.invariants import credit_violations
from repro.overlay.messages import Publish
from repro.sim.network import FaultPlan


class Alert:
    def __init__(self, topic, level):
        self._topic = topic
        self._level = level

    def get_topic(self):
        return self._topic

    def get_level(self):
        return self._level


class Tick:
    def __init__(self, value):
        self._value = value

    def get_value(self):
        return self._value


def publishes(count, start=0):
    return tuple(
        Publish(marshal(Alert("db", n), "Alert", 0.0, ("injected", n)))
        for n in range(start, start + count)
    )


def restarted_child():
    """A root whose link to a child has a full window's frame on the
    wire when the child restarts; the root has heard the restart."""
    system = MultiStageEventSystem(
        stage_sizes=(2, 1), seed=5, flow=FlowConfig(link_window=8)
    )
    system.advertise("Alert", schema=("class", "topic", "level"))
    system.drain()
    root = system.root
    child = root.broker_children[0]
    link = root.link_to(child)
    stale, _, _ = link.offer(publishes(8))
    system.kill(child)
    system.restore(child)
    system.drain()
    assert link.window.available == 8  # reset to full
    return system, root, child, link, stale


def test_a_frame_of_the_old_numbering_does_not_hide_a_later_gap():
    """Probe (a): the child's fresh receiver adopts the stale frame's
    position, 8; the root numbers its new incarnation from 0, so a
    2-event gap in it read as a duplicate and was never granted back
    (the window stayed at 6/8)."""
    system, root, child, link, stale = restarted_child()
    child.receive(stale, root)
    system.drain()
    sent = [link.offer(publishes(2, start=10 + 2 * n))[0] for n in range(3)]
    child.receive(sent[0], root)
    child.receive(sent[2], root)  # the wire swallowed sent[1]
    system.drain()

    assert child.counters.credit_gap_grants == 2
    assert link.window.available == 8
    assert credit_violations(system, quiescent=True) == []


def test_the_dead_incarnations_grants_pay_for_nothing():
    """Probe (b): the root spent its new window before the stale frame
    landed; the grants for the stale frame refilled it, so the root had
    two windows of events in flight on one."""
    system, root, child, link, stale = restarted_child()
    fresh, _, _ = link.offer(publishes(8, start=10))
    child.receive(stale, root)
    system.drain()

    assert link.window.available == 0
    assert credit_violations(system) == []
    child.receive(fresh, root)
    system.drain()
    assert link.window.available == 8 and link.window.surplus == 0
    assert credit_violations(system, quiescent=True) == []


def managed_publisher():
    """``test_crash_under_flow_keeps_parked_events``'s set-up: a window
    of 4 into a root that serves 2 events/s."""
    system = MultiStageEventSystem(
        stage_sizes=(2, 1), seed=9, flow=FlowConfig(link_window=4), service_rate=2.0
    )
    system.advertise("Tick", schema=("class", "value"))
    subscriber = system.create_subscriber()
    seen = []
    system.subscribe(
        subscriber,
        None,
        event_class="Tick",
        handler=lambda e, m, s: seen.append(m["value"]),
    )
    system.drain()
    publisher = system.create_publisher("feed")
    # The root has granted to the publisher: a crash keeps it known.
    assert publisher.publish(Tick(0))
    system.run_for(5.0)
    assert seen == [0] and publisher.link.window.available == 4
    return system, publisher, seen


def restart_root_and_publish(system, publisher):
    system.kill(system.root)
    system.run_for(1.0)
    system.restore(system.root)
    system.run_for(240.0)
    for value in range(100, 104):
        assert publisher.publish(Tick(value))
    system.run_for(60.0)


def test_a_root_restart_gives_the_publisher_its_window_back():
    """Probe (c): the two events the dead root held took their credits
    with it, and the publisher's window stayed at 2/4 for good."""
    system, publisher, seen = managed_publisher()
    for value in (1, 2):
        assert publisher.publish(Tick(value))
    assert publisher.link.window.available == 2
    restart_root_and_publish(system, publisher)

    assert seen[-4:] == [100, 101, 102, 103]
    assert publisher.link.window.available == 4
    assert credit_violations(system, quiescent=True) == []


def test_a_root_restart_unblocks_a_publisher_whose_window_was_empty():
    """Probe (c), the window empty at the kill: the publisher stalled
    for good, its parked events grew from 2 to 6 and nothing was
    delivered again.  Now its parked events go to the new incarnation
    (they were shed once, which lost them also when the restart was
    heard late, after they were published), and what follows goes out."""
    system, publisher, seen = managed_publisher()
    for value in range(1, 7):
        assert publisher.publish(Tick(value))
    link = publisher.link
    assert (link.window.available, len(link.queue)) == (0, 2)
    restart_root_and_publish(system, publisher)

    assert publisher.counters.sheds_by_reason == {}
    assert seen[-6:] == [5, 6, 100, 101, 102, 103]
    assert (link.window.available, len(link.queue)) == (4, 0)
    assert credit_violations(system, quiescent=True) == []


def test_a_restored_publisher_hears_the_grants_its_dead_incarnation_did_not():
    """The publisher dies after it heard a grant, with four events out
    and two parked; the root grants the four back while it is down.  Its
    restart tells the root nothing, so the root's grants go on where the
    dead incarnation acked them: the restored publisher adopts that
    numbering, and its parked events go out (waiting for the frames the
    dead incarnation had already acked, it would stall for good)."""
    system, publisher, seen = managed_publisher()
    for value in range(1, 7):
        assert publisher.publish(Tick(value))
    system.kill(publisher)
    system.run_for(1.0)
    system.restore(publisher)
    system.run_for(60.0)

    assert seen == list(range(7))
    assert (publisher.link.window.available, len(publisher.link.queue)) == (4, 0)
    assert credit_violations(system, quiescent=True) == []


def test_a_child_learns_of_a_restarted_parent_from_its_first_data_frame():
    """ROADMAP suspect 2: the restarted root's ``ChannelReset`` to one
    child is lost, and with no maintenance running nothing else would
    have made the child renew — its subscriber heard nothing again.  A
    subscription there to another class, which no form the child
    believes installed covers, brings the root's first data frame of the
    new epoch: that is the restart, and the child renews at once."""
    system = MultiStageEventSystem(
        stage_sizes=(2, 1), seed=5, flow=FlowConfig(link_window=8)
    )
    system.advertise("Alert", schema=("class", "topic", "level"))
    system.advertise("Tick", schema=("class", "value"))
    system.drain()
    root = system.root
    child = root.broker_children[0]
    alerts, ticks = [], []
    system.subscribe(
        system.create_subscriber("alerts"),
        'class = "Alert" and topic = "db"',
        handler=lambda e, m, s: alerts.append(m["level"]),
        at_node=child,
    )
    system.drain()
    publisher = system.create_publisher("feed")
    publisher.publish(Alert("db", 0), event_class="Alert")
    system.drain()
    assert alerts == [0]

    plan = FaultPlan(5)
    now = system.sim.now
    plan.add_window(now, now + 0.5, loss=1.0, links=[(root, child)])
    system.network.install_faults(plan)
    system.kill(root)
    system.restore(root)
    system.run_for(1.0)
    system.subscribe(
        system.create_subscriber("ticks"),
        None,
        event_class="Tick",
        handler=lambda e, m, s: ticks.append(m["value"]),
        at_node=child,
    )
    system.drain()
    publisher.publish(Tick(1), event_class="Tick")
    system.drain()
    publisher.publish(Alert("db", 2), event_class="Alert")
    system.drain()

    assert ticks == [1]
    assert alerts == [0, 2]
    assert credit_violations(system, quiescent=True) == []


def test_a_root_restart_ends_a_catch_up_and_a_new_one_is_paced_afresh():
    """The restarted root also announces itself to a subscriber it was
    streaming history to: the subscriber drops the dead stream, and a
    catch-up asked for again runs on the new incarnation's window, its
    grants echoing that window's epoch."""
    system = MultiStageEventSystem(
        stage_sizes=(2, 1),
        seed=5,
        flow=FlowConfig(link_window=4),
        log=LogConfig(replay_rate=200.0, replay_batch=4),
    )
    system.advertise("Tick", schema=("class", "value"))
    system.drain()
    publisher = system.create_publisher("feed")
    for value in range(40):
        publisher.publish(Tick(value), event_class="Tick")
        system.run_for(0.001)
    system.drain()
    late = system.create_subscriber("late")
    got = []
    sid = system.subscribe(
        late,
        None,
        event_class="Tick",
        handler=lambda e, m, s: got.append(m["value"]),
        at_node=system.root.broker_children[0],
    )[0].subscription_id
    system.drain()
    late.catch_up(sid, from_offset=0)
    system.run_for(0.05)
    assert 0 < len(got) < 40 and not late.catch_up_live(sid)

    system.kill(system.root)
    system.run_for(1.0)
    system.restore(system.root)
    system.run_for(1.0)
    late.catch_up(sid, from_offset=0)
    for _ in range(40):
        if late.catch_up_live(sid):
            break
        system.run_for(0.25)

    assert late.catch_up_live(sid)
    assert set(got) == set(range(40))  # asked from 0 again: a prefix twice
    assert credit_violations(system, quiescent=True) == []

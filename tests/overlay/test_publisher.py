"""Unit tests for the publisher runtime."""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.events.base import PropertyEvent
from repro.flow import FlowConfig
from repro.overlay.invariants import credit_violations


class Tick(object):
    def __init__(self, value):
        self._value = value

    def get_value(self):
        return self._value


def make_system():
    system = MultiStageEventSystem(stage_sizes=(2, 1), seed=9)
    system.advertise("Tick", schema=("class", "value"))
    return system


def test_publish_counts_events():
    system = make_system()
    publisher = system.create_publisher()
    publisher.publish(Tick(1))
    publisher.publish(Tick(2))
    assert publisher.events_published == 2


def test_registered_type_name_used_in_metadata():
    system = MultiStageEventSystem(stage_sizes=(2, 1))
    system.register_type(Tick, "HeartBeat")
    system.advertise("HeartBeat", schema=("class", "value"))
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    seen = []
    system.subscribe(
        subscriber, None, event_class="HeartBeat",
        handler=lambda e, m, s: seen.append(m["class"]),
    )
    system.drain()
    publisher.publish(Tick(1))
    system.drain()
    assert seen == ["HeartBeat"]


def test_explicit_event_class_override():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    seen = []
    system.subscribe(
        subscriber, None, event_class="Tick",
        handler=lambda e, m, s: seen.append(m["class"]),
    )
    system.drain()
    publisher.publish(PropertyEvent({"class": "Tick", "value": 3}))
    system.drain()
    assert seen == ["Tick"]


def test_unregistered_type_falls_back_to_class_name():
    system = make_system()
    publisher = system.create_publisher()
    subscriber = system.create_subscriber()
    seen = []
    system.subscribe(
        subscriber, None, event_class="Tick",
        handler=lambda e, m, s: seen.append(m["class"]),
    )
    system.drain()
    publisher.publish(Tick(5))  # Tick not registered; __name__ used
    system.drain()
    assert seen == ["Tick"]


def test_publisher_rejects_incoming_messages():
    system = make_system()
    publisher = system.create_publisher()
    with pytest.raises(TypeError):
        publisher.receive("anything", publisher)


def test_repr_shows_published_count():
    system = make_system()
    publisher = system.create_publisher("feed")
    publisher.publish(Tick(1))
    assert "published=1" in repr(publisher)


def test_publish_batch_rate_limit_leaves_one_shed_span_per_refused_event():
    """A rate-limited event is refused the same way wherever it was
    offered: counted, and explained by a ``shed`` span (``publish`` did
    both, ``publish_batch`` only counted)."""
    system = MultiStageEventSystem(stage_sizes=(2, 1), seed=9, tracing=True)
    system.advertise("Tick", schema=("class", "value"))
    publisher = system.create_publisher("feed", rate_limit=1.0, burst=2.0)
    accepted = publisher.publish_batch([Tick(value) for value in range(5)])
    assert (accepted, publisher.counters.rate_limited) == (2, 3)
    sheds = system.tracer.kinds("shed")
    assert [dict(span.details) for span in sheds] == [{"reason": "rate-limit"}] * 3
    assert not publisher.publish(Tick(5))
    assert len(system.tracer.kinds("shed")) == publisher.counters.rate_limited == 4


def test_crash_under_flow_keeps_parked_events():
    """Pins what DESIGN §8 states about a publisher's crash, not what it
    should be: ``kill`` resets the reliable links only, so the credited
    link to the root — window, parked events, frame number — survives,
    and the events parked before the crash go out when the restored
    publisher's credits come back."""
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
    for value in range(6):
        assert publisher.publish(Tick(value))
    link = publisher.link
    assert (link.window.available, len(link.queue), link.next_seq) == (0, 2, 4)

    system.kill(publisher)
    system.run_for(60.0)
    assert publisher.crashed and seen == [0, 1, 2, 3]
    assert publisher.link is link and len(link.queue) == 2  # not soft state today
    system.restore(publisher)
    system.run_for(60.0)

    assert seen == [0, 1, 2, 3, 4, 5]
    assert (link.window.available, len(link.queue), link.next_seq) == (4, 0, 6)
    assert credit_violations(system, quiescent=True) == []

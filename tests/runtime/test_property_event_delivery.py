"""A ``PropertyEvent`` reaches its handler as itself, on every runtime.

A ``PropertyEvent`` is its own meta-data: it travels with an empty
payload, and ``unmarshal`` hands the meta-data back.  So a handler
receives a value equal to the published one on ``sim`` (the envelope
travels by reference), on ``asyncio`` and ``multiprocess`` (decoded from
the socket record), and through an ``EventLog``: a late subscriber's
catch-up, and a log read back from its segment files.  A subclass
travels as a plain ``PropertyEvent`` over the same properties, and
every runtime hands its handler the same type and value.
"""

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.events.base import PropertyEvent
from repro.events.serialization import marshal, unmarshal
from repro.flow import FlowConfig
from repro.log import LogConfig
from repro.log.eventlog import EventLog
from repro.overlay.messages import Publish

SCHEMA = ("class", "symbol", "price")
HOT = 'class = "Quote" and symbol = "HOT"'


def quote(symbol, price, **extra):
    return PropertyEvent({"class": "Quote", "symbol": symbol, "price": price, **extra})


#: Every plain value type a record carries, among events the filter
#: passes and events it drops.
EVENTS = [
    quote("HOT", 3.0, volume=120, flag=True, tag=b"\x00\xff", note=None),
    quote("COLD", 12.5),
    quote("HOT", -0.0, venue="Zürich"),
    quote("HOT", 2**62, flag=False),
]
DELIVERED = [event for event in EVENTS if event["symbol"] == "HOT"]


class Redacting(PropertyEvent):
    """A subclass whose own lookup hides ``price``."""

    __slots__ = ()

    def __contains__(self, name):
        return name != "price" and super().__contains__(name)

    def __getitem__(self, name):
        if name == "price":
            raise KeyError(name)
        return super().__getitem__(name)


def deliveries(runtime, events, expression=HOT, expected=None, **options):
    """The events one subscriber's handler receives, in order."""
    system = MultiStageEventSystem(stage_sizes=(2, 1), seed=1, runtime=runtime, **options)
    try:
        system.advertise("Quote", schema=SCHEMA)
        subscriber = system.create_subscriber("sub")
        got = []
        system.subscribe(
            subscriber, expression, event_class="Quote",
            handler=lambda event, metadata, subscription: got.append(event),
        )  # fmt: skip
        if runtime == "sim":
            system.drain()
        else:
            assert system.run_until(subscriber._homes, timeout=15.0)
        publisher = system.create_publisher("feed")
        for event in events:
            publisher.publish(event)
        if runtime == "sim":
            system.drain()
        else:
            count = len(DELIVERED) if expected is None else expected
            system.run_until(lambda: len(got) >= count, timeout=15.0)
        return got
    finally:
        system.close()


@pytest.mark.parametrize("runtime", ["sim", "asyncio", "multiprocess"])
def test_the_handler_receives_the_published_event(runtime):
    got = deliveries(runtime, EVENTS)
    assert got == DELIVERED
    assert all(type(event) is PropertyEvent for event in got)
    if runtime == "sim":  # by reference: nothing was copied on the way
        assert all(a is b for a, b in zip(got, DELIVERED))


def test_a_subclass_is_delivered_alike_on_sim_and_asyncio():
    """Brokers filter on the plain properties (they run no subclass
    code), so ``price`` is visible to the filter on both runtimes."""
    event = Redacting({"class": "Quote", "symbol": "HOT", "price": 3.0})
    expression = HOT + " and price < 10"
    on_sim = deliveries("sim", [event], expression)
    on_asyncio = deliveries("asyncio", [event], expression, expected=1)
    assert on_sim == on_asyncio == [event]
    assert [type(e) for e in on_sim] == [type(e) for e in on_asyncio] == [PropertyEvent]
    assert on_sim[0]["price"] == on_asyncio[0]["price"] == 3.0


def test_catch_up_from_the_log_delivers_the_published_events():
    system = MultiStageEventSystem(
        stage_sizes=(2, 1), seed=1, ttl=30.0, flow=FlowConfig(), log=LogConfig()
    )
    system.advertise("Quote", schema=SCHEMA)
    system.drain()
    publisher = system.create_publisher("feed")
    for event in EVENTS:
        publisher.publish(event)
        system.run_for(0.01)
    late = system.create_subscriber("late")
    got = []
    (subscription,) = system.subscribe(
        late, HOT, event_class="Quote",
        handler=lambda event, metadata, subscription: got.append(event),
    )  # fmt: skip
    system.drain()
    late.catch_up(subscription.subscription_id, from_offset=0)
    for _ in range(40):
        if late.catch_up_live(subscription.subscription_id):
            break
        system.run_for(0.25)
    assert late.catch_up_live(subscription.subscription_id)
    assert got == DELIVERED
    assert all(type(event) is PropertyEvent for event in got)


def test_a_log_read_back_from_disk_opens_to_the_published_events(tmp_path):
    log = EventLog("root", segment_size=2, directory=str(tmp_path))
    for seq, event in enumerate(EVENTS):
        log.append(Publish(marshal(event, published_at=0.5, event_id=("feed", seq))), 0.5)
    log.close()
    loaded = EventLog.load("root", str(tmp_path), segment_size=2)
    opened = [unmarshal(record.envelope) for record in loaded.read_from(0)]
    assert opened == EVENTS
    assert all(type(event) is PropertyEvent for event in opened)
    assert all(record.envelope.payload == b"" for record in loaded.read_from(0))

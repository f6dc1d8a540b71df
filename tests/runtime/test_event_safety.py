"""Event safety on the wire (section 2.2): no broker opens an event.

The payload of ``Grenade`` cannot be unpickled — doing so raises, and
notes who tried.  Published through three broker stages over real
sockets, it must reach the subscriber runtime byte for byte as the
publisher marshalled it, having been opened by nobody on the way: the
brokers route on the reflected meta-data and copy the payload as a
length-prefixed slice of the frame.  Only the subscriber runtime, the
edge that exists to open it, gets the explosion.
"""

import inspect
import pickle

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.events.serialization import marshal
from repro.overlay.messages import DataFrame, Publish, PublishBatch
from repro.overlay.node import BrokerNode
from repro.overlay.subscriber import SubscriberRuntime
from repro.runtime.asyncio_backend import decode_frame, encode_frame
from repro.sim.kernel import Process

SCHEMA = ("class", "symbol", "price")

#: Name of the process inside whose ``receive`` a payload was opened.
OPENED_BY = []


class Boom(Exception):
    pass


def _explode():
    opener = next(
        (
            info.frame.f_locals["self"]
            for info in inspect.stack()
            if isinstance(info.frame.f_locals.get("self"), Process)
        ),
        None,
    )
    OPENED_BY.append(getattr(opener, "name", None))
    raise Boom("an event payload was opened")


class Grenade:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price

    def __reduce__(self):
        return (_explode, ())


def _payloads(message):
    if isinstance(message, Publish):
        return [message.envelope.payload]
    if isinstance(message, (PublishBatch, DataFrame)):
        return [publish.envelope.payload for publish in message.publishes]
    return []


def _publish_grenades(runtime):
    """Grenades through a (1, 1, 1) hierarchy to one subscriber, three
    one at a time and then three at once (those may share a batch, and
    a batch ends at its first explosion); returns the transport errors
    after the first three and after all."""
    del OPENED_BY[:]
    system = MultiStageEventSystem(stage_sizes=(1, 1, 1), seed=3, runtime=runtime)
    try:
        system.register_type(Grenade)
        system.advertise("Grenade", schema=SCHEMA)
        publisher = system.create_publisher()
        subscriber = system.create_subscriber("edge")
        handled = []
        system.subscribe(
            subscriber,
            'class = "Grenade" and symbol = "X" and price < 10.0',
            handler=lambda event, metadata, subscription: handled.append(event),
        )
        # Joined, and the weakened filter inserted at every stage above
        # the home (broker processes report their table sizes).
        assert system.run_until(
            lambda: subscriber._homes()
            and all(
                (len(node.table) if hasattr(node, "table") else node.stat("table_size"))
                for node in system.hierarchy.nodes()
            ),
            timeout=15.0,
        )
        errors = system.network.errors
        publisher.publish(Grenade("Y", 1.0))  # matches nothing
        for count, price in enumerate((1.0, 2.0, 3.0), start=1):
            publisher.publish(Grenade("X", price))
            assert system.run_until(lambda: len(errors) >= count, timeout=15.0)
        one_by_one = list(errors)
        for price in (4.0, 5.0, 6.0):
            publisher.publish(Grenade("X", price))
        assert system.run_until(lambda: len(errors) > 3, timeout=15.0)
        system.run_for(0.3)
        assert handled == []
        if runtime == "multiprocess":
            for snapshot in system.sim.poll_workers().values():
                assert snapshot["errors"] == []  # no broker process opened one
        return one_by_one, list(errors)
    finally:
        system.close()


def test_a_payload_crosses_three_brokers_unopened_and_byte_identical(monkeypatch):
    marshalled = pickle.dumps(Grenade("X", 1.0))
    seen = []

    def recording(receive):
        def wrapper(self, message, sender=None):
            seen.extend((self.name, payload) for payload in _payloads(message))
            return receive(self, message, sender)

        return wrapper

    monkeypatch.setattr(BrokerNode, "receive", recording(BrokerNode.receive))
    monkeypatch.setattr(
        SubscriberRuntime, "receive", recording(SubscriberRuntime.receive)
    )
    one_by_one, errors = _publish_grenades("asyncio")

    hops = [name for name, _ in seen]
    # Seven events into the root; the six that match cross every stage
    # (the seventh as far as the weakened filters let it) to the edge.
    assert hops.count("N3.1") == 7 and hops.count("edge") == 6
    assert hops.count("N2.1") >= 6 and hops.count("N1.1") >= 6
    assert {payload for _, payload in seen} == {marshalled}
    assert len(one_by_one) == 3 and 4 <= len(errors) <= 6
    assert OPENED_BY == ["edge"] * len(errors)
    assert all(error.startswith("edge receive: Boom(") for error in errors)


def test_broker_processes_do_not_open_payloads_either():
    one_by_one, errors = _publish_grenades("multiprocess")
    assert len(one_by_one) == 3 and 4 <= len(errors) <= 6
    assert OPENED_BY == ["edge"] * len(errors)
    assert all(error.startswith("edge receive: Boom(") for error in errors)


def test_the_codec_itself_never_unpickles_a_payload():
    del OPENED_BY[:]
    run = tuple(
        Publish(marshal(Grenade("X", price), "Grenade", 0.5, ("feed", index)))
        for index, price in enumerate((1.0, 2.0))
    )
    message = PublishBatch(run)
    for _ in range(3):  # three hops
        _, message = decode_frame(encode_frame("N2.1", message), lambda name: None)
    assert [p.envelope.payload for p in message.publishes] == [
        p.envelope.payload for p in run
    ]
    assert OPENED_BY == []
    with pytest.raises(Boom):
        pickle.loads(message.publishes[0].envelope.payload)

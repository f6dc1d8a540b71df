"""Unit tests for envelopes and (un)marshaling."""

import pickle

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope, marshal, unmarshal
from repro.overlay.messages import Publish
from repro.runtime.asyncio_backend import decode_frame, encode_frame


class Order:
    def __init__(self, item, quantity):
        self._item = item
        self._quantity = quantity

    def get_item(self):
        return self._item

    def get_quantity(self):
        return self._quantity

    def total(self, unit_price):
        # Behaviour that travels with the object but is invisible to brokers.
        return unit_price * self._quantity


def test_marshal_extracts_metadata():
    envelope = marshal(Order("widget", 3))
    assert envelope.metadata["item"] == "widget"
    assert envelope.metadata["quantity"] == 3
    assert envelope.metadata["class"] == "Order"
    assert envelope.event_class == "Order"


def test_marshal_class_name_override():
    assert marshal(Order("w", 1), class_name="PurchaseOrder").event_class == (
        "PurchaseOrder"
    )


def test_unmarshal_round_trips_the_object():
    original = Order("widget", 3)
    recovered = unmarshal(marshal(original))
    assert isinstance(recovered, Order)
    assert recovered.get_item() == "widget"
    assert recovered.total(2.0) == 6.0


def test_property_event_marshals_as_its_own_metadata():
    event = PropertyEvent(a=1, b=2)
    envelope = marshal(event, published_at=1.5, event_id=("p", 4))
    assert envelope.metadata is event and envelope.payload == b""
    assert (envelope.published_at, envelope.event_id) == (1.5, ("p", 4))
    assert unmarshal(envelope) is event


def test_a_property_event_published_with_an_event_class_carries_it():
    """``event_class`` overrides the meta-data type name of a
    ``PropertyEvent`` too: it used to be dropped, so the event carried no
    ``class`` and matched no subscription to the class."""
    envelope = marshal(PropertyEvent({"class": "Old", "a": 1}), class_name="X")
    assert envelope.metadata == PropertyEvent({"class": "X", "a": 1})
    assert envelope.payload == b""

    system = MultiStageEventSystem(stage_sizes=(2, 1), seed=0)
    system.advertise("X", schema=("class", "a"))
    subscriber = system.create_subscriber("alice")
    seen = []
    system.subscribe(subscriber, "a = 1", "X", lambda e, m, s: seen.append(dict(m)))
    system.drain()
    system.create_publisher("feed").publish(PropertyEvent(a=1), event_class="X")
    system.drain()
    assert seen == [{"a": 1, "class": "X"}]


def test_a_property_event_subclass_travels_as_a_plain_one():
    class Hiding(PropertyEvent):
        __slots__ = ()

        def __getitem__(self, name):
            raise KeyError(name)

    envelope = marshal(Hiding(a=1))
    assert type(envelope.metadata) is PropertyEvent and envelope.payload == b""
    assert envelope.metadata["a"] == 1 and unmarshal(envelope) == PropertyEvent(a=1)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(pickle, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(pickle, name, counted)
    return calls


@pytest.mark.parametrize(
    "event, dumps",
    [(PropertyEvent({"class": "Order", "item": "widget"}), 1), (Order("widget", 3), 2)],
    ids=["property-event", "typed"],
)
def test_one_serialisation_from_publish_through_the_first_send(monkeypatch, event, dumps):
    """``_marshal`` pickles a typed event once and builds the record,
    which pickles the property dict: two ``pickle.dumps`` for a typed
    event, one for a ``PropertyEvent``.  Pricing the send and encoding
    the frame a socket would send add lengths, and pickle nothing."""
    system = MultiStageEventSystem(stage_sizes=(1,), seed=0)
    publisher = system.create_publisher("feed")
    sent = []
    send = system.network.send
    monkeypatch.setattr(
        system.network, "send", lambda *args: sent.append(args[2]) or send(*args)
    )
    calls = _counting(monkeypatch, "dumps")
    assert publisher.publish(event)
    (message,) = sent
    frame = encode_frame("feed", message)
    assert len(calls) == dumps
    # A socket's first hop carries the record built at publish.
    assert message.record() in frame

    # Opening a copy: the meta-data is the event, with no unpickling.
    _, copy = decode_frame(frame, None)
    loads = _counting(monkeypatch, "loads")
    opened = unmarshal(copy.envelope)
    if dumps == 1:
        assert loads == [] and opened == event and type(opened) is PropertyEvent
    else:
        assert len(loads) == 1 and opened.total(2.0) == 6.0


def test_envelope_size_model():
    envelope = marshal(Order("widget", 3))
    assert len(envelope) > len(envelope.payload)


def test_payload_not_in_repr():
    envelope = marshal(Order("widget", 3))
    assert "payload" not in repr(envelope) or "b'" not in repr(envelope)


#: ``pickle.dumps(PICKLED, 4)`` as recorded from the dict-backed
#: dataclasses at ``96e67b4``: the slotted classes pickle their fields
#: the same way, and the record stays out.
PICKLED = Publish(Envelope(PropertyEvent(a=1), b"x", 0.5, ("p", 3)), 7)
PICKLE_AT_PARENT = bytes.fromhex(
    "800495e8000000000000008c16726570726f2e6f7665726c61792e6d6573736167"
    "6573948c075075626c6973689493942981947d94288c08656e76656c6f7065948c"
    "1a726570726f2e6576656e74732e73657269616c697a6174696f6e948c08456e76"
    "656c6f70659493942981947d94288c086d65746164617461948c11726570726f2e"
    "6576656e74732e62617365948c085f726573746f72659493947d948c0161944b01"
    "73859452948c077061796c6f616494430178948c0c7075626c69736865645f6174"
    "94473fe00000000000008c086576656e745f6964948c0170944b03869475628c06"
    "6f6666736574944b0775622e"
)


def test_pickles_are_the_dict_backed_classes_bytes():
    assert pickle.dumps(PICKLED, 4) == PICKLE_AT_PARENT
    copy = pickle.loads(PICKLE_AT_PARENT)
    assert copy == PICKLED and copy.record() == PICKLED.record()

"""The size model's one invariant (DESIGN §16): a data message costs on
``sim`` what its frame costs on a socket, sender name aside; a control
message costs its fields in the field model; nothing costs less than 16.

The default sizer never encodes anything: a ``Publish`` carries its
record, the messages that carry a run add lengths up, and a control
message adds up the prices of its fields.  So every message kind in
``overlay/messages.py`` is priced both ways here, by the sizer and the
slow way — ``encode_frame`` for a data message, the field model's bytes
actually packed (``control_frame``) for a control message — and the two
must agree, byte for byte.  The test is parametrised over the module's
dataclasses, so a kind added there without a case in ``cases()`` fails
under its own name.
"""

import copy
import dataclasses
import pickle
import struct
import zlib

import pytest

from repro.core.advertisement import Advertisement
from repro.core.stages import AttributeStageAssociation
from repro.core.subscription import Subscription
from repro.events.base import PropertyEvent
from repro.events.serialization import marshal
from repro.filters.constraints import AttributeConstraint
from repro.filters.filter import Filter
from repro.filters.operators import EQ, EXISTS, GT
from repro.filters.parser import parse_filter
from repro.overlay import messages
from repro.overlay.messages import (
    AcceptedAt,
    Ack,
    Advertise,
    CatchUpBatch,
    CatchUpDone,
    CatchUpLive,
    CatchUpRequest,
    ChannelReset,
    CreditGrant,
    DataFrame,
    Disconnect,
    FlowInstall,
    FlowRemove,
    JoinAt,
    Publish,
    PublishBatch,
    Reconnect,
    Renewal,
    ReplayBatch,
    ReplayRequest,
    ReqInsert,
    Sequenced,
    SubscriptionRequest,
    Unsubscribe,
    Withdraw,
)
from repro.overlay.subscriber import SubscriberRuntime
from repro.runtime.asyncio_backend import decode_frame, encode_frame
from repro.sim.kernel import Process, Simulator
from repro.sim.network import Network, _default_sizer
from repro.workloads.telemetry import TelemetryWorkload

MESSAGE_KINDS = sorted(
    (
        member
        for member in vars(messages).values()
        if isinstance(member, type)
        and dataclasses.is_dataclass(member)
        and member.__module__ == messages.__name__
    ),
    key=lambda kind: kind.__name__,
)


#: The kinds the codec frames as a run of records (bare or inside one
#: ``Sequenced``): the data plane.
DATA_KINDS = (Publish, PublishBatch, DataFrame, ReplayBatch, CatchUpBatch)


def is_data(message):
    carried = message.payload if type(message) is Sequenced else message
    return isinstance(carried, DATA_KINDS)


def pack_text(text):
    data = text.encode("utf-8", "surrogatepass")
    return struct.pack("!H", len(data)) + data


def pack_filter(filter_):
    out = struct.pack("!HB", len(filter_.constraints), filter_.matches_nothing)
    for constraint in filter_.constraints:
        out += pack_text(constraint.attribute) + b"\x00" + pack_value(constraint.operand)
    return out


def pack_value(value):
    """A type byte, then the value's body."""
    tag = b"\x00"
    if value is None:
        return tag
    if isinstance(value, bool):
        return tag + struct.pack("!?", value)
    if isinstance(value, int):
        return tag + struct.pack("!q", value)
    if isinstance(value, float):
        return tag + struct.pack("!d", value)
    if isinstance(value, str):
        return tag + pack_text(value)
    if isinstance(value, bytes):
        return tag + struct.pack("!I", len(value)) + value
    if isinstance(value, (tuple, list)):
        return tag + struct.pack("!I", len(value)) + b"".join(map(pack_value, value))
    if isinstance(value, Filter):
        return tag + pack_filter(value)
    if dataclasses.is_dataclass(value):
        return tag + b"".join(
            pack_value(getattr(value, field.name)) for field in dataclasses.fields(value)
        )
    return tag + struct.pack("!q", 0)


def pack_advertisement(advertisement):
    association = advertisement.association
    return (
        pack_text(advertisement.event_class)
        + struct.pack("!I", len(association.schema))
        + b"".join(map(pack_text, association.schema))
        + struct.pack("!I", association.num_stages)
        + b"".join(struct.pack("!H", len(attrs)) for _, attrs in association.stages())
    )


def pack_routed(filter_, event_class, process):
    return pack_filter(filter_) + pack_text(event_class) + pack_text(process.name)


#: Per control kind: the ``struct`` layout of its fixed-width fields,
#: their names, and its other fields packed one by one.
CONTROL_FIELDS = {
    Advertise: ("!", (), lambda m: pack_advertisement(m.advertisement)),
    SubscriptionRequest: (
        "!q",
        ("subscription_id",),
        lambda m: pack_routed(m.filter, m.event_class, m.subscriber),
    ),
    JoinAt: ("!q", ("subscription_id",), lambda m: pack_text(m.node.name)),
    AcceptedAt: (
        "!q",
        ("subscription_id",),
        lambda m: pack_text(m.node.name) + pack_filter(m.stored_filter),
    ),
    ReqInsert: ("!", (), lambda m: pack_routed(m.filter, m.event_class, m.child)),
    Withdraw: ("!", (), lambda m: pack_routed(m.filter, m.event_class, m.child)),
    Renewal: (
        "!I",
        (),
        lambda m: b"".join(pack_filter(f) + pack_text(c) for f, c in m.items),
    ),
    Unsubscribe: ("!", (), lambda m: pack_filter(m.filter) + pack_text(m.subscriber.name)),
    Disconnect: ("!?", ("durable",), lambda m: b""),
    Reconnect: ("!", (), lambda m: b""),
    Ack: ("!qq", ("epoch", "seq"), lambda m: pack_value(m.credits)),
    ChannelReset: ("!q?", ("incarnation", "answer"), lambda m: b""),
    FlowInstall: ("!", (), lambda m: pack_value(m.spec)),
    FlowRemove: ("!", (), lambda m: pack_text(m.flow)),
    CreditGrant: ("!qq", ("epoch", "credits"), lambda m: b""),
    CatchUpRequest: (
        "!q",
        ("subscription_id",),
        lambda m: pack_filter(m.filter)
        + pack_text(m.event_class)
        + pack_text(m.subscriber.name)
        + pack_text(m.home.name)
        + pack_value(m.from_offset)
        + pack_value(m.from_time),
    ),
    CatchUpDone: ("!qq", ("subscription_id", "replayed"), lambda m: b""),
    CatchUpLive: ("!q", ("subscription_id",), lambda m: b""),
    ReplayRequest: ("!q", ("from_offset",), lambda m: pack_text(m.child.name)),
}


def control_frame(message):
    """The field model the slow way: every field packed into bytes, in
    a frame with a header and a CRC (for a sender with no name)."""
    if type(message) is Sequenced:
        return struct.pack("!qq", message.epoch, message.seq) + control_frame(message.payload)
    layout, fixed, rest = CONTROL_FIELDS[type(message)]
    if type(message) is Renewal:
        fixed_values = (len(message.items),)
    else:
        fixed_values = tuple(getattr(message, name) for name in fixed)
    body = struct.pack(layout, *fixed_values) + rest(message)
    return messages.FRAME_HEAD.pack(2, 0, 0, 0) + body + struct.pack("<I", zlib.crc32(body))


def reference_size(message):
    """The size model the slow way: encode the data message's frame, or
    pack the control message's fields, and count."""
    if is_data(message):
        return max(16, len(encode_frame("", message)))
    return max(16, len(control_frame(message)))


class Quote:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


class Sink(Process):
    def receive(self, message, sender):
        pass


def publishes(count, offset=None):
    """``count`` distinct events of distinct rendered lengths."""
    return tuple(
        Publish(
            marshal(
                Quote("S" * (index + 1), 1.5 * index),
                published_at=0.25 * index,
                event_id=("feed", index),
            ),
            offset if offset is None else offset + index,
        )
        for index in range(count)
    )


FILTER = parse_filter('class = "Quote" and symbol = "A" and price < 10')
#: Every operand type the field model prices, ``None`` (a nullary
#: operator) and non-ASCII text among them.
AWKWARD = Filter(
    [
        AttributeConstraint("class", EQ, "Quöte"),
        AttributeConstraint("n", GT, 7),
        AttributeConstraint("flag", EQ, True),
        AttributeConstraint("blob", EQ, b"\x00\x01"),
        AttributeConstraint("nested", EQ, (1, "a", None)),
        AttributeConstraint("other", EQ, 1j),
        AttributeConstraint("size", EXISTS),
    ]
)
ADVERTISEMENT = Advertisement(
    "Quote", AttributeStageAssociation.uniform(("class", "symbol", "price"), 3)
)

#: Every way a run of events is carried: empty, a one-tuple (trailing
#: comma), two, many, with and without root offsets.
RUNS = [(), publishes(1), publishes(2), publishes(7), publishes(3, offset=98)]


def cases(kind):
    """Instances of one message kind, covering its shapes."""
    node = Sink(Simulator(), "N1.1")
    far = Sink(Simulator(), "brøker-ü")
    spec = TelemetryWorkload(None).rollup_flow(broker="N2.1")
    table = {
        Advertise: [Advertise(ADVERTISEMENT)],
        SubscriptionRequest: [
            SubscriptionRequest(FILTER, "Quote", node, 7),
            SubscriptionRequest(AWKWARD, "Quöte", far, 7),
        ],
        JoinAt: [JoinAt(node, 7), JoinAt(far, 2**40)],
        AcceptedAt: [AcceptedAt(node, 7, FILTER), AcceptedAt(node, 7, Filter.bottom())],
        ReqInsert: [ReqInsert(FILTER, "Quote", node), ReqInsert(Filter.top(), "Quote", far)],
        Withdraw: [Withdraw(FILTER, "Quote", node)],
        Renewal: [
            Renewal(()),
            Renewal(((FILTER, "Quote"),)),
            Renewal(((FILTER, "Quote"), (AWKWARD, "Quöte"))),
        ],
        Unsubscribe: [Unsubscribe(FILTER, node)],
        Disconnect: [Disconnect(), Disconnect(durable=False)],
        Reconnect: [Reconnect()],
        Ack: [Ack(0, -1), Ack(3, 12, credits=64)],
        ChannelReset: [ChannelReset(2)],
        FlowInstall: [FlowInstall(spec)],
        FlowRemove: [FlowRemove("rollup")],
        CreditGrant: [CreditGrant(0, 1), CreditGrant(1 << 32, 128)],
        CatchUpRequest: [
            CatchUpRequest(7, FILTER, "Quote", node, node),
            CatchUpRequest(7, FILTER, "Quote", node, node, 40, "2002-07-02T00:00:00"),
        ],
        CatchUpDone: [CatchUpDone(7, 1234)],
        CatchUpLive: [CatchUpLive(7)],
        ReplayRequest: [ReplayRequest(node, -1)],
        Publish: list(publishes(2)) + list(publishes(2, offset=9)),
        PublishBatch: [PublishBatch(run) for run in RUNS],
        DataFrame: [
            DataFrame(epoch, seq, run)
            for run in RUNS
            for epoch, seq in ((0, 0), (1 << 32, 1000))
        ],
        CatchUpBatch: [
            CatchUpBatch(sid, run, history)
            for run in RUNS
            for sid, history in ((7, True), (12345, False))
        ],
        ReplayBatch: [ReplayBatch(run, epoch) for run in RUNS for epoch in (0, 9)],
        Sequenced: [
            Sequenced(0, 0, CreditGrant(3, 5)),
            Sequenced(1, 17, Unsubscribe(FILTER, node)),
            Sequenced(1, 18, Renewal(((AWKWARD, "Quote"),))),
            Sequenced(12, 345, Publish(publishes(1)[0].envelope, 3)),
            Sequenced(0, 9, ReplayBatch(publishes(2))),
        ]
        + [Sequenced(2, 30, CatchUpBatch(7, run)) for run in RUNS],
    }
    return table[kind]


@pytest.mark.parametrize("kind", MESSAGE_KINDS, ids=lambda kind: kind.__name__)
def test_size_is_the_length_of_the_repr(kind):
    """...of the message as the reference renders it into bytes: its
    packed fields for a control message, its frame for a data message
    (``reference_size`` either way)."""
    for message in cases(kind):
        assert isinstance(message, kind)
        assert _default_sizer(message) == reference_size(message), message
        # A second pricing reads remembered records: same answer.
        assert _default_sizer(message) == reference_size(message), message
        if is_data(message):
            frame = encode_frame("N2.1", message)
            assert frame[1] & 0x7F, "the case travels as records, not pickled"
            assert _default_sizer(message) == max(16, len(frame) - len("N2.1"))


def test_small_and_foreign_messages_keep_the_floor_and_the_repr_path():
    """Only an object that is no message kind at all is rendered."""
    assert _default_sizer("hi") == 16
    assert _default_sizer({"k": "v" * 40}) == len(repr({"k": "v" * 40}))


def test_a_shared_publish_is_rendered_once_across_hops(monkeypatch):
    """Rendered into its record, that is: once, whatever carries it."""

    class CountingPickle:
        HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
        dumped = []

        def dumps(self, value, protocol):
            self.dumped.append(value)
            return pickle.dumps(value, protocol)

    monkeypatch.setattr(messages, "pickle", CountingPickle())
    publish = publishes(1)[0]
    for message in (
        publish,
        PublishBatch((publish,)),
        DataFrame(0, 4, (publish,)),
        Sequenced(0, 1, ReplayBatch((publish,))),
    ):
        _default_sizer(message)
    assert CountingPickle.dumped == [{"class": "Quote", "symbol": "S", "price": 0.0}]


def test_control_message_size_does_not_depend_on_live_counters():
    """A control message embeds a process whose ``repr`` shows a live
    count; its price reads the process's name only, so it is the same
    before and after the count moves, and equal to the reference."""
    sim = Simulator()
    net = Network(sim)
    root = Sink(sim, "root")
    subscriber = SubscriberRuntime(sim, net, "sub", root)
    net.connect(subscriber, root)
    message = Unsubscribe(FILTER, subscriber)
    rendered = repr(message)

    sizes = []
    for _ in range(2):
        before = net.stats.total_bytes
        net.send(subscriber, root, message)
        sizes.append(net.stats.total_bytes - before)
        for _ in range(10):  # "0 subscriptions" -> "10 subscriptions"
            subscriber.subscribe(Subscription(FILTER, "Quote"))
    assert repr(message) != rendered  # the live count moved...
    assert sizes[0] == sizes[1] == reference_size(message)  # ...the price did not
    assert net.link(subscriber, root).bytes == net.stats.total_bytes


def test_pricing_a_control_message_renders_nothing(monkeypatch):
    """No ``repr``, ``str`` or pickle runs when a control kind is priced."""

    def refuse(*args):
        raise AssertionError("rendered on the send path")

    # Built first: a ``Publish`` in a case pickles its properties into
    # its record as it is made, which is not pricing.
    controls = [
        message
        for kind in MESSAGE_KINDS
        for message in cases(kind)
        if not is_data(message)
    ]
    for kind in (Process, Filter, AttributeConstraint, Advertisement, AttributeStageAssociation):
        monkeypatch.setattr(kind, "__repr__", refuse)
        monkeypatch.setattr(kind, "__str__", refuse)
    monkeypatch.setattr(messages, "pickle", None)
    for message in controls:
        _default_sizer(message)


def test_remembered_size_is_invisible_outside_sizing():
    fresh, sized = publishes(1)[0], publishes(1)[0]
    assert _default_sizer(sized) == len(encode_frame("", publishes(1)[0]))
    frame = encode_frame("feed", PublishBatch((sized,)))
    # Built with the event: the record the frame holds, the same bytes
    # object however often it is asked for.
    assert sized.record() is sized.record() and sized.record() in frame
    _, arrived = decode_frame(frame, None)
    (parsed,) = arrived.publishes  # keeps the slice it was parsed from
    assert parsed.record() == sized.record()

    for remembering in (sized, parsed):
        assert repr(remembering) == repr(fresh)
        assert remembering == fresh and hash(remembering) == hash(fresh)
        assert dataclasses.asdict(remembering) == dataclasses.asdict(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(remembering, protocol) == pickle.dumps(fresh, protocol)
        # Socket frames: the same bytes before and after sizing.
        assert encode_frame("feed", PublishBatch((remembering,))) == frame
        for copied in (
            pickle.loads(pickle.dumps(remembering)),
            copy.copy(remembering),
            dataclasses.replace(remembering),
        ):
            assert copied == remembering and copied.record() == fresh.record()
    # A changed field is a different event: its record is its own.
    changed = dataclasses.replace(sized, offset=4)
    assert changed.record() == Publish(fresh.envelope, 4).record() != fresh.record()
    with pytest.raises(dataclasses.FrozenInstanceError):
        sized._record = b""


def test_a_property_event_record_is_head_publisher_and_properties():
    """A ``PropertyEvent`` is its own meta-data: its record carries the
    property set and a payload of 0 bytes, and the size model agrees."""
    event = PropertyEvent({"class": "Quote", "symbol": "S", "price": 1.5})
    publish = Publish(marshal(event, published_at=0.5, event_id=("feed", 7)))
    properties = pickle.dumps(dict(event), pickle.HIGHEST_PROTOCOL)
    head = messages._RECORD.pack(6, 0, 0.5, 7, len(b"feed"), len(properties), 0)
    assert publish.record() == head + b"feed" + properties
    assert _default_sizer(publish) == reference_size(publish)
    _, arrived = decode_frame(encode_frame("", publish), None)
    assert arrived == publish and arrived.envelope.payload == b""



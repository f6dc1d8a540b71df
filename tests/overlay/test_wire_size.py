"""The size model's one invariant (DESIGN §16): a data message costs on
``sim`` what its frame costs on a socket, sender name aside; a control
message costs the length of its ``repr``; nothing costs less than 16.

The default sizer never encodes a frame — a ``Publish`` remembers its
record and the messages that carry a run add lengths up — so every
message kind in ``overlay/messages.py`` is priced both ways here, by
the sizer and by ``encode_frame``/``repr``, and the two must agree,
byte for byte.  The test is parametrised over the module's
dataclasses, so a kind added there without a case in ``cases()`` fails
under its own name.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.core.subscription import Subscription
from repro.events.serialization import marshal
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


def reference_size(message):
    """The size model the slow way: encode the data message's frame (for
    a sender with no name) or render the control message, and count."""
    if is_data(message):
        return max(16, len(encode_frame("", message)))
    return max(16, len(repr(message)))


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

#: Every way a run of events is carried: empty, a one-tuple (trailing
#: comma), two, many, with and without root offsets.
RUNS = [(), publishes(1), publishes(2), publishes(7), publishes(3, offset=98)]


def cases(kind):
    """Instances of one message kind, covering its shapes."""
    node = Sink(Simulator(), "N1.1")
    table = {
        Advertise: [Advertise("advertisement")],
        SubscriptionRequest: [SubscriptionRequest(FILTER, "Quote", node, 7)],
        JoinAt: [JoinAt(node, 7)],
        AcceptedAt: [AcceptedAt(node, 7, FILTER)],
        ReqInsert: [ReqInsert(FILTER, "Quote", node)],
        Withdraw: [Withdraw(FILTER, "Quote", node)],
        Renewal: [Renewal(()), Renewal(((FILTER, "Quote"),))],
        Unsubscribe: [Unsubscribe(FILTER, node)],
        Disconnect: [Disconnect(), Disconnect(durable=False)],
        Reconnect: [Reconnect()],
        Ack: [Ack(0, -1), Ack(3, 12, credits=64)],
        ChannelReset: [ChannelReset(2)],
        FlowInstall: [FlowInstall("spec")],
        FlowRemove: [FlowRemove("rollup")],
        CreditGrant: [CreditGrant(1), CreditGrant(128)],
        CatchUpRequest: [
            CatchUpRequest(7, FILTER, "Quote", node, node),
            CatchUpRequest(7, FILTER, "Quote", node, node, 40, "2002-07-02T00:00:00"),
        ],
        CatchUpDone: [CatchUpDone(7, 1234)],
        CatchUpLive: [CatchUpLive(7)],
        ReplayRequest: [ReplayRequest(node, -1)],
        Publish: list(publishes(2)) + list(publishes(2, offset=9)),
        PublishBatch: [PublishBatch(run) for run in RUNS],
        DataFrame: [DataFrame(seq, run) for run in RUNS for seq in (0, 1000)],
        CatchUpBatch: [
            CatchUpBatch(sid, run, history)
            for run in RUNS
            for sid, history in ((7, True), (12345, False))
        ],
        ReplayBatch: [ReplayBatch(run) for run in RUNS],
        Sequenced: [
            Sequenced(0, 0, CreditGrant(5)),
            Sequenced(1, 17, Unsubscribe(FILTER, node)),
            Sequenced(12, 345, Publish(publishes(1)[0].envelope, 3)),
            Sequenced(0, 9, ReplayBatch(publishes(2))),
        ]
        + [Sequenced(2, 30, CatchUpBatch(7, run)) for run in RUNS],
    }
    return table[kind]


@pytest.mark.parametrize("kind", MESSAGE_KINDS, ids=lambda kind: kind.__name__)
def test_size_is_the_length_of_the_repr(kind):
    """...of the ``repr`` for a control message, of the frame for a data
    message: ``reference_size`` either way."""
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
        DataFrame(4, (publish,)),
        Sequenced(0, 1, ReplayBatch((publish,))),
    ):
        _default_sizer(message)
    assert CountingPickle.dumped == [{"class": "Quote", "symbol": "S", "price": 0.0}]


def test_control_message_is_priced_at_each_send():
    """A control message embeds a process whose ``repr`` shows a live
    count: its size is that of the rendering at the moment of the send."""
    sim = Simulator()
    net = Network(sim)
    root = Sink(sim, "root")
    subscriber = SubscriberRuntime(sim, net, "sub", root)
    net.connect(subscriber, root)
    message = Unsubscribe(FILTER, subscriber)

    before = net.stats.total_bytes
    net.send(subscriber, root, message)
    first = net.stats.total_bytes - before
    assert first == len(repr(message))

    for _ in range(10):  # "0 subscriptions" -> "10 subscriptions"
        subscriber.subscribe(Subscription(FILTER, "Quote"))
    before = net.stats.total_bytes
    net.send(subscriber, root, message)
    second = net.stats.total_bytes - before
    assert second == len(repr(message)) == first + 1
    assert net.link(subscriber, root).bytes == net.stats.total_bytes


def test_remembered_size_is_invisible_outside_sizing():
    fresh, sized = publishes(1)[0], publishes(1)[0]
    assert _default_sizer(sized) == len(encode_frame("", publishes(1)[0]))
    frame = encode_frame("feed", PublishBatch((sized,)))
    # The one memo is taken now: pricing built the record the frame holds.
    assert sized.record() is sized.record() and sized.record() in frame
    _, arrived = decode_frame(frame, None)
    (parsed,) = arrived.publishes  # remembers the slice it was parsed from
    assert parsed.record() == sized.record()

    for remembering in (sized, parsed):
        assert repr(remembering) == repr(fresh)
        assert remembering == fresh and hash(remembering) == hash(fresh)
        assert dataclasses.asdict(remembering) == dataclasses.asdict(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(remembering, protocol) == pickle.dumps(fresh, protocol)
        # Socket frames: the same bytes before and after the memos were taken.
        assert encode_frame("feed", PublishBatch((remembering,))) == frame
        for copied in (
            pickle.loads(pickle.dumps(remembering)),
            copy.copy(remembering),
            dataclasses.replace(remembering),
        ):
            assert copied == remembering and vars(copied) == vars(fresh)
    # A changed field is a different event: nothing remembered follows it.
    assert vars(dataclasses.replace(sized, offset=4)) == vars(Publish(fresh.envelope, 4))

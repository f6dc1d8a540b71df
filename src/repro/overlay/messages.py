"""Protocol messages exchanged over the overlay.

Processes address each other directly by reference (the simulator's
equivalent of a node id); names match the paper's vocabulary:
``Subscription(fsub)``, ``join-At``, ``accepted-At``, ``req-Insert``,
renewal messages, advertisements, and event publication.
"""

import dataclasses
import pickle
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.advertisement import Advertisement
from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope
from repro.filters.filter import Filter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Process
    from repro.streams.spec import FlowSpec


# The frame a socket runtime puts around a run of event records (the
# codec is :mod:`repro.runtime.asyncio_backend`, DESIGN §13): a header,
# the sender's name, the message's own few integers in a fixed layout,
# the records, a CRC-32.  The layouts are here, beside the record's,
# because the simulated network prices a data message at what that
# frame costs (``wire_size()``, DESIGN §16) and must not restate them.
#: Version, kind, byte length of the sender name, number of records.
FRAME_HEAD = struct.Struct("!BBHI")
FRAME_TRAILER = struct.Struct("<I")
SEQUENCED_LAYOUT = struct.Struct("!qq")  # epoch, seq
_NO_FIELDS = struct.Struct("!")
_FRAME_FIXED = FRAME_HEAD.size + FRAME_TRAILER.size


def _frame_size(layout: struct.Struct, run: tuple) -> int:
    """Bytes of the frame that carries ``run`` behind the fields in
    ``layout``, sender name aside: lengths added up, since every event
    has its record from birth.  An event with no record counts as its
    pickle, which is how it would travel."""
    size = _FRAME_FIXED + layout.size
    for publish in run:
        record = publish._record
        size += len(record) if record is not None else len(publish.pickled())
    return size


class _Run:
    """What the messages that carry a run of events share: the tuple is
    ``publishes`` (the name the network tracer duck-types for per-event
    drop/duplicate spans), and the message's other fields travel in a
    frame as ``FRAME_FIELDS``, encoded by ``FRAME_LAYOUT`` (``q`` demands
    an ``int`` and ``?`` a ``bool``)."""

    FRAME_FIELDS: Tuple[str, ...] = ()
    FRAME_LAYOUT = _NO_FIELDS

    def __len__(self) -> int:
        return len(self.publishes)

    def wire_size(self) -> int:
        """The simulated size: what this message's frame costs on a
        socket, sender name aside (the records are built with the
        events, so every hop adds lengths up)."""
        return _frame_size(self.FRAME_LAYOUT, self.publishes)


# A control message is priced by a field model (DESIGN §16), from its
# fields and nothing else: nothing is rendered, encoded or pickled per
# send.  A kind's fixed head is the frame's header and CRC plus its
# fixed-width fields (``struct`` codes as in ``FRAME_LAYOUT``); text is
# a 2-byte length and its UTF-8 bytes; a process reference is its
# name's text; a filter is a 2-byte constraint count and a flags byte,
# then per constraint the attribute's text, an operator byte and the
# operand; any other field value is a type byte and its body.
_SHORT = struct.calcsize("!H")
_COUNT = struct.calcsize("!I")
_FILTER_HEAD = struct.calcsize("!HB")
_OPERATOR = struct.calcsize("!B")
_TYPE = struct.calcsize("!B")
_WORD = struct.calcsize("!q")


def _head(layout: str = "!") -> int:
    """The fixed head of a control kind whose fixed-width fields pack as
    ``layout``."""
    return _FRAME_FIXED + struct.calcsize(layout)


def _text_size(text: str) -> int:
    if text.isascii():
        return _SHORT + len(text)
    return _SHORT + len(text.encode("utf-8", "surrogatepass"))


def _process_size(process: "Process") -> int:
    """A process reference travels as its name."""
    return _text_size(process.name)


def _filter_size(filter_: Filter) -> int:
    size = _FILTER_HEAD
    for constraint in filter_.constraints:
        size += (
            _text_size(constraint.attribute)
            + _OPERATOR
            + _value_size(constraint.operand)
        )
    return size


def _value_size(value: Any) -> int:
    """A field value of no fixed type: a type byte, then ``None`` and a
    boolean nothing more, a number one 8-byte word, text and bytes their
    length and contents, a tuple or list a count and its items, a filter
    its constraints, a dataclass its fields in order; anything else
    counts as one word."""
    kind = type(value)
    if kind is str:
        return _TYPE + _text_size(value)
    if kind is int or kind is float:
        return _TYPE + _WORD
    if value is None:
        return _TYPE
    if kind is bool:
        return _TYPE + 1
    if kind is bytes:
        return _TYPE + _COUNT + len(value)
    if kind is tuple or kind is list:
        return _TYPE + _COUNT + sum(map(_value_size, value))
    if kind is Filter:
        return _TYPE + _filter_size(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _TYPE + sum(
            _value_size(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    return _TYPE + _WORD


class _Control:
    """What every control message shares: ``wire_size()`` is the field
    model's (above), ``HEAD`` alone for a kind with only fixed-width
    fields; a kind with others adds their prices."""

    HEAD = _head()

    def wire_size(self) -> int:
        return self.HEAD


@dataclass(frozen=True)
class Advertise(_Control):
    """Advertisement dissemination: flooded from the root to all nodes."""

    advertisement: Advertisement

    def wire_size(self) -> int:
        """The class name, the schema, then each stage's prefix length."""
        advertisement = self.advertisement
        association = advertisement.association
        return (
            self.HEAD
            + _text_size(advertisement.event_class)
            + _COUNT
            + sum(map(_text_size, association.schema))
            + _COUNT
            + _SHORT * association.num_stages
        )


@dataclass(frozen=True)
class SubscriptionRequest(_Control):
    """``Subscription(fsub)`` of Figure 5: a subscriber looking for a home.

    ``filter`` is already in standard subscription format (Section 4.4);
    ``subscription_id`` lets the subscriber correlate the eventual
    ``accepted-At`` with the right pending subscription.
    """

    filter: Filter
    event_class: str
    subscriber: "Process"
    subscription_id: int

    HEAD = _head("!q")  # subscription_id

    def wire_size(self) -> int:
        return (
            self.HEAD
            + _filter_size(self.filter)
            + _text_size(self.event_class)
            + _process_size(self.subscriber)
        )


@dataclass(frozen=True)
class JoinAt(_Control):
    """``join-At(id)``: retry the subscription request at ``node``."""

    node: "Process"
    subscription_id: int

    HEAD = _head("!q")  # subscription_id

    def wire_size(self) -> int:
        return self.HEAD + _process_size(self.node)


@dataclass(frozen=True)
class AcceptedAt(_Control):
    """``accepted-At(node)``: the subscription now lives at ``node``."""

    node: "Process"
    subscription_id: int
    #: The weakened filter the node stored (returned for observability).
    stored_filter: Filter

    HEAD = _head("!q")  # subscription_id

    def wire_size(self) -> int:
        return self.HEAD + _process_size(self.node) + _filter_size(self.stored_filter)


@dataclass(frozen=True)
class ReqInsert(_Control):
    """``req-Insert(fc, idc)``: child asks parent to route ``fc`` to it."""

    filter: Filter
    event_class: str
    child: "Process"

    def wire_size(self) -> int:
        return (
            self.HEAD
            + _filter_size(self.filter)
            + _text_size(self.event_class)
            + _process_size(self.child)
        )


@dataclass(frozen=True)
class Withdraw(_Control):
    """Child retracts a previously ``req-Insert``-ed filter at its parent.

    Emitted by covering-based aggregation when a propagated filter
    becomes redundant (demoted under a more general cover) or dies
    (unsubscribed / expired / disconnected).  Senders order any
    replacement ``ReqInsert`` *before* the ``Withdraw`` so the parent's
    table covers the union of the child's filters at every instant —
    events may over-approximate briefly (sound by Proposition 1) but are
    never lost.
    """

    filter: Filter
    event_class: str
    child: "Process"

    wire_size = ReqInsert.wire_size


@dataclass(frozen=True)
class Renewal(_Control):
    """Lease renewal (§4.3): refresh the sender's filters at the receiver.

    ``items`` lists ``(filter, event_class)`` pairs — the weakened filters
    the sender previously submitted.  Renewal is *refresh-or-restore*: a
    pair missing from the receiver's table (purged after a partition, say)
    is re-inserted, which is what lets the soft-state scheme self-heal.
    """

    items: tuple  # Tuple[Tuple[Filter, str], ...]

    HEAD = _head("!I")  # the number of items

    def wire_size(self) -> int:
        return self.HEAD + sum(
            _filter_size(filter_) + _text_size(event_class)
            for filter_, event_class in self.items
        )


@dataclass(frozen=True)
class Unsubscribe(_Control):
    """Optional explicit unsubscription (§4.3 allows combining with TTL)."""

    filter: Filter
    subscriber: "Process"

    def wire_size(self) -> int:
        return self.HEAD + _filter_size(self.filter) + _process_size(self.subscriber)


@dataclass(frozen=True)
class Disconnect(_Control):
    """A subscriber going offline gracefully (§2.1 durable subscriptions).

    With ``durable=True`` the node buffers matching events for replay on
    reconnection; otherwise it simply stops forwarding to the subscriber
    (its filters stay installed until their leases lapse).
    """

    durable: bool = True

    HEAD = _head("!?")


@dataclass(frozen=True)
class Reconnect(_Control):
    """A disconnected subscriber returning: flush any buffered events."""


@dataclass(frozen=True)
class Sequenced:
    """Reliable-channel frame: ``payload`` with a per-sender sequence number.

    Control messages whose loss or reordering would corrupt routing state
    (``ReqInsert``/``Withdraw``/``Renewal``/``Unsubscribe``) travel inside
    ``Sequenced`` frames.  ``epoch`` identifies one incarnation of the
    sender's channel, told apart as a credited data link's are
    (:func:`repro.flow.link.incarnation`); within one, payloads are
    delivered in ``seq`` order, deduplicated and acked cumulatively.
    """

    epoch: int
    seq: int
    payload: object

    def wire_size(self) -> int:
        """The payload's price and the numbering around it."""
        return SEQUENCED_LAYOUT.size + self.payload.wire_size()


@dataclass(frozen=True)
class Ack(_Control):
    """Cumulative acknowledgement: every frame of ``epoch`` up to and
    including ``seq`` arrived (``seq`` -1 acks an empty prefix, i.e. it
    only reports the receiver's current epoch).

    ``credits`` piggybacks receiver-buffer flow control on the ack that
    was going back anyway (no new round-trips): when set, it advertises
    how many more frames the receiver can buffer, and the sender caps
    its in-flight window to it.  ``None`` (the default, and the only
    value produced by receivers without a configured capacity) means
    "no advertisement" — the pre-flow-control wire format.
    """

    epoch: int
    seq: int
    credits: Optional[int] = None

    HEAD = _head("!qq")  # epoch, seq

    def wire_size(self) -> int:
        return self.HEAD + _value_size(self.credits)


@dataclass(frozen=True)
class ChannelReset(_Control):
    """A restarted broker announcing its ``incarnation`` to a neighbour,
    or (``answer``) the neighbour's answer to it.

    Both ride the reliable channel.  The announcement is the first frame
    of the restarted broker's new epoch toward each neighbour, so it is
    retransmitted until heard.  The neighbour re-sends what it owes that
    broker — a child its propagated filters, a subscriber its renewal
    (§4.3 refresh-or-restore, without waiting a renewal period) — and
    then answers with the same ``incarnation``, behind that state on its
    own ordered link.  An answer never reads as an announcement, so two
    neighbours at the same incarnation never echo each other.
    """

    incarnation: int
    answer: bool = False

    HEAD = _head("!q?")


@dataclass(frozen=True)
class FlowInstall(_Control):
    """Install-or-renew one information flow at the receiving broker.

    Sent (reliably) by a :class:`~repro.streams.registrar.FlowRegistrar`.
    Idempotent in the refresh-or-restore style of §4.3: a broker already
    holding an identical spec just refreshes the flow's lease; a broker
    that lost it (crash, lease expiry) rebuilds the operator machine from
    scratch — with empty window state, which is exactly the soft-state
    contract (DESIGN §15).
    """

    spec: "FlowSpec"

    def wire_size(self) -> int:
        return self.HEAD + _value_size(self.spec)


@dataclass(frozen=True)
class FlowRemove(_Control):
    """Tear one flow down by name, discarding its pending state."""

    flow: str

    def wire_size(self) -> int:
        return self.HEAD + _text_size(self.flow)


@dataclass(frozen=True)
class CreditGrant(_Control):
    """Receiver-to-sender grant of ``credits`` more event sends on one
    data link, issued one-for-one as the receiver *processes* events that
    came under the link's ``epoch``; a sender whose link has moved to
    another epoch ignores it.  Grants ride the reliable control channel,
    so a grant lost to the wire is retransmitted (DESIGN §10)."""

    epoch: int
    credits: int

    HEAD = _head("!qq")  # epoch, credits


# The event record: one event as the socket runtimes put it on the wire
# (the frame around a run of records is :mod:`repro.runtime.asyncio_backend`).
#
#     1 byte   flags: which of offset / published_at / event_id are set
#     8 bytes  root log offset                      (signed, big-endian)
#     8 bytes  published_at                         (IEEE double)
#     8 bytes  event_id sequence number             (signed)
#     2+4+4    byte lengths of the three parts that follow
#     ...      event_id publisher name, UTF-8
#     ...      the property set: C pickle of the plain ``{name: value}`` dict
#     ...      the payload, raw: no broker opens it (section 2.2); empty
#              for a ``PropertyEvent``, whose property set is the event
_RECORD = struct.Struct("!BqdqHII")
_RECORD_STAMP = struct.Struct("!Bq")  # the head a root re-stamps
_HAS_OFFSET, _HAS_PUBLISHED_AT, _HAS_EVENT_ID = 1, 2, 4
#: Property values a record carries; ``pickle`` keeps their exact type
#: (``True`` is not ``1``: the engines bucket on it) and opens nothing.
_PLAIN_VALUES = frozenset((str, int, float, bool, bytes, type(None)))


def _build_record(envelope: Envelope, offset: Optional[int]) -> Optional[bytes]:
    """The record of the event ``envelope`` carries with root offset
    ``offset``, or ``None`` when the record cannot carry it *exactly*
    (an event id that is not ``(str, int)``, a property value outside
    the plain types, an integer beyond 64 bits)."""
    if type(envelope) is not Envelope:
        return None
    metadata, payload = envelope.metadata, envelope.payload
    published_at, event_id = envelope.published_at, envelope.event_id
    flags, publisher, seq = 0, b"", 0
    if offset is not None:
        flags |= _HAS_OFFSET
    if published_at is not None:
        flags |= _HAS_PUBLISHED_AT
    if event_id is not None:
        if type(event_id) is not tuple or len(event_id) != 2:
            return None
        name, seq = event_id
        if type(name) is not str:
            return None
        flags |= _HAS_EVENT_ID
        publisher = name.encode("utf-8", "surrogatepass")
    if (
        type(metadata) is not PropertyEvent
        or type(payload) is not bytes
        or type(offset) not in (int, type(None))
        or type(published_at) not in (float, type(None))
        or type(seq) is not int
    ):
        return None
    plain = metadata._properties
    if not _PLAIN_VALUES.issuperset(map(type, plain.values())):
        return None
    properties = pickle.dumps(plain, pickle.HIGHEST_PROTOCOL)
    try:
        head = _RECORD.pack(
            flags,
            0 if offset is None else offset,
            0.0 if published_at is None else published_at,  # keeps -0.0
            seq,
            len(publisher),
            len(properties),
            len(payload),
        )
    except struct.error:  # an integer or a length beyond its field
        return None
    return b"".join((head, publisher, properties, payload))


_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Publish:
    """An event on its way down the hierarchy (or into a subscriber).

    ``offset`` is the root's event-log offset for this event, stamped by
    the root when it has a log and carried unchanged downstream: every
    broker that logs the event records the same root offset, which is the
    coordinate crash recovery replays from (see :mod:`repro.log`).
    ``None`` means "not yet through a logging root" (publisher→root leg,
    or a system with no log configured).

    A ``Publish`` is immutable and travels by reference, so its record
    — the one serialisation of an event: what a socket sends, what the
    log stores, what the simulator prices — is built with it, once (for
    a published event, in the publisher's ``_marshal``), and kept beside
    the dataclass fields: ``repr``, ``==``, ``hash``, ``asdict`` and
    pickles do not see it.  A decoded event keeps the slice it was
    parsed from, and a stamped one its record with the head rewritten.
    """

    __slots__ = ("envelope", "offset", "_record")

    envelope: Envelope
    offset: Optional[int]

    #: Alone in a frame, an event is a run of one with no other field.
    FRAME_FIELDS = ()
    FRAME_LAYOUT = _NO_FIELDS

    def __init__(self, envelope: Envelope, offset: Optional[int] = None):
        _set(self, "envelope", envelope)
        _set(self, "offset", offset)
        _set(self, "_record", _build_record(envelope, offset))

    @classmethod
    def _with_record(
        cls, envelope: Envelope, offset: Optional[int], record: Optional[bytes]
    ) -> "Publish":
        """Internal constructor: the record for these fields is already
        known (a parsed slice, a re-stamped head) and is not rebuilt."""
        publish = object.__new__(cls)
        _set(publish, "envelope", envelope)
        _set(publish, "offset", offset)
        _set(publish, "_record", record)
        return publish

    def __getstate__(self) -> Dict[str, Any]:
        """The fields alone: the record never reaches a pickle (worker
        hand-off, pickled frames), which stays byte-identical."""
        return {"envelope": self.envelope, "offset": self.offset}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["envelope"], state["offset"])

    def wire_size(self) -> int:
        """The simulated size of this event sent alone: its frame's."""
        return _frame_size(self.FRAME_LAYOUT, (self,))

    def record(self) -> Optional[bytes]:
        """This event as one self-delimiting wire record.

        A broker forwarding a decoded ``Publish`` to k children and to
        the next stage hands out the very bytes it parsed.  ``None``
        when the record cannot carry the event exactly: such a message
        travels pickled whole instead.
        """
        return self._record

    def pickled(self) -> bytes:
        """What stands in for the record when :meth:`record` is ``None``:
        the fields pickled whole, as a socket frame carries the event
        then.  Raises for a value that no runtime could send."""
        return pickle.dumps(self, pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_record(cls, buffer: bytes, start: int) -> Tuple["Publish", int]:
        """Parse the record at ``buffer[start:]``; returns the event and
        the position after it.  The event keeps the parsed slice as its
        record.  The payload is sliced out, never opened."""
        flags, offset, published_at, seq, n_publisher, n_properties, n_payload = (
            _RECORD.unpack_from(buffer, start)
        )
        properties_at = start + _RECORD.size + n_publisher
        payload_at = properties_at + n_properties
        end = payload_at + n_payload
        if end > len(buffer):
            raise ValueError("truncated event record")
        event_id = None
        if flags & _HAS_EVENT_ID:
            name = buffer[start + _RECORD.size : properties_at]
            event_id = (name.decode("utf-8", "surrogatepass"), seq)
        envelope = Envelope(
            PropertyEvent._owning(pickle.loads(buffer[properties_at:payload_at])),
            buffer[payload_at:end],
            published_at if flags & _HAS_PUBLISHED_AT else None,
            event_id,
        )
        offset = offset if flags & _HAS_OFFSET else None
        return cls._with_record(envelope, offset, buffer[start:end]), end

    def stamped(self, offset: int) -> "Publish":
        """This event with the root's log offset set.  The offset is a
        fixed field at the head of the record, so the record is carried
        over with its head rewritten, not rebuilt."""
        record = self._record
        if record is None:
            return Publish(self.envelope, offset)
        head = _RECORD_STAMP.pack(record[0] | _HAS_OFFSET, offset)
        return Publish._with_record(
            self.envelope, offset, head + record[_RECORD_STAMP.size :]
        )


@dataclass(frozen=True)
class PublishBatch(_Run):
    """A run of events coalesced onto one link (batched dispatch).

    A broker that processed a run of events in one wakeup forwards the
    events bound for the same destination as a single message: one
    scheduling round and one ``receive`` call instead of ``len(publishes)``.
    Receivers process the contained events in order, so per-destination
    delivery order is exactly that of the equivalent unbatched sends.
    """

    publishes: tuple  # Tuple[Publish, ...]


@dataclass(frozen=True)
class DataFrame(_Run):
    """A run of events on one credited link (publisher→root and
    broker→broker, with flow control on): ``epoch`` is the link's
    incarnation and ``seq`` the number of the *first* event in it.  Not
    retransmitted — events stay best-effort — but the numbering lets the
    receiver return the credits of events a lossy link swallowed, and the
    epoch tells a restarted sender's frames from a dead one's (DESIGN §10,
    :func:`repro.flow.link.incarnation`)."""

    epoch: int
    seq: int
    publishes: tuple  # Tuple[Publish, ...]

    FRAME_FIELDS = ("epoch", "seq")
    FRAME_LAYOUT = struct.Struct("!qq")


@dataclass(frozen=True)
class CatchUpRequest(_Control):
    """A late subscriber asking the root to replay history (catch-up).

    Sent on the subscriber's reliable control channel to the root after
    the subscription is accepted.  ``from_offset``/``from_time`` pick the
    replay origin in the root's event log (offset wins when both are
    set; ``from_time`` may be simulated seconds or an ISO-8601 string).
    The root streams matching history as :class:`CatchUpBatch` frames at
    the configured replay rate, fences the live boundary, and announces
    :class:`CatchUpDone` then :class:`CatchUpLive` (see
    :mod:`repro.log.replay` for the switchover protocol).
    """

    subscription_id: int
    filter: Filter
    event_class: str
    subscriber: "Process"
    home: "Process"
    from_offset: Optional[int] = None
    from_time: Optional[object] = None  # float seconds or ISO-8601 str

    HEAD = _head("!q")  # subscription_id

    def wire_size(self) -> int:
        return (
            self.HEAD
            + _filter_size(self.filter)
            + _text_size(self.event_class)
            + _process_size(self.subscriber)
            + _process_size(self.home)
            + _value_size(self.from_offset)
            + _value_size(self.from_time)
        )


@dataclass(frozen=True)
class CatchUpBatch(_Run):
    """A run of replayed (``history=True``) or live-tapped events for one
    catch-up session, sent root→subscriber on the reliable channel; the
    subscriber's grant for a history run echoes ``epoch``."""

    subscription_id: int
    publishes: tuple  # Tuple[Publish, ...]
    history: bool = True
    epoch: int = 0

    FRAME_FIELDS = ("subscription_id", "history", "epoch")
    FRAME_LAYOUT = struct.Struct("!q?q")


@dataclass(frozen=True)
class CatchUpDone(_Control):
    """History drained: every log record up to the session's fence has
    been offered.  Live taps continue until :class:`CatchUpLive`."""

    subscription_id: int
    replayed: int

    HEAD = _head("!qq")


@dataclass(frozen=True)
class CatchUpLive(_Control):
    """Switchover complete: the normal overlay path now covers the
    subscription end-to-end, the root stops tapping, and subsequent
    events arrive only via the subscriber's home broker."""

    subscription_id: int

    HEAD = _head("!q")


@dataclass(frozen=True)
class ReplayRequest(_Control):
    """A restarted broker asking the root to re-drive events it may have
    missed while down, starting after root offset ``from_offset``
    (exclusive; ``-1`` replays from the log's start)."""

    child: "Process"
    from_offset: int

    HEAD = _head("!q")  # from_offset

    def wire_size(self) -> int:
        return self.HEAD + _process_size(self.child)


@dataclass(frozen=True)
class ReplayBatch(_Run):
    """A run of recovery-replay events for a restarted broker, which
    deduplicates it against its own log, processes the rest normally and
    grants for it under ``epoch``."""

    publishes: tuple  # Tuple[Publish, ...]
    epoch: int = 0

    FRAME_FIELDS = ("epoch",)
    FRAME_LAYOUT = struct.Struct("!q")

"""The binary frame codec against its predecessor (``frame_reference``).

Every dataclass in ``overlay/messages.py`` is found by introspection
and built from a strategy per *field type*, so a message or a field
added there is covered, or fails here under its own name.  For each:
``decode(encode(m))`` is ``m``, exactly — ``True`` stays a ``bool``,
``-0.0`` keeps its sign, NaN its bits — and equals what the reference
codec makes of the same message.  Then the two properties the format
exists for: a decoded event re-encodes from the bytes it was parsed
from (a subset of a run, a root's re-stamped offset), and what cannot
be carried exactly falls back to the pickled frame by the type of the
value alone.
"""

import dataclasses
import pickle
import struct
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.advertisement import Advertisement
from repro.core.stages import AttributeStageAssociation
from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope
from repro.filters.filter import Filter
from repro.filters.parser import parse_filter
from repro.overlay import messages
from repro.overlay.messages import (
    CatchUpBatch,
    DataFrame,
    Publish,
    PublishBatch,
    ReplayBatch,
    Sequenced,
)
from repro.runtime.asyncio_backend import decode_frame, encode_frame
from repro.sim.kernel import Process, Simulator
from repro.sim.network import _default_sizer
from repro.streams.spec import Aggregate, FlowSpec, WindowSpec

from tests.overlay.test_wire_size import MESSAGE_KINDS
from tests.runtime import frame_reference
from tests.runtime.test_differential import run_workload

PICKLED, PUBLISH, BATCH, DATA, REPLAY, CATCH_UP = range(6)
IN_SEQUENCED = 0x80


def kind_of(frame):
    """The kind byte of an encoded frame (second byte of the header)."""
    return frame[1]


class Sink(Process):
    def receive(self, message, sender):
        pass


_SIM = Simulator()
PROCESSES = {name: Sink(_SIM, name) for name in ("N1.1", "N2.1", "abonné-7")}
FILTERS = [
    parse_filter('class = "Quote" and symbol = "A" and price < 10'),
    parse_filter('class = "Quote"'),
]


def _advertisement():
    schema = ("class", "symbol", "price")
    return Advertisement("Quote", AttributeStageAssociation.uniform(schema, 3))


def canon(value):
    """A form two messages share only if they are the same to the bit:
    types exact, floats by their bytes, processes by name."""
    kind = type(value)
    if isinstance(value, Process):
        return ("process", value.name)
    if kind is float:
        return (float, struct.pack("!d", value))
    if kind in (tuple, list):
        return (kind, [canon(member) for member in value])
    if kind is dict:
        return (dict, [(canon(k), canon(v)) for k, v in value.items()])
    if kind is PropertyEvent:
        return (kind, canon(dict(value.items())))
    if dataclasses.is_dataclass(value):
        return (
            kind,
            [canon(getattr(value, f.name)) for f in dataclasses.fields(value)],
        )
    return (kind, value)


# ----------------------------------------------------------------------
# Strategies: one per field type
# ----------------------------------------------------------------------

small_integers = st.integers(min_value=-5, max_value=1 << 40)
integers = st.one_of(
    small_integers,
    small_integers,
    small_integers,
    st.integers(),  # shrinks to small, grows beyond 64 bits
    st.sampled_from([2**63 - 1, -(2**63), 2**63, 2**200]),
)
#: What reflection hands a broker to filter on, the awkward cases first.
plain_values = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -0.0, 0.0, float("nan"), float("inf"), 2**64, -(2**90)]),
    st.integers(),
    st.floats(),
    st.text(max_size=12),
    st.binary(max_size=6),
)
#: Values no tag covers: a message holding one travels pickled.
odd_values = st.one_of(
    st.tuples(st.integers(), st.text(max_size=3)),
    st.fractions(),
    st.frozensets(st.integers(), max_size=2),
)
def publishes_of(values, event_ids, times, offsets):
    metadata = st.dictionaries(st.text(max_size=8), values, max_size=5)
    envelopes = st.builds(
        Envelope, metadata.map(PropertyEvent), st.binary(max_size=40), times, event_ids
    )
    return st.builds(Publish, envelopes, offsets)


#: Events as the system makes them: these travel as records.
usual_publishes = publishes_of(
    plain_values,
    st.one_of(st.none(), st.tuples(st.text(max_size=8), st.integers(0, 1 << 40))),
    st.one_of(st.none(), st.floats(), st.sampled_from([-0.0, float("nan")])),
    st.one_of(st.none(), st.integers(-1, 1 << 40)),
)
#: Events as the dataclasses allow them: many of these travel pickled.
unusual_publishes = publishes_of(
    st.one_of(plain_values, odd_values),
    st.one_of(
        st.tuples(st.text(max_size=8), integers),
        st.tuples(st.text(max_size=3), st.booleans()),  # a bool is not a seq
        st.tuples(st.integers(), st.integers()),
        st.tuples(st.text(max_size=3), st.integers(), st.integers()),
        st.lists(st.integers(), min_size=2, max_size=2),
    ),
    st.one_of(st.floats(), st.integers()),
    st.one_of(st.none(), integers),
)
publishes = st.one_of(usual_publishes, usual_publishes, unusual_publishes)
#: Runs of 0, 1 and n events, most of them of the usual kind throughout.
runs = st.one_of(
    st.lists(usual_publishes, max_size=4), st.lists(publishes, max_size=4)
).map(tuple)

FIELD_STRATEGIES = {
    int: integers,
    str: st.text(max_size=12),
    bool: st.booleans(),
    Optional[int]: st.one_of(st.none(), integers),
    Optional[object]: st.one_of(st.none(), st.floats(allow_nan=False), st.text()),
    Filter: st.sampled_from(FILTERS),
    "Process": st.sampled_from(sorted(PROCESSES.values(), key=lambda p: p.name)),
    Envelope: publishes.map(lambda publish: publish.envelope),
    Advertisement: st.builds(_advertisement),
    "FlowSpec": st.builds(
        FlowSpec,
        st.sampled_from(["rollup", "dedup"]),
        st.sampled_from(FILTERS),
        st.just("Bar"),
        st.just(
            WindowSpec(
                "tumbling", "time", 2.0, aggregates=(Aggregate("", "count", "n"),)
            )
        ),
    ),
}
#: ``tuple`` says nothing about the members: those go by field name.
TUPLE_FIELDS = {
    "publishes": runs,
    "items": st.lists(
        st.tuples(st.sampled_from(FILTERS), st.text(max_size=5)), max_size=3
    ).map(tuple),
}


def message_of(kind, payloads):
    """Instances of one message dataclass; ``payloads`` fills a field
    typed ``object`` (what a ``Sequenced`` carries)."""
    arguments = {}
    for field in dataclasses.fields(kind):
        if field.type is tuple:
            arguments[field.name] = TUPLE_FIELDS[field.name]
        elif field.type is object:
            arguments[field.name] = payloads
        else:
            arguments[field.name] = FIELD_STRATEGIES[field.type]
    return st.builds(kind, **arguments)


RUN_KINDS = (Publish, PublishBatch, DataFrame, ReplayBatch, CatchUpBatch)
#: Half of them data-plane messages, half of them any of the others.
unnested = st.one_of(
    st.one_of([message_of(kind, st.none()) for kind in RUN_KINDS]),
    st.one_of(
        [
            message_of(kind, st.none())
            for kind in MESSAGE_KINDS
            if kind is not Sequenced and kind not in RUN_KINDS
        ]
    ),
)
#: A ``Sequenced`` carries any message, itself included.
any_message = st.recursive(
    unnested, lambda inner: message_of(Sequenced, inner), max_leaves=3
)
sender_names = st.sampled_from(["N1.1", "feed", "abonné-7", ""])


def resolve(name):
    return PROCESSES[name]


def round_trip(sender, message):
    frame = encode_frame(sender, message)
    decoded_sender, decoded = decode_frame(frame, resolve)
    assert decoded_sender == sender
    return frame, decoded


# ----------------------------------------------------------------------
# decode . encode = id, and equal to the reference round trip
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", MESSAGE_KINDS, ids=lambda kind: kind.__name__)
@given(data=st.data())
def test_round_trip_is_the_identity_and_agrees_with_the_reference(kind, data):
    message = data.draw(message_of(kind, any_message))
    sender = data.draw(sender_names)
    frame, decoded = round_trip(sender, message)
    assert canon(decoded) == canon(message)
    reference_sender, reference = frame_reference.decode_frame(
        frame_reference.encode_frame(sender, message), resolve
    )
    assert reference_sender == sender
    assert canon(reference) == canon(decoded)
    if kind_of(frame) != PICKLED:
        # Encoded again, now from the records decode remembered: the
        # same bytes.  (A pickle may order a set's members differently.)
        assert encode_frame(sender, decoded) == frame


def _event(properties, event_id=("feed", 7), published_at=0.25, payload=b"opaque"):
    return Envelope(PropertyEvent(properties), payload, published_at, event_id)


PLAIN = {"class": "Quote", "symbol": "é", "price": float("nan"), "big": 2**70,
         "flag": True, "one": 1, "zero": -0.0, "none": None}


def test_the_data_plane_travels_as_records_and_everything_else_pickled():
    publish = Publish(_event(PLAIN), 3)
    run = (publish, Publish(_event({"class": "Quote"}, event_id=None, published_at=None)))
    for message, kind in (
        (publish, PUBLISH),
        (PublishBatch(run), BATCH),
        (PublishBatch(()), BATCH),
        (DataFrame(3, 41, run), DATA),
        (ReplayBatch(run, 4), REPLAY),
        (ReplayBatch(run), REPLAY),
        (CatchUpBatch(7, run, history=False), CATCH_UP),
        (CatchUpBatch(7, run, True, 5), CATCH_UP),
        (Sequenced(2, 30, CatchUpBatch(7, run)), CATCH_UP | IN_SEQUENCED),
        (Sequenced(0, 1, publish), PUBLISH | IN_SEQUENCED),
        (Sequenced(0, 1, Sequenced(0, 2, publish)), PICKLED),
        (messages.Ack(3, 12, credits=64), PICKLED),
        (messages.CreditGrant(2, 5), PICKLED),
        ({"reply_to": PROCESSES["N1.1"]}, PICKLED),
    ):
        frame, decoded = round_trip("N2.1", message)
        assert kind_of(frame) == kind, message
        assert canon(decoded) == canon(message)


@pytest.mark.parametrize(
    "envelope",
    [
        _event({"class": "Quote", "when": (2002, 7)}),  # a value no tag covers
        _event({"class": "Quote", "ratio": Fraction(1, 3)}),
        _event(PLAIN, event_id=("feed", True)),
        _event(PLAIN, event_id=(7, "feed")),
        _event(PLAIN, event_id=("feed", 7, 0)),
        _event(PLAIN, event_id=("feed", 2**63)),
        _event(PLAIN, published_at=3),  # would come back 3.0
        _event(PLAIN, payload=bytearray(b"opaque")),
    ],
    ids=repr,
)
def test_what_a_record_cannot_carry_exactly_falls_back_by_the_type_of_the_value(
    envelope,
):
    publish = Publish(envelope)
    assert publish.record() is None
    for message in (publish, PublishBatch((Publish(_event(PLAIN)), publish))):
        frame, decoded = round_trip("N1.1", message)
        assert kind_of(frame) == PICKLED
        assert canon(decoded) == canon(message)
    for message in (Publish(_event(PLAIN), 2**63), DataFrame(0, 2**63, ())):
        frame, decoded = round_trip("N1.1", message)
        assert kind_of(frame) == PICKLED
        assert canon(decoded) == canon(message)


# ----------------------------------------------------------------------
# Encode once: what a forwarding broker does with a decoded run
# ----------------------------------------------------------------------

record_runs = st.lists(usual_publishes, min_size=1, max_size=6).map(tuple)


@given(run=record_runs, data=st.data())
def test_a_subset_and_a_restamped_offset_reencode_from_the_parsed_bytes(run, data):
    frame, arrived = round_trip("feed", PublishBatch(run))
    keep = data.draw(st.lists(st.integers(0, len(run) - 1), unique=True))
    offset = data.draw(st.integers(0, 1 << 40))

    subset = PublishBatch(tuple(arrived.publishes[i] for i in sorted(keep)))
    _, forwarded = round_trip("N3.1", subset)
    assert canon(forwarded) == canon(PublishBatch(tuple(run[i] for i in sorted(keep))))
    for publish in subset.publishes:
        assert publish.record() in frame  # the very bytes that arrived

    stamped = tuple(publish.stamped(offset) for publish in arrived.publishes)
    _, logged = round_trip("N3.1", DataFrame(1, 5, stamped))
    expected = tuple(Publish(publish.envelope, offset) for publish in run)
    assert canon(logged) == canon(DataFrame(1, 5, expected))
    assert encode_frame("N3.1", DataFrame(1, 5, stamped)) == encode_frame(
        "N3.1", DataFrame(1, 5, expected)
    )


def test_forwarding_serialises_nothing(monkeypatch):
    run = tuple(Publish(_event(PLAIN, event_id=("feed", i)), None) for i in range(5))
    _, arrived = round_trip("feed", DataFrame(0, 0, run))

    class NoPickle:
        HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

        def __getattr__(self, name):
            raise AssertionError(f"pickle.{name} on the forwarding path")

    monkeypatch.setattr(messages, "pickle", NoPickle())
    children = (arrived.publishes[:2], arrived.publishes[1:], arrived.publishes)
    for child in children:
        encode_frame("N3.1", PublishBatch(child))
    root = tuple(p.stamped(90 + i) for i, p in enumerate(arrived.publishes))
    frame = encode_frame("N3.1", DataFrame(0, 7, root))
    monkeypatch.undo()
    _, logged = decode_frame(frame, resolve)
    assert [p.offset for p in logged.publishes] == [90, 91, 92, 93, 94]
    assert canon(logged.publishes[0].envelope) == canon(run[0].envelope)


# ----------------------------------------------------------------------
# The simulator prices a data message at what its frame costs here
# ----------------------------------------------------------------------


@given(
    message=st.one_of([message_of(kind, st.none()) for kind in RUN_KINDS]),
    numbering=st.one_of(st.none(), st.tuples(st.integers(0, 9), st.integers(0, 1 << 40))),
    sender=sender_names,
)
def test_the_simulated_size_is_the_frame_length_sender_name_aside(
    message, numbering, sender
):
    """DESIGN §16's one invariant, for every data message whose events
    have a record (which is what decides that it travels as records);
    an event that has none is priced at its pickle, which is the frame
    of that event sent alone."""
    if numbering is not None:
        message = Sequenced(*numbering, message)
    frame = encode_frame(sender, message)
    if kind_of(frame) != PICKLED:
        assert _default_sizer(message) == max(16, len(frame) - len(sender.encode()))
    run = getattr(message, "payload", message)
    for publish in (run,) if type(run) is Publish else run.publishes:
        alone = encode_frame(sender, publish)
        assert publish.wire_size() == len(alone) - len(sender.encode())
        assert (publish.record() is None) == (kind_of(alone) == PICKLED)


# ----------------------------------------------------------------------
# Whole systems on either codec deliver the same events
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_reference_and_binary_codec_deliver_the_same_sets_on_asyncio(seed):
    with frame_reference.installed():
        reference_sets = run_workload("asyncio", seed)
    assert run_workload("asyncio", seed) == reference_sets
    assert all(reference_sets.values())

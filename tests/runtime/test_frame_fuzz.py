"""Bad bytes cost a frame or a connection, never the loop.

``decode_frame`` on damaged input raises ``ValueError`` and nothing
else: every truncation of a valid frame, and single-bit flips anywhere
in it (the trailing CRC sees to it that corrupt bytes are refused
before anything is unpickled).  Through a live ``TcpTransport`` the
same damage is surfaced in ``errors``, counted as a drop and booked on
the pair it travelled; a length prefix that cannot be a frame closes
that one connection before anything is buffered; and the next good
frame, on a fresh connection, arrives.
"""

import random
import socket

import pytest

from repro.events.base import PropertyEvent
from repro.events.serialization import Envelope
from repro.overlay.messages import (
    Ack,
    CatchUpBatch,
    DataFrame,
    Publish,
    PublishBatch,
    Sequenced,
)
from repro.runtime import asyncio_backend
from repro.runtime.asyncio_backend import (
    MAX_FRAME_BYTES,
    AsyncioRuntime,
    TcpTransport,
    decode_frame,
    encode_frame,
    frame_sender,
)
from repro.sim.kernel import Simulator

from tests.runtime.test_asyncio_backend import Sink

FLIPS_PER_FRAME = 400


def _publish(index, offset=None):
    properties = {"class": "Quote", "symbol": "é" * index, "price": 1.5 * index}
    envelope = Envelope(
        PropertyEvent(properties), b"payload-%d" % index, 0.25 * index, ("feed", index)
    )
    return Publish(envelope, offset)


RUN = tuple(_publish(index) for index in range(1, 4))
FRAMES = {
    "publish": encode_frame("feed", RUN[0]),
    "batch": encode_frame("N3.1", PublishBatch(RUN)),
    "empty-batch": encode_frame("N3.1", PublishBatch(())),
    "data-frame": encode_frame("N2.1", DataFrame(2, 17, RUN[:2])),
    "sequenced-catch-up": encode_frame("N3.1", Sequenced(1, 4, CatchUpBatch(9, RUN))),
    "pickled-control": encode_frame("abonné", Ack(3, 12, credits=64)),
    "pickled-object": encode_frame("a", {"symbol": "Foo", "price": 9.0}),
}


def refuses(frame):
    with pytest.raises(ValueError):
        decode_frame(frame, lambda name: None)


@pytest.mark.parametrize("name", FRAMES)
def test_every_truncation_of_a_valid_frame_is_a_value_error(name):
    frame = FRAMES[name]
    decode_frame(frame, lambda name: None)  # the whole frame is fine
    for length in range(len(frame)):
        refuses(frame[:length])
    refuses(frame + b"\x00")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", FRAMES)
def test_flipped_bits_are_a_value_error(name, seed):
    frame = FRAMES[name]
    rng = random.Random(f"{name}/{seed}")
    for _ in range(FLIPS_PER_FRAME):
        damaged = bytearray(frame)
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            damaged[rng.randrange(len(frame))] ^= 1 << rng.randrange(8)
        if bytes(damaged) != frame:  # two flips of the same bit
            refuses(bytes(damaged))


def test_other_versions_and_garbage_are_value_errors():
    refuses(b"")
    refuses(b"\xff not a frame")
    refuses(b'{"v": 1, "src": "a", "kind": "dict", "body": ""}')  # version 1
    newer = bytearray(FRAMES["publish"])
    newer[0] += 1
    with pytest.raises(ValueError, match="unsupported frame version"):
        decode_frame(bytes(newer), lambda name: None)


def test_an_unknown_process_reference_is_a_value_error():
    frame = encode_frame("alice", {"reply_to": Sink(Simulator(), "bob")})
    transport = TcpTransport(None)  # a registry nobody registered with
    with pytest.raises(ValueError, match="unknown process reference 'bob'"):
        decode_frame(frame, transport.lookup)


def test_the_header_names_the_sender_of_a_frame_with_a_corrupt_body():
    frame = bytearray(FRAMES["batch"])
    frame[-9] ^= 0x10  # inside the last record's payload
    refuses(bytes(frame))
    assert frame_sender(bytes(frame)) == "N3.1"
    assert frame_sender(FRAMES["pickled-control"]) == "abonné"
    assert frame_sender(b"") is None
    assert frame_sender(bytes(frame[:3])) is None
    assert frame_sender(b"\x01" + bytes(frame[1:])) is None  # another version
    assert frame_sender(bytes(frame[:10])) is None  # the name is cut short


# ----------------------------------------------------------------------
# Through a live transport
# ----------------------------------------------------------------------


class Wire:
    """Two senders and a receiver over loopback TCP."""

    def __enter__(self):
        self.runtime = AsyncioRuntime()
        self.transport = TcpTransport(self.runtime)
        self.a = Sink(self.runtime, "a")
        self.a2 = Sink(self.runtime, "a2")
        self.b = Sink(self.runtime, "b")
        self.transport.connect(self.a, self.b)
        self.transport.connect(self.a2, self.b)
        self.deliver(self.a, "hello")  # binds b's server
        return self

    def __exit__(self, *exc_info):
        self.transport.close()
        self.runtime.close()

    def deliver(self, src, message):
        before = len(self.b.received)
        self.transport.send(src, self.b, message)
        assert self.runtime.run_until(
            lambda: len(self.b.received) > before, timeout=5.0
        )
        assert self.b.received[-1] == (message, src.name)

    def inject(self, data):
        """Raw bytes from a socket the transport knows nothing about;
        returns whether the receiver hung up on it."""
        port = self.transport.endpoint(self.b).port
        with socket.create_connection((self.transport.host, port)) as raw:
            raw.sendall(data)
            errors = len(self.transport.errors)
            assert self.runtime.run_until(
                lambda: len(self.transport.errors) > errors, timeout=5.0
            )
            self.runtime.run(until=self.runtime.now + 0.05)
            raw.setblocking(False)
            try:
                return raw.recv(1) == b""
            except BlockingIOError:
                return False

    def quiet(self):
        """Nothing in flight, and the registry agrees with the counter."""
        return self.runtime._inflight == 0 and not any(
            self.transport._wire.values()
        )


def framed(payload):
    return (len(payload) + 4).to_bytes(4, "big") + payload


@pytest.mark.parametrize("prefix", [0, 3, 4, MAX_FRAME_BYTES + 1, 0xFFFFFFFF])
def test_a_length_that_cannot_be_a_frame_costs_its_connection_only(prefix):
    with Wire() as wire:
        dropped = wire.transport.stats.dropped_messages
        hung_up = wire.inject(prefix.to_bytes(4, "big") + b"x" * 64)
        assert hung_up
        assert f"frame length {prefix} at b" in wire.transport.errors
        assert wire.transport.stats.dropped_messages == dropped + 1
        # That connection is gone, with nothing buffered against the
        # claimed length; the endpoint, its other connection and the
        # loop are not.
        assert len(wire.transport.endpoint(wire.b).inbound) == 1
        assert wire.quiet()
        wire.deliver(wire.a2, "after")  # a fresh connection
        wire.deliver(wire.a, "and the old one")
        assert len(wire.transport.errors) == 1


@pytest.mark.parametrize("name", ["batch", "pickled-control"])
def test_a_corrupt_frame_is_dropped_and_the_next_one_delivered(name):
    with Wire() as wire:
        damaged = bytearray(FRAMES[name])
        damaged[len(damaged) // 2] ^= 0x01
        hung_up = wire.inject(
            framed(bytes(damaged)) + framed(encode_frame("a", "same socket"))
        )
        assert not hung_up
        wire.runtime.run_until(lambda: len(wire.b.received) == 2, timeout=5.0)
        # Framing survived: the good frame behind it, on the same
        # connection, arrived; nothing of the bad one did.
        assert [message for message, _ in wire.b.received] == ["hello", "same socket"]
        (error,) = wire.transport.errors
        assert error.startswith("decode: ValueError(") and error.endswith(" at b")
        assert wire.transport.stats.dropped_messages == 1
        assert wire.quiet()
        wire.deliver(wire.a2, "after")


def test_a_corrupt_body_settles_the_pair_it_travelled(monkeypatch):
    """Two frames in flight to one endpoint, the second with a damaged
    body: it is the second sender's entry that is settled, and its link
    that books the drop."""
    encode = asyncio_backend.encode_frame

    def damaging(src_name, message):
        frame = bytearray(encode(src_name, message))
        if message == "damaged":
            frame[-5] ^= 0x40  # body, not header
        return bytes(frame)

    with Wire() as wire:
        wire.deliver(wire.a2, "hello from a2")
        monkeypatch.setattr(asyncio_backend, "encode_frame", damaging)
        transport = wire.transport
        transport.send(wire.a, wire.b, "good")
        transport.send(wire.a2, wire.b, "damaged")
        assert len(transport._wire[("a", "b")]) == 1
        assert len(transport._wire[("a2", "b")]) == 1
        assert wire.runtime.run_until(lambda: transport.errors, timeout=5.0)
        wire.runtime.run_until(wire.quiet, timeout=5.0)
        assert wire.quiet()
        assert wire.b.received[-1] == ("good", "a")
        assert transport.link(wire.a2, wire.b).dropped_messages == 1
        assert transport.link(wire.a, wire.b).dropped_messages == 0
        assert transport.stats.dropped_messages == 1
        assert len(transport.errors) == 1


def test_a_frame_too_large_to_be_accepted_is_refused_at_the_sender(monkeypatch):
    monkeypatch.setattr(asyncio_backend, "MAX_FRAME_BYTES", 256)
    with Wire() as wire:
        wire.transport.send(wire.a, wire.b, "x" * 1000)
        (error,) = wire.transport.errors
        assert "frame from a refused" in error
        assert wire.transport.link(wire.a, wire.b).dropped_messages == 1
        assert wire.quiet()
        wire.deliver(wire.a, "small")

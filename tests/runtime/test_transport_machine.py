"""Frame accounting on a live transport, as a checked invariant.

A Hypothesis state machine drives one ``TcpTransport`` hosting three
processes in one OS process, over loopback TCP: sends between any two,
frames too large to be accepted, ``kill`` (a second one included) and
``restore``, and corrupt frames from a socket the transport knows
nothing about.  After every ``runtime.run()`` — the drain barrier —
nothing is in flight by any of the three counts (the runtime's
``_inflight``, the ``_wire`` registry, ``NetworkStats.in_flight``), and
every frame given to ``send`` is booked exactly once, as delivered or
as dropped; what a process received from another is what was sent, in
order, with gaps only where frames were dropped.
"""

import socket

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.runtime import asyncio_backend
from repro.runtime.asyncio_backend import (
    CRASHED,
    LISTENING,
    SERVING,
    AsyncioRuntime,
    TcpTransport,
)
from repro.sim.kernel import SimulationError

from tests.runtime.test_asyncio_backend import Sink
from tests.runtime.test_frame_fuzz import FRAMES, framed

#: No frame of FRAMES names one of these as its sender.
NAMES = ("p0", "p1", "p2")
#: The largest frame a reader accepts, lowered for the machine's run so
#: that an oversize frame is cheap to make.
LIMIT = 4096

names = st.sampled_from(NAMES)


def in_order_with_gaps(got, sent):
    """``got`` is ``sent`` with some messages left out, order kept."""
    remaining = iter(sent)
    return all(message in remaining for message in got)


class TransportMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.runtime = AsyncioRuntime()
        self.runtime.idle_timeout = 10.0  # a leak fails fast, not in 30 s
        self.transport = TcpTransport(self.runtime)
        self.sinks = {name: Sink(self.runtime, name) for name in NAMES}
        for index, a in enumerate(NAMES):
            for b in NAMES[index + 1 :]:
                self.transport.connect(self.sinks[a], self.sinks[b])
        self.sent = {}  # (src, dst) -> messages given to send, in order
        self.given = 0  # frames given to send
        self.injected = 0  # corrupt frames written from outside
        self.refused = 0  # oversize frames refused at the sender

    def teardown(self):
        try:
            self.drain()
        finally:
            self.transport.close()
            self.runtime.close()

    def endpoint(self, name):
        return self.transport.endpoint(self.sinks[name])

    @rule(src=names, dst=names, count=st.integers(1, 10))
    def send(self, src, dst, count):
        for _ in range(count):
            message = ("m", self.given)
            self.given += 1
            self.sent.setdefault((src, dst), []).append(message)
            self.transport.send(self.sinks[src], self.sinks[dst], message)

    @rule(src=names, dst=names)
    def oversize(self, src, dst):
        self.given += 1
        self.transport.send(self.sinks[src], self.sinks[dst], "x" * LIMIT)
        if not self.sinks[src].crashed:  # a crashed sender drops it first
            self.refused += 1

    @rule(name=names, burst=st.integers(0, 8), in_loop=st.booleans())
    def kill(self, name, burst, in_loop):
        """``burst`` frames from every process still in flight toward the
        victim.  Killed between runs, none of them has been written;
        killed by a timer, those that went out in its loop round lie
        unread in the victim's socket buffers."""
        for src in NAMES:
            self.send(src, name, burst)
        endpoint = self.endpoint(name)
        again, teardown = endpoint.state == CRASHED, endpoint.teardown
        if in_loop:
            fired = []
            self.runtime.defer(lambda: fired.append(self.transport.kill(self.sinks[name])))
            assert self.runtime.run_until(lambda: fired, 5.0)
        else:
            self.transport.kill(self.sinks[name])
        assert self.sinks[name].crashed and endpoint.state == CRASHED
        if again:  # a second kill leaves the first one's teardown alone
            assert endpoint.teardown is teardown
            assert endpoint.history.count(CRASHED) == self.sinks[name].incarnation + 1

    @rule(name=names)
    def restore(self, name):
        endpoint = self.endpoint(name)
        if endpoint.state != CRASHED:
            with pytest.raises(SimulationError, match="cannot restore"):
                self.transport.restore(self.sinks[name])
            return
        self.transport.restore(self.sinks[name])
        assert not self.sinks[name].crashed and endpoint.state == LISTENING

    @precondition(
        lambda self: any(
            self.endpoint(name).state in (LISTENING, SERVING) for name in NAMES
        )
    )
    @rule(data=st.data())
    def corrupt(self, data):
        # Injected between drains: a frame of unknowable origin may settle
        # any entry bound for its receiver, and none must be there.
        self.drain()
        name = data.draw(
            st.sampled_from(
                [n for n in NAMES if self.endpoint(n).state in (LISTENING, SERVING)]
            )
        )
        damaged = bytearray(FRAMES[data.draw(st.sampled_from(sorted(FRAMES)))])
        damaged[data.draw(st.integers(0, len(damaged) - 1))] ^= 1 << data.draw(
            st.integers(0, 7)
        )
        errors = len(self.transport.errors)
        port = self.endpoint(name).port
        with socket.create_connection((self.transport.host, port)) as raw:
            raw.sendall(framed(bytes(damaged)))
            assert self.runtime.run_until(
                lambda: len(self.transport.errors) > errors, timeout=5.0
            )
        self.injected += 1

    @rule()
    def drain(self):
        runtime, transport = self.runtime, self.transport
        runtime.run()
        assert runtime._inflight == 0
        assert not any(transport._wire.values())
        assert transport.stats.in_flight == 0
        stats = transport.stats
        assert stats.total_messages + stats.dropped_messages == self.given + self.injected
        assert stats.total_messages == sum(len(s.received) for s in self.sinks.values())
        assert len(transport.errors) == self.refused + self.injected
        for (src, dst), messages in self.sent.items():
            got = [m for m, sender in self.sinks[dst].received if sender == src]
            assert in_order_with_gaps(got, messages)


def test_transport_machine(request, monkeypatch):
    """Tier 1 replays the same examples every run; under
    ``--hypothesis-seed`` (``runtime-gates``: three seeds) it explores
    others."""
    monkeypatch.setattr(asyncio_backend, "MAX_FRAME_BYTES", LIMIT)
    seeded = request.config.getoption("--hypothesis-seed", None) is not None
    run_state_machine_as_test(
        TransportMachine,
        settings=settings(
            max_examples=40,
            stateful_step_count=30,
            deadline=None,
            derandomize=not seeded,
            database=None,
        ),
    )

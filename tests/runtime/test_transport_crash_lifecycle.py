"""Crash-lifecycle regression tests for the TCP transport (PR 9).

Three transport bugs rode along with PR 8's endpoint FSM:

1. An ``_inflight`` leak: a frame whose write succeeded into a killed
   endpoint's socket buffer was never read, so the runtime's in-flight
   counter never came back down and ``run()`` burned its full
   ``idle_timeout`` waiting for an idleness that could not happen.
2. ``kill()`` was not idempotent: a second kill re-ran ``crash()`` and
   overwrote ``endpoint.teardown``, orphaning the first teardown task so
   a later ``restore()`` could race the still-closing server socket.
3. ``restore()`` on a live endpoint silently started a second server on
   the process's port instead of failing loudly.

These tests pin the fixed behaviour: prompt settling after a kill with
frames in flight, drop accounting that matches the swallowed frames
exactly, one-shot FSM edges, and the documented endpoint history across
kill -> restore -> kill.

Three more came from the frame-accounting state machine
(``test_transport_machine.py``): the kill's sweep booked frames that had
not been written yet as drops, and they were then delivered to the
restored incarnation too; a kill while an endpoint's first server was
still binding was undone by the bind completing (LISTENING, a live
server, on a killed process); and a kill landing inside ``restore``,
while the process is still down, crashed the endpoint again under the
restore — it is a no-op now, like a second ``crash()``.
"""

import time

import pytest

from repro.runtime.asyncio_backend import (
    AsyncioRuntime,
    BINDING,
    CRASHED,
    INIT,
    LISTENING,
    RECOVERING,
    SERVING,
    TcpTransport,
)
from repro.sim.kernel import Process, SimulationError


class Sink(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, message, sender):
        self.received.append((message, getattr(sender, "name", None)))


@pytest.fixture
def fabric():
    runtime = AsyncioRuntime()
    transport = TcpTransport(runtime)
    try:
        yield runtime, transport
    finally:
        transport.close()
        runtime.close()


def _establish(runtime, transport, a, b):
    """One delivered frame: servers bound, writer cached, FSM at SERVING."""
    transport.send(a, b, "warmup")
    assert runtime.run_until(lambda: len(b.received) == 1, timeout=5.0)


class TestInFlightReconciliation:
    def test_run_settles_promptly_after_kill_with_frames_in_flight(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)

        # A burst the victim will never read: the writes land in its
        # socket buffer (or fail against the closing server), and the
        # kill must reconcile whatever the dispatch path cannot settle.
        for i in range(20):
            transport.send(a, b, f"swallowed-{i}")
        transport.kill(b)

        start = time.monotonic()
        runtime.run()
        elapsed = time.monotonic() - start
        # The leak made this wait out the full idle_timeout (30 s).
        assert elapsed < 10.0, f"run() took {elapsed:.1f}s — in-flight leak?"
        assert runtime._inflight == 0
        assert transport.stats.in_flight == 0

    def test_drops_match_swallowed_frames_exactly(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        assert transport.stats.dropped_messages == 0

        in_flight_burst = 20
        for i in range(in_flight_burst):
            transport.send(a, b, f"burst-{i}")
        transport.kill(b)
        runtime.run()
        assert transport.stats.dropped_messages == in_flight_burst
        assert runtime._inflight == 0

        # Frames sent while the endpoint stays down fail the connect and
        # drop too — every swallowed frame is accounted, nothing else.
        downtime_sends = 5
        for i in range(downtime_sends):
            transport.send(a, b, f"down-{i}")
        runtime.run()
        assert (
            transport.stats.dropped_messages == in_flight_burst + downtime_sends
        )
        assert runtime._inflight == 0

        # After restore, fresh frames deliver and the drop count freezes.
        transport.restore(b)
        assert runtime.run_until(lambda: not b.crashed, timeout=5.0)
        transport.send(a, b, "fresh")
        assert runtime.run_until(
            lambda: any(m == "fresh" for m, _ in b.received), timeout=5.0
        )
        assert (
            transport.stats.dropped_messages == in_flight_burst + downtime_sends
        )
        assert transport.stats.in_flight == 0
        assert transport.errors == []


class TestIdempotentKill:
    def test_second_kill_is_a_noop(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)

        transport.kill(b)
        endpoint = transport.endpoint(b)
        first_teardown = endpoint.teardown
        assert endpoint.state == CRASHED
        assert first_teardown is not None

        transport.kill(b)  # must not re-crash or clobber the teardown
        assert endpoint.teardown is first_teardown
        assert endpoint.history.count(CRASHED) == 1
        assert b.incarnation == 0  # crash() ran once, restart() not at all

        # The preserved handle is what restore awaits; the lifecycle
        # must still complete normally after the double kill.
        transport.restore(b)
        assert runtime.run_until(lambda: not b.crashed, timeout=5.0)
        transport.send(a, b, "alive-again")
        assert runtime.run_until(
            lambda: any(m == "alive-again" for m, _ in b.received), timeout=5.0
        )


class TestRestoreGuard:
    def test_restore_on_live_endpoint_raises(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        with pytest.raises(SimulationError, match="cannot restore"):
            transport.restore(b)

    def test_restore_while_recovering_raises(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        transport.kill(b)
        transport.restore(b)  # schedules the rebind; state leaves CRASHED
        with pytest.raises(SimulationError, match="cannot restore"):
            transport.restore(b)
        assert runtime.run_until(lambda: not b.crashed, timeout=5.0)


class TestEndpointHistory:
    def test_documented_edge_sequence_across_kill_restore_kill(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        endpoint = transport.endpoint(b)
        assert endpoint.history == [INIT, BINDING, LISTENING, SERVING]

        transport.kill(b)
        runtime.run()
        transport.restore(b)
        assert runtime.run_until(
            lambda: not b.crashed and endpoint.state == LISTENING, timeout=5.0
        )
        transport.send(a, b, "post-restore")
        assert runtime.run_until(
            lambda: any(m == "post-restore" for m, _ in b.received), timeout=5.0
        )
        transport.kill(b)
        runtime.run()

        assert endpoint.history == [
            INIT,
            BINDING,
            LISTENING,
            SERVING,
            CRASHED,
            RECOVERING,
            LISTENING,
            SERVING,
            CRASHED,
        ]


class TestKillRaces:
    def test_a_frame_not_yet_written_at_a_kill_is_booked_once(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        transport.kill(b)
        transport.restore(b)
        runtime.run()  # b listens; a has no connection to it yet
        for i in range(3):
            transport.send(a, b, i)
        transport.kill(b)
        transport.restore(b)
        runtime.run()
        stats = transport.stats
        assert stats.total_messages + stats.dropped_messages == 3
        assert stats.total_messages == len(b.received)
        assert runtime._inflight == 0

    def test_a_kill_while_the_first_server_binds_wins(self, fabric):
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        transport.send(a, b, "first contact")  # binds b's server
        runtime.defer(transport.kill, b)  # in the loop round the bind starts
        assert runtime.run_until(lambda: b.crashed, timeout=5.0)
        runtime.run()
        endpoint = transport.endpoint(b)
        assert endpoint.history == [INIT, BINDING, CRASHED]
        assert endpoint.server is None
        assert transport.stats.dropped_messages == 1
        transport.restore(b)
        transport.send(a, b, "after")
        assert runtime.run_until(lambda: b.received, timeout=5.0)

    def test_a_kill_while_restoring_is_a_no_op(self, fabric):
        """The process is still down inside ``restore``: like a second
        ``crash()``, a kill that lands there changes nothing."""
        runtime, transport = fabric
        a, b = Sink(runtime, "a"), Sink(runtime, "b")
        transport.connect(a, b)
        _establish(runtime, transport, a, b)
        transport.kill(b)
        runtime.defer(transport.kill, b)  # fires while restore drives the loop
        transport.restore(b)
        endpoint = transport.endpoint(b)
        assert endpoint.history[-3:] == [CRASHED, RECOVERING, LISTENING]
        assert not b.crashed and endpoint.kills == 1
        transport.send(a, b, "after")
        assert runtime.run_until(lambda: len(b.received) == 2, timeout=5.0)

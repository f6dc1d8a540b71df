"""Tests for the real-runtime asyncio backend (PR 8 tentpole).

Everything here runs over actual localhost TCP sockets inside a private
event loop, driven synchronously — no pytest-asyncio needed.  The
overlay/flow/log code under test is byte-for-byte the code the
simulator runs; only the ``Executor``/``Transport`` bindings differ.
"""

import os

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.log.config import LogConfig
from repro.overlay.invariants import soft_state_violations
from repro.runtime.asyncio_backend import (
    AsyncioRuntime,
    CRASHED,
    LISTENING,
    SERVING,
    TcpTransport,
    decode_frame,
    encode_frame,
)
from repro.runtime.base import Clock, Executor, Transport
from repro.sim.kernel import Process, SimulationError, Simulator
from repro.sim.network import Network

STOCK_SCHEMA = ("class", "symbol", "price")


class Stock:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


class Sink(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, message, sender):
        self.received.append((message, getattr(sender, "name", None)))


def make_system(runtime, **kwargs):
    defaults = dict(stage_sizes=(2, 1), seed=1, runtime=runtime)
    defaults.update(kwargs)
    system = MultiStageEventSystem(**defaults)
    system.register_type(Stock)
    system.advertise("Stock", schema=STOCK_SCHEMA)
    return system


# ---------------------------------------------------------------------------
# Protocol conformance


class TestProtocols:
    def test_simulator_satisfies_executor(self):
        sim = Simulator()
        assert isinstance(sim, Clock)
        assert isinstance(sim, Executor)

    def test_asyncio_runtime_satisfies_executor(self):
        runtime = AsyncioRuntime()
        try:
            assert isinstance(runtime, Clock)
            assert isinstance(runtime, Executor)
        finally:
            runtime.close()

    def test_transports_satisfy_transport(self):
        sim = Simulator()
        assert isinstance(Network(sim), Transport)
        runtime = AsyncioRuntime()
        try:
            assert isinstance(TcpTransport(runtime), Transport)
        finally:
            runtime.close()


# ---------------------------------------------------------------------------
# Timers on the real loop


class TestRuntimeTimers:
    def test_timers_fire_in_order(self):
        runtime = AsyncioRuntime()
        try:
            out = []
            runtime.schedule(0.02, out.append, "late")
            runtime.schedule(0.01, out.append, "early")
            runtime.run(until=0.1)
            assert out == ["early", "late"]
            assert runtime.processed_events == 2
        finally:
            runtime.close()

    def test_cancelled_timer_never_fires_or_counts(self):
        runtime = AsyncioRuntime()
        try:
            out = []
            handle = runtime.schedule(0.01, out.append, "dead")
            handle.cancel()
            runtime.schedule(0.02, out.append, "live")
            runtime.run(until=0.1)
            assert out == ["live"]
            assert runtime.processed_events == 1
        finally:
            runtime.close()

    def test_negative_delay_rejected(self):
        runtime = AsyncioRuntime()
        try:
            with pytest.raises(SimulationError):
                runtime.schedule(-1.0, lambda: None)
        finally:
            runtime.close()

    def test_recurring_timer_repeats_until_cancelled(self):
        runtime = AsyncioRuntime()
        try:
            ticks = []
            timer = runtime.every(0.01, lambda: ticks.append(runtime.now))
            runtime.run(until=0.06)
            timer.cancel()
            seen = len(ticks)
            assert seen >= 3
            runtime.run(until=0.1)
            assert len(ticks) == seen
        finally:
            runtime.close()

    def test_run_until_predicate(self):
        runtime = AsyncioRuntime()
        try:
            out = []
            runtime.schedule(0.03, out.append, "x")
            assert runtime.run_until(lambda: out, timeout=2.0) is True
            assert runtime.run_until(lambda: False, timeout=0.05) is False
        finally:
            runtime.close()


# ---------------------------------------------------------------------------
# Frame codec


class TestFrameCodec:
    def test_round_trip_plain_payload(self):
        payload = {"symbol": "Foo", "price": 9.0}
        frame = encode_frame("alice", payload)
        src, message = decode_frame(frame, lambda name: None)
        assert src == "alice"
        assert message == payload

    def test_process_references_resolve_by_name(self):
        sim = Simulator()
        bob = Sink(sim, "bob")
        frame = encode_frame("alice", {"reply_to": bob})
        src, message = decode_frame(
            frame, lambda name: bob if name == "bob" else None
        )
        assert message["reply_to"] is bob

    def test_corrupt_frame_raises(self):
        # The whole contract is in test_frame_fuzz.py.
        with pytest.raises(ValueError):
            decode_frame(b"\xff not a frame", lambda name: None)


# ---------------------------------------------------------------------------
# TCP transport end-to-end


class TestTcpTransport:
    def test_frames_arrive_in_send_order(self):
        runtime = AsyncioRuntime()
        transport = TcpTransport(runtime)
        try:
            a = Sink(runtime, "a")
            b = Sink(runtime, "b")
            transport.connect(a, b)
            for i in range(20):
                transport.send(a, b, i)
            assert runtime.run_until(
                lambda: len(b.received) == 20, timeout=5.0
            )
            assert [m for m, _ in b.received] == list(range(20))
            assert transport.endpoint(b).state == SERVING
            assert transport.errors == []
        finally:
            transport.close()
            runtime.close()

    def test_endpoint_fsm_walks_the_documented_states(self):
        runtime = AsyncioRuntime()
        transport = TcpTransport(runtime)
        try:
            a = Sink(runtime, "a")
            b = Sink(runtime, "b")
            transport.connect(a, b)
            transport.send(a, b, "hello")
            assert runtime.run_until(lambda: b.received, timeout=5.0)
            assert transport.endpoint(b).history == [
                "init",
                "binding",
                "listening",
                "serving",
            ]
        finally:
            transport.close()
            runtime.close()

    def test_send_to_crashed_process_is_counted_drop(self):
        runtime = AsyncioRuntime()
        transport = TcpTransport(runtime)
        try:
            a = Sink(runtime, "a")
            b = Sink(runtime, "b")
            transport.connect(a, b)
            transport.send(a, b, "warm-up")
            assert runtime.run_until(lambda: b.received, timeout=5.0)
            transport.kill(b)
            assert transport.endpoint(b).state == CRASHED
            dropped_before = transport.stats.dropped_messages
            transport.send(a, b, "lost")
            runtime.run(until=0.3)
            assert len(b.received) == 1
            assert transport.stats.dropped_messages > dropped_before
        finally:
            transport.close()
            runtime.close()

    def test_kill_restore_rebinds_same_port(self):
        runtime = AsyncioRuntime()
        transport = TcpTransport(runtime)
        try:
            a = Sink(runtime, "a")
            b = Sink(runtime, "b")
            transport.connect(a, b)
            transport.send(a, b, "first")
            assert runtime.run_until(lambda: b.received, timeout=5.0)
            port = transport.endpoint(b).port
            transport.kill(b)
            transport.restore(b)
            assert runtime.run_until(
                lambda: transport.endpoint(b).state == LISTENING, timeout=5.0
            )
            assert transport.endpoint(b).port == port
            transport.send(a, b, "second")
            assert runtime.run_until(lambda: len(b.received) == 2, timeout=5.0)
        finally:
            transport.close()
            runtime.close()

    def test_duplicate_names_rejected(self):
        runtime = AsyncioRuntime()
        transport = TcpTransport(runtime)
        try:
            sim = Simulator()
            transport.register(Sink(sim, "same"))
            with pytest.raises(SimulationError):
                transport.register(Sink(sim, "same"))
        finally:
            transport.close()
            runtime.close()


# ---------------------------------------------------------------------------
# Full engine over sockets


class TestEngineOnAsyncio:
    def test_publish_subscribe_round_trip_over_tcp(self):
        with make_system("asyncio") as system:
            publisher = system.create_publisher()
            subscriber = system.create_subscriber()
            got = []
            system.subscribe(
                subscriber,
                'class = "Stock" and price < 10.0',
                handler=lambda e, m, s: got.append(e.get_price()),
            )
            assert system.run_until(lambda: subscriber._homes(), timeout=10.0)
            publisher.publish(Stock("Foo", 9.0))
            publisher.publish(Stock("Foo", 11.0))
            assert system.run_until(lambda: got, timeout=10.0)
            system.drain()
            assert got == [9.0]

    def test_default_runtime_is_sim(self):
        system = make_system("sim")
        assert system.runtime_name == "sim"
        assert isinstance(system.sim, Simulator)

    def test_invalid_runtime_rejected(self):
        with pytest.raises(ValueError):
            MultiStageEventSystem(stage_sizes=(2, 1), runtime="threads")

    def test_broker_kill_restart_recovers_log_from_disk(self, tmp_path):
        directory = str(tmp_path / "segments")
        with make_system(
            "asyncio",
            ttl=2.0,
            log=LogConfig(directory=directory, segment_size=4),
        ) as system:
            publisher = system.create_publisher()
            subscriber = system.create_subscriber()
            got = []
            system.subscribe(
                subscriber,
                'class = "Stock"',
                handler=lambda e, m, s: got.append(e.get_price()),
            )
            assert system.run_until(lambda: subscriber._homes(), timeout=10.0)
            system.start_maintenance()
            for i in range(5):
                publisher.publish(Stock("Foo", float(i)))
            assert system.run_until(lambda: len(got) >= 5, timeout=10.0)
            assert os.listdir(directory)

            home = subscriber._homes()[0]
            records_before = len(home.log)
            system.kill(home)
            assert system.run_until(lambda: home.crashed, timeout=5.0)
            assert home.log is None  # in-memory log died with the process
            assert soft_state_violations(home) == []

            system.restore(home)
            assert system.run_until(
                lambda: not home.crashed and home.log is not None, timeout=10.0
            )
            assert len(home.log) == records_before  # reloaded from JSONL
            assert home.log.truncated_records_discarded == 0

            # Renewals (kicked by ChannelReset) rebuild the table; then
            # fresh publishes flow end to end again.
            assert system.run_until(lambda: len(home.table) > 0, timeout=10.0)
            publisher.publish(Stock("Foo", 100.0))
            assert system.run_until(lambda: 100.0 in got, timeout=10.0)
            system.stop_maintenance()

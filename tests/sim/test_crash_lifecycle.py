"""Regression tests for the crash/restart timer lifecycle (PR 8 satellite).

Before this sweep, ``Process.crash()`` left previously scheduled
callbacks live in the simulator heap: a crashed process could fire
stale timers, and a crash -> restart cycle could double-schedule
maintenance work.  Timers created through the ``Process.call_*``
helpers are now owned by the process — cancelled on crash and guarded
by incarnation so a pre-crash closure can never run against
post-restart state.
"""

import pytest

from repro.sim.kernel import Process, SimulationError, Simulator


class Sink(Process):
    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, message, sender):
        self.received.append(message)


class Ticker(Sink):
    """A process declaring one periodic task, ``tick``, every second."""

    def __init__(self, sim):
        super().__init__(sim, "ticker")
        self.ticks = []

    def _maintenance_tasks(self):
        return (("tick", 1.0, lambda: self.ticks.append(self.sim.now)),)


class TestOwnedTimerCancellation:
    def test_crash_cancels_pending_call_later(self):
        sim = Simulator()
        proc = Sink(sim)
        fired = []
        proc.call_later(1.0, fired.append, "stale")
        proc.crash()
        sim.run()
        assert fired == []

    def test_crash_cancels_pending_call_at_and_call_soon(self):
        sim = Simulator()
        proc = Sink(sim)
        fired = []
        proc.call_at(2.0, fired.append, "at")
        proc.call_soon(fired.append, "soon")
        proc.crash()
        sim.run()
        assert fired == []

    def test_crash_stops_the_periodic_tasks(self):
        sim = Simulator()
        proc = Ticker(sim)
        proc.start_maintenance()
        sim.run(until=3.5)
        assert proc.ticks == [1.0, 2.0, 3.0]
        proc.crash()
        sim.run(until=10.0)
        assert proc.ticks == [1.0, 2.0, 3.0]
        assert proc.armed_tasks() == () and proc.maintaining
        proc.restart()  # re-armed from the restart instant
        sim.run(until=12.5)
        assert proc.ticks == [1.0, 2.0, 3.0, 11.0, 12.0]

    def test_timers_of_other_processes_survive_a_crash(self):
        sim = Simulator()
        victim = Sink(sim, "victim")
        bystander = Sink(sim, "bystander")
        fired = []
        victim.call_later(1.0, fired.append, "victim")
        bystander.call_later(1.0, fired.append, "bystander")
        victim.crash()
        sim.run()
        assert fired == ["bystander"]

    def test_fired_timers_leave_the_owned_set(self):
        sim = Simulator()
        proc = Sink(sim)
        for _ in range(50):
            proc.call_later(1.0, lambda: None)
        sim.run()
        assert not proc._owned_timers

    def test_negative_delay_rejected(self):
        sim = Simulator()
        proc = Sink(sim)
        with pytest.raises(SimulationError):
            proc.call_later(-0.1, lambda: None)


class TestIncarnationGuard:
    def test_restart_bumps_incarnation(self):
        sim = Simulator()
        proc = Sink(sim)
        assert proc.incarnation == 0
        proc.crash()
        proc.restart()
        assert proc.incarnation == 1

    def test_pre_crash_closure_never_runs_after_restart(self):
        # Even a handle that escapes cancellation (scheduled, crash,
        # restart all at the same instant) is inert: the closure checks
        # the incarnation it was created under.
        sim = Simulator()
        proc = Sink(sim)
        fired = []
        handle = proc.call_later(1.0, fired.append, "stale")
        proc.crash()
        assert handle.cancelled
        # Simulate a lost cancellation: the handle's closure is armed
        # again, at its own time, through the public scheduler.
        sim.schedule_at(handle.time, handle.callback, *handle.args)
        proc.restart()
        assert sim.run() == 1  # the resurrected closure did run ...
        assert fired == []  # ... into a closed door

    def test_timer_scheduled_after_restart_fires(self):
        sim = Simulator()
        proc = Sink(sim)
        fired = []
        proc.crash()
        proc.restart()
        proc.call_later(1.0, fired.append, "fresh")
        sim.run()
        assert fired == ["fresh"]

    def test_crashed_process_timer_is_inert_even_if_uncancelled(self):
        sim = Simulator()
        proc = Sink(sim)
        fired = []
        handle = proc.call_later(1.0, fired.append, "x")
        # Crash without the cancellation taking effect (defensive path).
        proc.crashed = True
        handle.cancelled = False
        sim.run()
        assert fired == []


class TestDeterminismUnaffected:
    def test_call_helpers_preserve_schedule_order(self):
        # call_later must not perturb the seq-based tie-break relied on
        # by the byte-identical determinism gates.
        sim = Simulator()
        proc = Sink(sim)
        out = []
        proc.call_later(1.0, out.append, "a")
        sim.schedule(1.0, out.append, "b")
        proc.call_later(1.0, out.append, "c")
        sim.run()
        assert out == ["a", "b", "c"]

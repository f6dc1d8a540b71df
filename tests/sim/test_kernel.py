"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import Process, SimulationError, Simulator


class Recorder:
    def __init__(self):
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(2.0, out.append, "late")
        sim.schedule(1.0, out.append, "early")
        sim.run()
        assert out == ["early", "late"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        out = []
        for label in "abcde":
            sim.schedule(1.0, out.append, label)
        sim.run()
        assert out == list("abcde")

    def test_zero_delay_runs_after_current_instant(self):
        sim = Simulator()
        out = []
        sim.schedule(0.0, out.append, "first")
        sim.schedule(0.0, out.append, "second")
        sim.run()
        assert out == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert sim.now == 3.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        out = []
        sim.schedule_at(5.0, out.append, "x")
        sim.run()
        assert out == ["x"]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_nan_delay_rejected(self):
        # NaN compares false with everything: accepted, it moved the clock
        # to NaN, after which schedule_at took any time, past ones too.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0
        sim.run()
        assert sim.now == 0.0
        with pytest.raises(SimulationError):
            sim.schedule_at(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nan_interval_rejected(self):
        # every(nan) used to be armed, and run(until=...) could never
        # pass its first tick.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(float("nan"), lambda: None)
        assert sim.pending_events == 0
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_callbacks_receive_args(self):
        sim = Simulator()
        rec = Recorder()
        sim.schedule(1.0, rec, 1, "two", [3])
        sim.run()
        assert rec.calls == [(1, "two", [3])]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        out = []

        def chain(n):
            out.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert out == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestCancel:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        out = []
        handle = sim.schedule(1.0, out.append, "x")
        handle.cancel()
        sim.run()
        assert out == []

    def test_cancel_is_reflected_in_repr(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert "pending" in repr(handle)
        handle.cancel()
        assert "cancelled" in repr(handle)

    def test_cancelled_events_not_counted_as_processed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.processed_events == 1


class TestRunBounds:
    def test_run_until_is_inclusive(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "in")
        sim.schedule(2.0, out.append, "boundary")
        sim.schedule(3.0, out.append, "out")
        sim.run(until=2.0)
        assert out == ["in", "boundary"]
        assert sim.now == 2.0

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_remaining_events_run_on_next_call(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(5.0, out.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert out == ["a", "b"]

    def test_max_events_bound(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule(float(i + 1), out.append, i)
        executed = sim.run(max_events=4)
        assert executed == 4
        assert out == [0, 1, 2, 3]

    def test_run_returns_executed_count(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(1.0, lambda: None)
        assert sim.run() == 3

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_step_executes_single_event(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(2.0, out.append, "b")
        assert sim.step() is True
        assert out == ["a"]

    def test_pending_events_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0


class TestProcess:
    def test_receive_is_abstract(self):
        process = Process(Simulator(), "p")
        with pytest.raises(NotImplementedError):
            process.receive("msg", process)

    def test_repr_includes_name(self):
        assert "worker" in repr(Process(Simulator(), "worker"))
